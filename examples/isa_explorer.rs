//! ISA design-space exploration: sweep reduced-ISA variants of the
//! Ibex-class core and print the area/gate trade-off curve — the workflow a
//! multi-ISA heterogeneous-SoC architect would use (paper §I cites this as
//! a motivating application).
//!
//! Run with:
//! ```sh
//! cargo run --release --example isa_explorer
//! ```

use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn main() {
    let core = build_ibex();
    let variants = vec![
        RvSubset::rv32imcz(),
        RvSubset::rv32imc(),
        RvSubset::rv32im(),
        RvSubset::rv32ic(),
        RvSubset::rv32i(),
        RvSubset::rv32e(),
        RvSubset::safety_critical(),
        RvSubset::risc16(),
    ];
    println!(
        "{:<18} {:>6} {:>8} {:>10} {:>8}",
        "ISA", "forms", "gates", "area um^2", "saved"
    );
    let (full, _) = pdat_repro::synth::resynthesize(&core.netlist);
    println!(
        "{:<18} {:>6} {:>8} {:>10.0} {:>8}",
        "(full core)",
        78,
        full.gate_count(),
        full.area(),
        "-"
    );
    for subset in variants {
        let res = run_pdat(
            &core.netlist,
            &Environment::Rv {
                subset: &subset,
                ports: vec![core.cut_fetch.clone()],
                mode: ConstraintMode::CutpointBased,
            },
            &PdatConfig::default(),
        )
        .expect("pdat run");
        println!(
            "{:<18} {:>6} {:>8} {:>10.0} {:>7.1}%",
            subset.name,
            subset.instrs.len(),
            res.optimized.gate_count,
            res.optimized.area_um2,
            100.0 * (1.0 - res.optimized.gate_count as f64 / full.gate_count() as f64)
        );
    }
    println!(
        "\nEach row is a synthesizable netlist: pick the point on the curve \
         that fits the deployment and ship it."
    );
}
