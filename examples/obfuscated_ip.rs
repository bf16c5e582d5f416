//! Obfuscated firm-IP scenario (paper §VII-B): the Cortex-M0-class core is
//! delivered as an obfuscated netlist — scrambled names, universal-gate
//! decomposition, and key-latch camouflage muxes. No cutpoints are possible
//! (we can't identify internal nets), so constraints go on the port.
//!
//! PDAT's sequential analysis proves the key latches constant, strips the
//! camouflage, and trims unreachable decode logic — all without any
//! knowledge of the microarchitecture.
//!
//! Run with:
//! ```sh
//! cargo run --release --example obfuscated_ip
//! ```

use pdat_repro::cores::{build_cortexm0, obfuscate, ObfuscateConfig};
use pdat_repro::isa::ThumbSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn main() {
    // The IP vendor's view: a clean core.
    let core = build_cortexm0();
    println!("clean core:      {}", core.netlist.stats());

    // What the customer actually receives.
    let (obf, map) = obfuscate(&core.netlist, &ObfuscateConfig::default());
    println!("obfuscated firm IP: {}", obf.stats());
    println!(
        "(+{} gates of obfuscation overhead; internal names scrambled)",
        obf.gate_count() as i64 - core.netlist.gate_count() as i64
    );

    // Port-based PDAT with the *full* ARMv6-M ISA: no subsetting yet —
    // this alone recovers a large chunk, exactly the paper's observation.
    let port: Vec<_> = core.instr_in.iter().map(|n| map[n]).collect();
    let full = ThumbSubset::armv6m();
    let res_full = run_pdat(
        &obf,
        &Environment::Thumb {
            subset: &full,
            port: port.clone(),
            mode: ConstraintMode::PortBased,
        },
        &PdatConfig::default(),
    )
    .expect("pdat run");
    println!(
        "PDAT @ full ARMv6-M: gates {} -> {} ({:.1}%), area {:.0} -> {:.0} ({:.1}%)",
        res_full.baseline.gate_count,
        res_full.optimized.gate_count,
        100.0 * res_full.gate_reduction(),
        res_full.baseline.area_um2,
        res_full.optimized.area_um2,
        100.0 * res_full.area_reduction(),
    );

    // The paper's practical "interesting subset": two-byte instructions
    // only, no barriers/signaling/multiply.
    let interesting = ThumbSubset::interesting_subset();
    let res_int = run_pdat(
        &obf,
        &Environment::Thumb {
            subset: &interesting,
            port,
            mode: ConstraintMode::PortBased,
        },
        &PdatConfig::default(),
    )
    .expect("pdat run");
    println!(
        "PDAT @ {}: gates {} -> {} ({:.1}%), area {:.1}%",
        interesting.name,
        res_int.baseline.gate_count,
        res_int.optimized.gate_count,
        100.0 * res_int.gate_reduction(),
        100.0 * res_int.area_reduction(),
    );
    assert!(res_int.optimized.gate_count <= res_full.optimized.gate_count);
    println!(
        "the subset core is no larger than the full-ISA core — and neither \
         run needed the netlist de-obfuscated."
    );
}
