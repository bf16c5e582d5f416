//! Quickstart: generate an Ibex-class core, trim it to RV32I with PDAT,
//! and show that the reduced core still executes an RV32I program exactly
//! like the original.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pdat_repro::cores::{build_ibex, rebind_ibex, CoreHarness};
use pdat_repro::isa::rv32::{encode as e, Assembler};
use pdat_repro::isa::RvSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn main() {
    // 1. The input IP: a gate-level netlist of a 2-stage RV32IMC+Zicsr core.
    let core = build_ibex();
    println!("input core: {}", core.netlist.stats());

    // 2. The environment restriction: only RV32I programs will ever run.
    let subset = RvSubset::rv32i();

    // 3. Run PDAT: annotate with the property library, prove gate
    //    invariants under the restriction, rewire, resynthesize.
    let result = run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset: &subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased, // paper Fig. 4
        },
        &PdatConfig::default(),
    )
    .expect("pdat run");
    println!(
        "PDAT: {} candidates, {} proved; gates {} -> {} ({:.1}% reduction), area {:.0} -> {:.0} um^2",
        result.candidates,
        result.proved,
        result.baseline.gate_count,
        result.optimized.gate_count,
        100.0 * result.gate_reduction(),
        result.baseline.area_um2,
        result.optimized.area_um2,
    );

    // 4. Proof of life: run an RV32I program on both cores, gate by gate.
    let mut a = Assembler::new();
    let done = a.new_label();
    a.emit(e::addi(1, 0, 12)); // n = 12
    a.emit(e::addi(2, 0, 1)); // fib a
    a.emit(e::addi(3, 0, 1)); // fib b
    let top = a.here();
    a.emit(e::addi(1, 1, -1));
    a.beq(1, 0, done);
    a.emit(e::add(4, 2, 3));
    a.emit(e::add(2, 0, 3));
    a.emit(e::add(3, 0, 4));
    a.jump_back(top);
    a.bind(done);
    let program = a.finish();

    let reduced = rebind_ibex(result.netlist);
    let mut h1 = CoreHarness::new(&core, &program, 1024);
    let mut h2 = CoreHarness::new(&reduced, &program, 1024);
    h1.run_until_retires(60, 2000);
    h2.run_until_retires(60, 2000);
    assert_eq!(h1.reg(3), h2.reg(3), "cores diverged!");
    println!(
        "both cores computed fib(12) = {} — the reduced core is a drop-in \
         replacement for RV32I software.",
        h1.reg(3)
    );
}
