//! End-to-end soundness: a PDAT-transformed Ibex-class core must execute
//! every program from the reduced ISA *identically* to the original core.
//!
//! This is the paper's central correctness claim ("the resulting design can
//! support arbitrary applications that use the reduced ISA") checked at the
//! gate level: we transform the core for a subset, run subset programs on
//! the original and the transformed netlists in lockstep, and compare
//! retire streams, register files, and data memory.

mod common;

use common::lockstep;
use pdat_repro::cores::{build_ibex, rebind_ibex, IbexCore};
use pdat_repro::isa::rv32::{encode as e, Assembler};
use pdat_repro::isa::RvSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn fast_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 192,
        conflict_budget: Some(60_000),
        max_iterations: 2_000,
        seed: 0x51DE,
        ..Default::default()
    }
}

fn transform(core: &IbexCore, subset: &RvSubset) -> IbexCore {
    let res = run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &fast_config(),
    )
    .expect("pdat run");
    assert!(
        res.optimized.gate_count < res.baseline.gate_count,
        "expected a reduction for {}",
        subset.name
    );
    rebind_ibex(res.netlist)
}

#[test]
fn rv32i_subset_core_runs_rv32i_programs_identically() {
    let core = build_ibex();
    let reduced = transform(&core, &RvSubset::rv32i());

    // A representative RV32I-only program: arithmetic, branches, memory.
    let mut a = Assembler::new();
    let done = a.new_label();
    a.emit(e::addi(1, 0, 10)); // n
    a.emit(e::addi(2, 0, 0)); // sum
    a.emit(e::addi(3, 0, 512)); // ptr
    let top = a.here();
    a.beq(1, 0, done);
    a.emit(e::add(2, 2, 1));
    a.emit(e::sw(2, 3, 0));
    a.emit(e::lw(4, 3, 0));
    a.emit(e::xor(5, 4, 1));
    a.emit(e::slli(6, 1, 2));
    a.emit(e::sltu(7, 5, 6));
    a.emit(e::addi(1, 1, -1));
    a.jump_back(top);
    a.bind(done);
    a.emit(e::lui(8, 0xABCDE));
    a.emit(e::srai(9, 8, 9));
    let program = a.finish();
    lockstep(&core, &reduced, &program, 10 * 8 + 3 + 2 + 10);
}

#[test]
fn safety_critical_core_runs_safety_critical_programs() {
    let core = build_ibex();
    let subset = RvSubset::safety_critical();
    let reduced = transform(&core, &subset);

    // No JALR / AUIPC / FENCE / ECALL / EBREAK.
    let mut a = Assembler::new();
    let f = a.new_label();
    a.emit(e::addi(1, 0, 21));
    a.jal(2, f); // direct jumps still allowed
    a.emit(e::addi(3, 0, 99)); // skipped
    a.bind(f);
    a.emit(e::add(4, 1, 1));
    a.emit(e::and(5, 4, 1));
    a.emit(e::or(6, 4, 1));
    let program = a.finish();
    lockstep(&core, &reduced, &program, 5);
}

#[test]
fn rv32im_core_runs_multiply_divide() {
    let core = build_ibex();
    let reduced = transform(&core, &RvSubset::rv32im());

    let mut a = Assembler::new();
    a.emit(e::addi(1, 0, -77));
    a.emit(e::addi(2, 0, 13));
    a.emit(e::mul(3, 1, 2));
    a.emit(e::mulh(4, 1, 2));
    a.emit(e::div(5, 1, 2));
    a.emit(e::rem(6, 1, 2));
    a.emit(e::divu(7, 1, 2));
    a.emit(e::remu(8, 1, 2));
    let program = a.finish();
    lockstep(&core, &reduced, &program, 8);
}

#[test]
fn reduced_core_drops_excluded_functionality() {
    // On the RV32I-subset core, register values must still be *correct*
    // for subset programs even though the multiplier was removed; this
    // checks the reduction actually removed the iterative M-unit state.
    let core = build_ibex();
    let res = run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset: &RvSubset::rv32i(),
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &fast_config(),
    )
    .expect("pdat run");
    // The 32-cycle multiply/divide datapath (acc registers + counter) is
    // dead under an RV32I-only environment.
    assert!(
        res.optimized.dff_count < res.baseline.dff_count - 50,
        "M-unit state should be gone: {} -> {}",
        res.baseline.dff_count,
        res.optimized.dff_count
    );
}
