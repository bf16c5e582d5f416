//! End-to-end tests for the Cortex-M0-class path: obfuscation preserves
//! behaviour, PDAT strips the obfuscation overhead, and the transformed
//! (clean) core still runs Thumb programs in lockstep.

mod common;

use common::lockstep;
use pdat_repro::cores::{build_cortexm0, obfuscate, rebind_cortexm0, ObfuscateConfig};
use pdat_repro::isa::armv6m::{encode::*, ThumbAssembler};
use pdat_repro::isa::ThumbSubset;
use pdat_repro::{run_pdat, ConstraintMode, Environment, PdatConfig};

fn fast_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 192,
        conflict_budget: Some(60_000),
        max_iterations: 2_000,
        seed: 0xA0A0,
        ..Default::default()
    }
}

fn demo_program() -> Vec<u8> {
    // Mixed ALU/memory/branch program ending in bkpt.
    let mut a = ThumbAssembler::new();
    a.emit(t_mov_imm(0, 5));
    a.emit(t_mov_imm(1, 0));
    a.emit(t_mov_imm(4, 1));
    a.emit(t_lsl_imm(4, 4, 8)); // base 256
    let top = a.here();
    a.emit(t_add_reg(1, 1, 0));
    a.emit(t_lsl_imm(2, 0, 2));
    a.emit(t_str_reg(1, 4, 2));
    a.emit(t_sub_imm8(0, 1));
    let off = top as i64 - (a.here() as i64 + 4);
    a.emit(t_b_cond(Cond::Ne, off as i32));
    a.emit(t_ldr_imm(3, 4, 4));
    a.emit(0xBE00); // bkpt
    a.finish()
}

#[test]
fn obfuscated_core_executes_like_clean_core() {
    let core = build_cortexm0();
    let (obf_nl, _map) = obfuscate(&core.netlist, &ObfuscateConfig::default());
    obf_nl.validate().expect("obfuscated core valid");
    let obf = rebind_cortexm0(obf_nl);
    lockstep(&core, &obf, &demo_program(), 60);
}

#[test]
fn pdat_strips_obfuscation_overhead_and_preserves_behaviour() {
    let core = build_cortexm0();
    let (obf_nl, map) = obfuscate(&core.netlist, &ObfuscateConfig::default());
    let port: Vec<_> = core.instr_in.iter().map(|n| map[n]).collect();
    let subset = ThumbSubset::armv6m();
    let res = run_pdat(
        &obf_nl,
        &Environment::Thumb {
            subset: &subset,
            port,
            mode: ConstraintMode::PortBased,
        },
        &fast_config(),
    )
    .expect("pdat run");
    assert!(
        res.gate_reduction() > 0.05,
        "full-ISA PDAT should strip obfuscation overhead, got {:.1}%",
        100.0 * res.gate_reduction()
    );
    // The de-bloated core still matches the clean core on real programs.
    let recovered = rebind_cortexm0(res.netlist);
    lockstep(&core, &recovered, &demo_program(), 60);
}

#[test]
fn interesting_subset_core_runs_interesting_programs() {
    let core = build_cortexm0();
    let subset = ThumbSubset::interesting_subset();
    let res = run_pdat(
        &core.netlist,
        &Environment::Thumb {
            subset: &subset,
            port: core.instr_in.clone(),
            mode: ConstraintMode::PortBased,
        },
        &fast_config(),
    )
    .expect("pdat run");
    assert!(res.optimized.gate_count < res.baseline.gate_count);
    let reduced = rebind_cortexm0(res.netlist);
    // demo_program uses only two-byte, non-multiply, non-barrier forms:
    // it is in the interesting subset.
    lockstep(&core, &reduced, &demo_program(), 60);
}
