//! Ablation benchmarks for the design choices called out in DESIGN.md §6:
//!
//! * simulation pre-filtering on/off (SAT load without the cheap kills);
//! * cutpoint- vs port-based constraints on the Ibex-class core;
//! * induction conflict-budget sweep (lower budget ⇒ fewer proofs, never
//!   incorrect ones — paper §VII-C).
//!
//! Each ablation reports wall time through Criterion; the *quality* impact
//! (proved counts / reductions) is printed once per run so the trade-off is
//! visible in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use pdat::{run_pdat, ConstraintMode, Environment, PdatConfig};
use pdat_aig::netlist_to_aig;
use pdat_cores::build_ibex;
use pdat_isa::RvSubset;
use pdat_governor::Governor;
use pdat_mc::{candidates_for_netlist, houdini_prove_warm_governed, HoudiniConfig};
use std::hint::black_box;
use std::sync::Once;

static PRINT_QUALITY: Once = Once::new();

fn quality_report() {
    PRINT_QUALITY.call_once(|| {
        let core = build_ibex();
        let subset = RvSubset::rv32i();
        for (label, mode) in [
            ("cutpoint", ConstraintMode::CutpointBased),
            ("port", ConstraintMode::PortBased),
        ] {
            // Cutpoints attach to the fetch-decode register inputs; port
            // mode attaches to the instruction port itself.
            let nets = match mode {
                ConstraintMode::CutpointBased => core.cut_fetch.clone(),
                ConstraintMode::PortBased => core.instr_in.clone(),
            };
            let res = run_pdat(
                &core.netlist,
                &Environment::Rv {
                    subset: &subset,
                    ports: vec![nets],
                    mode,
                },
                &PdatConfig::default(),
            ).expect("pdat run");
            eprintln!(
                "[ablation quality] {label}-based RV32i: proved={} gates {} -> {} ({:.1}%)",
                res.proved,
                res.baseline.gate_count,
                res.optimized.gate_count,
                -100.0 * res.gate_reduction()
            );
        }
        for budget in [1_000u64, 10_000, 300_000] {
            let res = run_pdat(
                &core.netlist,
                &Environment::Rv {
                    subset: &subset,
                    ports: vec![core.cut_fetch.clone()],
                    mode: ConstraintMode::CutpointBased,
                },
                &PdatConfig {
                    conflict_budget: Some(budget),
                    ..Default::default()
                },
            ).expect("pdat run");
            eprintln!(
                "[ablation quality] budget={budget}: proved={} gates -> {} ({:.1}%)",
                res.proved,
                res.optimized.gate_count,
                -100.0 * res.gate_reduction()
            );
        }
    });
}

/// Houdini without simulation pre-filtering: every candidate goes straight
/// to the SAT engine (bounded here to keep the bench finite).
fn bench_no_sim_filter(c: &mut Criterion) {
    quality_report();
    let core = build_ibex();
    let na = netlist_to_aig(&core.netlist, &[]);
    let candidates = candidates_for_netlist(&core.netlist, &na);
    // Take a slice: the full 50k-candidate set without filtering is the
    // point of the ablation, but a bench iteration must terminate quickly.
    let slice: Vec<_> = candidates.iter().copied().take(2_000).collect();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("houdini_unfiltered_2k_candidates", |b| {
        b.iter(|| {
            houdini_prove_warm_governed(
                &na.aig,
                pdat_aig::AigLit::TRUE,
                &na,
                black_box(&slice),
                &[],
                &HoudiniConfig {
                    conflict_budget: Some(5_000),
                    max_iterations: 200,
                    ..Default::default()
                },
                &Governor::unlimited(),
            )
        })
    });
    g.finish();
}

/// Cutpoint vs port constraint mode, time-to-complete at a fast budget.
fn bench_constraint_mode(c: &mut Criterion) {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let config = PdatConfig {
        sim_cycles: 96,
        conflict_budget: Some(10_000),
        max_iterations: 300,
        seed: 2,
        ..Default::default()
    };
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (label, mode) in [
        ("pdat_cutpoint_fast", ConstraintMode::CutpointBased),
        ("pdat_port_fast", ConstraintMode::PortBased),
    ] {
        let nets = match mode {
            ConstraintMode::CutpointBased => core.cut_fetch.clone(),
            ConstraintMode::PortBased => core.instr_in.clone(),
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                run_pdat(
                    black_box(&core.netlist),
                    &Environment::Rv {
                        subset: &subset,
                        ports: vec![nets.clone()],
                        mode,
                    },
                    &config,
                ).expect("pdat run")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_no_sim_filter, bench_constraint_mode);
criterion_main!(benches);
