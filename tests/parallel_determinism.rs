//! Thread-count invariance of the full pipeline: the falsification engine
//! parallelizes over lane blocks whose RNG streams depend only on
//! `(seed, block_index)`, and the per-block kill sets are merged with a
//! commutative union — so the proved invariant set, the transformed
//! netlist, and the falsification counters must be bit-identical no matter
//! how many worker threads run the simulation.
//!
//! The proving stage makes the same promise for its sharded fixpoint:
//! shard contents, per-shard conflict allowances, and the round structure
//! depend only on `(candidate order, shard_size)` — threads only decide
//! which worker happens to run a shard — so the proved invariants and the
//! per-shard solver counters must be bit-identical for any thread count.
//! The proved list itself must equal a plain, unsharded Houdini's.

mod common;

use common::{falsify, plain_houdini, Prepared};
use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::mc::{houdini_prove_warm_governed, Candidate, HoudiniConfig};
use pdat_repro::netlist::{CellKind, Netlist};
use pdat_repro::{
    run_pdat, ConstraintMode, Environment, Governor, GovernorConfig, PdatConfig, PdatResult,
    ProveConfig,
};
use std::time::{Duration, Instant};

fn config_with_threads(threads: usize) -> PdatConfig {
    PdatConfig {
        sim_cycles: 96,
        lane_blocks: 4,
        sim_threads: threads,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xD7E2,
        ..Default::default()
    }
}

fn run(threads: usize) -> PdatResult {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    run_pdat(
        &core.netlist,
        &Environment::Rv {
            subset: &subset,
            ports: vec![core.cut_fetch.clone()],
            mode: ConstraintMode::CutpointBased,
        },
        &config_with_threads(threads),
    ).expect("pdat run")
}

#[test]
fn proved_set_is_identical_for_1_2_4_threads() {
    let r1 = run(1);
    let r2 = run(2);
    let r4 = run(4);
    for (label, r) in [("2", &r2), ("4", &r4)] {
        assert_eq!(
            r1.sim_survivors, r.sim_survivors,
            "threads={label} changed the simulation survivor count"
        );
        assert_eq!(
            r1.sim_stats, r.sim_stats,
            "threads={label} changed the falsification stats"
        );
        assert_eq!(
            r1.proved, r.proved,
            "threads={label} changed the proved invariant count"
        );
        assert_eq!(
            r1.optimized, r.optimized,
            "threads={label} changed the optimized netlist stats"
        );
    }
    // The run must actually have done falsification work for the
    // invariance claim to mean anything.
    assert!(r1.sim_stats.kills > 0, "falsification killed nothing");
    assert_eq!(r1.sim_stats.lane_blocks, 4);
}

fn prover_config(threads: usize, shard_size: usize) -> PdatConfig {
    PdatConfig {
        sim_cycles: 96,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x9A8D,
        prove: ProveConfig {
            threads,
            shard_size,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Compare two runs of the sharded prover: the proved invariants (values
/// *and* order) and every per-shard solver counter must match exactly.
fn assert_prove_identical(base: &PdatResult, other: &PdatResult, label: &str) {
    assert_eq!(
        base.proved_invariants, other.proved_invariants,
        "{label}: proved invariant list diverged"
    );
    let (a, b) = (&base.houdini_stats, &other.houdini_stats);
    assert_eq!(a.iterations, b.iterations, "{label}: solve count diverged");
    assert_eq!(a.rounds, b.rounds, "{label}: round count diverged");
    assert_eq!(a.dropped, b.dropped, "{label}: cex drop count diverged");
    assert_eq!(a.conflicts, b.conflicts, "{label}: conflict total diverged");
    assert_eq!(
        a.shard_stats.len(),
        b.shard_stats.len(),
        "{label}: shard count diverged"
    );
    for (sa, sb) in a.shard_stats.iter().zip(&b.shard_stats) {
        assert_eq!(
            (sa.shard, sa.candidates, sa.proved, sa.solves, sa.conflicts),
            (sb.shard, sb.candidates, sb.proved, sb.solves, sb.conflicts),
            "{label}: shard {} counters diverged",
            sa.shard
        );
    }
}

#[test]
fn prover_is_identical_for_1_2_4_8_threads_on_ibex() {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let env = Environment::Rv {
        subset: &subset,
        ports: vec![core.cut_fetch.clone()],
        mode: ConstraintMode::CutpointBased,
    };
    // shard_size 1024 splits the ibex survivor set into ~9 shards, so
    // every thread count from 1 to 8 actually exercises work stealing
    // across multiple shards and multiple fixpoint rounds.
    let base = run_pdat(&core.netlist, &env, &prover_config(1, 1024)).expect("pdat run");
    assert!(
        base.houdini_stats.shard_stats.len() > 4,
        "fixture must shard: got {} shards",
        base.houdini_stats.shard_stats.len()
    );
    assert!(base.proved > 0, "fixture must prove something");
    assert!(base.houdini_stats.dropped > 0, "fixture must drop something");
    for threads in [2usize, 4, 8] {
        let r = run_pdat(&core.netlist, &env, &prover_config(threads, 1024)).expect("pdat run");
        assert_prove_identical(&base, &r, &format!("ibex threads={threads}"));
        assert_eq!(
            base.optimized, r.optimized,
            "ibex threads={threads}: optimized netlist stats diverged"
        );
    }
}

/// The keyed-design fixture: a key DFF stuck at 1 gates a mux between the
/// real function and a decoy; proving the key constant requires mutual
/// induction across shard boundaries when shard_size forces one candidate
/// per shard.
fn keyed_design() -> Netlist {
    let mut nl = Netlist::new("locked");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let fb = nl.add_net("fb");
    let key = nl.add_dff(fb, true, "key");
    nl.assign_alias(fb, key);
    let t = nl.add_cell(CellKind::And2, &[a, b], "t");
    let decoy = nl.add_cell(CellKind::Xor2, &[a, b], "decoy");
    let out = nl.add_cell(CellKind::Mux2, &[decoy, t, key], "out");
    nl.add_output("y", out);
    nl
}

/// A governor with every cap armed but out of reach: each check site
/// runs its full path without ever tripping.
fn armed_governor() -> Governor {
    Governor::new(&GovernorConfig {
        deadline: Some(Duration::from_secs(86_400)),
        conflict_budget: Some(u64::MAX / 2),
        cycle_budget: Some(u64::MAX / 2),
        ..Default::default()
    })
}

/// The sharded prover — cone-of-influence encoding, CNF preprocessing,
/// OR-tree detectors, cross-shard fixpoint — must prove the
/// *bit-identical* list (values and order) that plain Houdini proves on
/// the same simulation survivors, at every thread count, unsharded, and
/// under an armed but untripped governor, with no degradation: the
/// partial encoding is equisatisfiable with the full one for every query
/// a shard issues, and the Houdini fixpoint is unique.
fn assert_prover_matches_plain_houdini(
    p: &Prepared,
    shard_size: usize,
    label: &str,
) -> Vec<Candidate> {
    let oracle = plain_houdini(&p.na, p.constraint, &p.survivors);
    assert!(!oracle.is_empty(), "{label}: fixture must prove something");
    let runs = [
        (1usize, shard_size, false),
        (2, shard_size, false),
        (4, shard_size, false),
        (8, shard_size, false),
        (1, 0, false),
        (2, shard_size, true),
    ];
    for (threads, shard_size, armed) in runs {
        let case = format!("{label} threads={threads} shard_size={shard_size} armed={armed}");
        let governor = if armed {
            armed_governor()
        } else {
            Governor::unlimited()
        };
        let config = HoudiniConfig {
            conflict_budget: Some(40_000),
            max_iterations: 1_000,
            prove: ProveConfig {
                threads,
                shard_size,
                ..Default::default()
            },
        };
        let t = Instant::now();
        let (proved, stats, events) = houdini_prove_warm_governed(
            &p.na.aig,
            p.constraint,
            &p.na,
            &p.survivors,
            &[],
            &config,
            &governor,
        );
        let wall = t.elapsed().as_secs_f64();
        assert!(events.is_empty(), "{case}: degraded: {events:?}");
        if shard_size > 0 {
            assert!(stats.shard_stats.len() > 1, "{label}: fixture must shard");
        }
        if threads == 1 {
            // One worker runs the shards one after another, so their
            // encode + preprocess + solve timers cannot add up to more
            // than the whole run.
            let busy: f64 = stats
                .shard_stats
                .iter()
                .map(|s| s.encode_seconds + s.preprocess_seconds + s.solve_seconds)
                .sum();
            assert!(
                busy <= wall + 1e-6,
                "{case}: {busy}s shard time in a {wall}s run"
            );
        }
        assert_eq!(oracle, proved, "{case}: prover diverged from plain Houdini");
    }
    oracle
}

#[test]
fn coi_prover_matches_full_encoding_bit_identical_on_ibex() {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let config = prover_config(1, 1024);
    let p = falsify(&core.netlist, Some((&subset, &core.cut_fetch)), &config);
    let oracle = assert_prover_matches_plain_houdini(&p, 1024, "ibex");
    // The rebuilt falsify stage is the pipeline's own: same survivors,
    // same proved list.
    let env = Environment::Rv {
        subset: &subset,
        ports: vec![core.cut_fetch.clone()],
        mode: ConstraintMode::CutpointBased,
    };
    let res = run_pdat(&core.netlist, &env, &config).expect("pdat run");
    assert_eq!(res.sim_survivors, p.survivors.len(), "survivor count diverged");
    assert_eq!(res.proved_invariants, oracle, "pipeline proved list diverged");
}

#[test]
fn coi_prover_matches_full_encoding_bit_identical_on_keyed_design() {
    let p = falsify(&keyed_design(), None, &prover_config(1, 1));
    assert_prover_matches_plain_houdini(&p, 1, "keyed");
}

#[test]
fn prover_is_identical_for_1_2_4_8_threads_on_keyed_design() {
    let nl = keyed_design();
    let base = run_pdat(&nl, &Environment::Unconstrained, &prover_config(1, 1)).expect("pdat run");
    assert!(base.proved >= 1, "keyed design proves the key invariant");
    assert!(
        base.houdini_stats.shard_stats.len() >= 2,
        "one candidate per shard must yield multiple shards"
    );
    for threads in [2usize, 4, 8] {
        let r = run_pdat(&nl, &Environment::Unconstrained, &prover_config(threads, 1))
            .expect("pdat run");
        assert_prove_identical(&base, &r, &format!("keyed threads={threads}"));
    }
}
