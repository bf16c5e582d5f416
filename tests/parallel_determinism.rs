//! Thread-count invariance of the full pipeline: the falsification engine
//! parallelizes over lane blocks whose RNG streams depend only on
//! `(seed, block_index)`, and the per-block kill sets are merged with a
//! commutative union — so the proved invariant set, the transformed
//! netlist, and the falsification counters must be bit-identical no matter
//! how many worker threads run the simulation.
//!
//! The proving stage runs on one solver and never reads
//! `ProveConfig::threads`, so the proved invariants and the solver
//! counters must be bit-identical for any value of it. The proved list
//! itself must equal a plain Houdini's.

mod common;

use common::{falsify, keyed_design, plain_houdini, Prepared};
use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::mc::{
    houdini_prove_warm_governed, Candidate, CandidateKind, HoudiniConfig, HoudiniStats,
};
use pdat_repro::{
    run_pdat, run_pdat_batch, BatchRequest, ConstraintMode, Environment, Governor, GovernorConfig,
    PdatConfig, PdatResult, PreparedNetlist, ProofCache, ProveConfig,
};
use std::borrow::Cow;
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
    )
    .expect("pdat run")
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

fn prover_config(threads: usize) -> PdatConfig {
    PdatConfig {
        sim_cycles: 96,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x9A8D,
        prove: ProveConfig { threads },
        ..Default::default()
    }
}

/// Compare two prover runs: the proved invariants (values *and* order)
/// and every solver counter must match exactly.
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
    let clauses = |s: &HoudiniStats| -> Vec<(usize, usize)> {
        s.shard_stats
            .iter()
            .map(|x| (x.clauses_pre, x.clauses_post))
            .collect()
    };
    assert_eq!(clauses(a), clauses(b), "{label}: clause counts diverged");
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
    let base = run_pdat(&core.netlist, &env, &prover_config(1)).expect("pdat run");
    assert!(base.proved > 0, "fixture must prove something");
    assert!(
        base.houdini_stats.dropped > 0,
        "fixture must drop something"
    );
    for threads in [2usize, 4, 8] {
        let r = run_pdat(&core.netlist, &env, &prover_config(threads)).expect("pdat run");
        assert_prove_identical(&base, &r, &format!("ibex threads={threads}"));
        assert_eq!(
            base.optimized, r.optimized,
            "ibex threads={threads}: optimized netlist stats diverged"
        );
    }
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

/// The prover — cone-of-influence encoding, CNF preprocessing, OR-tree
/// detectors, one incremental solver — must prove the *bit-identical*
/// list (values and order) that plain Houdini proves on the same
/// simulation survivors, with and without an armed but untripped
/// governor, and with no degradation: the partial encoding is
/// equisatisfiable with the full one for every query, and the Houdini
/// fixpoint is unique.
fn assert_prover_matches_plain_houdini(p: &Prepared, label: &str) -> Vec<Candidate> {
    let oracle = plain_houdini(&p.na, p.constraint, &p.survivors);
    assert!(!oracle.is_empty(), "{label}: fixture must prove something");
    for armed in [false, true] {
        let case = format!("{label} armed={armed}");
        let governor = if armed {
            armed_governor()
        } else {
            Governor::unlimited()
        };
        let config = HoudiniConfig {
            conflict_budget: Some(40_000),
            max_iterations: 1_000,
            prove: ProveConfig::default(),
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
        // The solvers run one after another, so their encode +
        // preprocess + solve timers cannot add up to more than the run.
        let busy: f64 = stats
            .shard_stats
            .iter()
            .map(|s| s.encode_seconds + s.preprocess_seconds + s.solve_seconds)
            .sum();
        assert!(
            busy <= wall + 1e-6,
            "{case}: {busy}s solver time in a {wall}s run"
        );
        assert_eq!(oracle, proved, "{case}: prover diverged from plain Houdini");
    }
    oracle
}

#[test]
fn coi_prover_matches_full_encoding_bit_identical_on_ibex() {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let config = prover_config(1);
    let p = falsify(&core.netlist, Some((&subset, &core.cut_fetch)), &config);
    let oracle = assert_prover_matches_plain_houdini(&p, "ibex");
    // The rebuilt falsify stage is the pipeline's own: same survivors,
    // same proved list.
    let env = Environment::Rv {
        subset: &subset,
        ports: vec![core.cut_fetch.clone()],
        mode: ConstraintMode::CutpointBased,
    };
    let res = run_pdat(&core.netlist, &env, &config).expect("pdat run");
    assert_eq!(
        res.sim_survivors,
        p.survivors.len(),
        "survivor count diverged"
    );
    assert_eq!(
        res.proved_invariants, oracle,
        "pipeline proved list diverged"
    );
}

/// The keyed design's golden proved list: the key latch is stuck high,
/// and with the key proved the output mux always selects the real
/// function `t`. Checked on the prover against plain Houdini, and on the
/// whole pipeline under an armed but untripped governor.
#[test]
fn coi_prover_matches_full_encoding_bit_identical_on_keyed_design() {
    let nl = keyed_design();
    let t = nl.find_net("t").expect("fixture net");
    let golden = vec![
        ("key".to_string(), CandidateKind::ConstTrue),
        ("out".to_string(), CandidateKind::EqualNet(t)),
    ];
    let named = |proved: &[Candidate]| -> Vec<(String, CandidateKind)> {
        proved
            .iter()
            .map(|c| (nl.net(c.net).name.clone(), c.kind))
            .collect()
    };

    let p = falsify(&nl, None, &prover_config(1));
    let oracle = assert_prover_matches_plain_houdini(&p, "keyed");
    assert_eq!(named(&oracle), golden, "plain Houdini diverged from golden");

    let request = [BatchRequest {
        env: Environment::Unconstrained,
        extras: Vec::new(),
    }];
    let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
    let res = run_pdat_batch(
        &prepared,
        &request,
        &prover_config(1),
        &armed_governor(),
        &ProofCache::new(),
    )
    .pop()
    .and_then(|slot| slot.expect("valid request").result)
    .expect("a fresh cache solves the request");
    assert!(
        res.degradations.is_empty(),
        "untripped governor degraded: {:?}",
        res.degradations
    );
    assert_eq!(
        named(&res.proved_invariants),
        golden,
        "pipeline diverged from golden"
    );
}

#[test]
fn prover_is_identical_for_1_2_4_8_threads_on_keyed_design() {
    let nl = keyed_design();
    let base = run_pdat(&nl, &Environment::Unconstrained, &prover_config(1)).expect("pdat run");
    assert!(base.proved >= 1, "keyed design proves the key invariant");
    for threads in [2usize, 4, 8] {
        let r =
            run_pdat(&nl, &Environment::Unconstrained, &prover_config(threads)).expect("pdat run");
        assert_prove_identical(&base, &r, &format!("keyed threads={threads}"));
    }
}
