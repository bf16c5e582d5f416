//! The prover against its differential oracle: on the Ibex-class core
//! and on a keyed design, the prover (cone-of-influence encoding, CNF
//! preprocessing, OR-tree detectors, one incremental solver) must prove
//! the bit-identical list — values and order — that a plain Houdini in
//! `tests/common/` proves on the same simulation survivors, with and
//! without an armed but untripped governor. The pipeline's own falsify
//! stage must hand the prover the same survivors the rebuilt one does.

mod common;

use common::{falsify, keyed_design, plain_houdini, Prepared};
use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::mc::{houdini_prove_warm_governed, Candidate, CandidateKind, HoudiniConfig};
use pdat_repro::{
    run_pdat, run_pdat_prepared, ConstraintMode, Environment, Governor, GovernorConfig, PdatConfig,
    PreparedNetlist, ProofCache, ProveConfig,
};
use std::borrow::Cow;
use std::time::{Duration, Instant};

fn prover_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 96,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x9A8D,
        ..Default::default()
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
    let config = prover_config();
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

    let p = falsify(&nl, None, &prover_config());
    let oracle = assert_prover_matches_plain_houdini(&p, "keyed");
    assert_eq!(named(&oracle), golden, "plain Houdini diverged from golden");

    let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
    let res = run_pdat_prepared(
        &prepared,
        &Environment::Unconstrained,
        &[],
        &prover_config(),
        &armed_governor(),
        &ProofCache::new(),
    )
    .expect("valid request")
    .result
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
