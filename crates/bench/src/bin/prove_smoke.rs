//! Prover smoke run for CI (tier-1).
//!
//! Drives the full PDAT pipeline on the keyed-design fixture through the
//! *governed, sharded* prover — 2 worker threads, one candidate per shard
//! — and checks the result against a golden proved-invariant list. This
//! pins three contracts at once:
//!
//! - the parallel prover is live and converges on a multi-shard fixpoint
//!   (the key invariant needs mutual induction across shard boundaries);
//! - an armed-but-untripped governor does not perturb the result (no
//!   degradation events);
//! - the proved list is exactly the golden set, in candidate order — any
//!   unsound over-proving (or lost invariant) fails the gate.
//!
//! Exits nonzero on any violation.

use pdat::{
    run_pdat_batch, BatchRequest, Environment, Governor, GovernorConfig, PdatConfig, ProofCache,
    ProveConfig,
};
use pdat_mc::CandidateKind;
use pdat_netlist::{CellKind, Netlist};
use std::time::Duration;

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

/// Run the prover against the golden list; returns the number of failed
/// checks.
fn run(nl: &Netlist) -> usize {
    let config = PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x5A0E,
        prove: ProveConfig {
            threads: 2,
            shard_size: 1, // one candidate per shard: worst-case split
            ..Default::default()
        },
        ..Default::default()
    };
    // Armed but untripped: every governor check site runs its full path.
    let governor = Governor::new(&GovernorConfig {
        deadline: Some(Duration::from_secs(86_400)),
        conflict_budget: Some(u64::MAX / 2),
        cycle_budget: Some(u64::MAX / 2),
        ..Default::default()
    });
    let request = [BatchRequest {
        env: Environment::Unconstrained,
        extras: Vec::new(),
    }];
    let res = run_pdat_batch(nl, &request, &config, &governor, &ProofCache::new())
        .ok()
        .and_then(|mut slots| slots.pop()?.ok()?.result)
        .expect("prove smoke: pipeline run failed");

    let mut failures = 0usize;
    if !res.degradations.is_empty() {
        eprintln!(
            "FAIL: untripped governor produced degradations: {:?}",
            res.degradations
        );
        failures += 1;
    }
    let shards = res.houdini_stats.shard_stats.len();
    if shards < 2 {
        eprintln!("FAIL: expected a multi-shard prove, got {shards} shard(s)");
        failures += 1;
    }
    let proved: Vec<(String, CandidateKind)> = res
        .proved_invariants
        .iter()
        .map(|c| (nl.net(c.net).name.clone(), c.kind))
        .collect();
    // Golden set: the key latch is stuck high, and with the key proved
    // the output mux always selects the real function `t`.
    let t = nl.find_net("t").expect("fixture net");
    let golden: Vec<(String, CandidateKind)> = vec![
        ("key".to_string(), CandidateKind::ConstTrue),
        ("out".to_string(), CandidateKind::EqualNet(t)),
    ];
    if proved != golden {
        eprintln!("FAIL: proved list diverged from golden");
        eprintln!("  golden: {golden:?}");
        eprintln!("  proved: {proved:?}");
        failures += 1;
    }
    println!(
        "prove smoke: {} invariant(s) proved across {} shards in {} rounds, {} solves",
        proved.len(),
        shards,
        res.houdini_stats.rounds,
        res.houdini_stats.iterations,
    );
    failures
}

fn main() {
    let failures = run(&keyed_design());
    if failures > 0 {
        eprintln!("prove smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("prove smoke: OK");
}
