//! Fault-injection smoke run for CI (tier-1).
//!
//! Drives the full PDAT pipeline on the keyed-design fixture under a
//! sweep of seeded [`FaultPlan`]s — forced solver exhaustion and
//! mid-simulation worker panics — and checks the robustness contract on
//! every one: the run completes without aborting the process, and the
//! proved set is a subset of the fault-free oracle's. A second phase
//! sweeps the same seeded plans (now including the service arms: worker
//! panic on pickup, deadline fuse, interrupted checkpoint) through a
//! [`pdat_serve::PdatService`] over the same fixture and checks the
//! service contract: every `Done` reply is bit-identical to the cold
//! oracle, and the snapshot on disk is never corrupted. Exits nonzero
//! on any violation.
//!
//! Usage: `fault_smoke [N_SEEDS]` (default 12).

use pdat::{
    load_cache_or_quarantine, run_pdat, run_pdat_cached, CandidateId, Environment, FaultPlan,
    LoadOutcome, PdatConfig, ProofCache,
};
use pdat_mc::CandidateKind;
use pdat_netlist::{CellKind, NetId, Netlist};
use pdat_serve::{OwnedEnvironment, PdatService, Reply, ServeConfig, ServeRequest};
use std::collections::HashSet;
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

fn config(fault_plan: FaultPlan) -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x5A0E,
        fault_plan,
        ..Default::default()
    }
}

fn main() {
    let n_seeds: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().unwrap_or(12))
        .unwrap_or(12);

    let nl = keyed_design();
    let oracle = run_pdat(&nl, &Environment::Unconstrained, &config(FaultPlan::default()))
        .expect("oracle run");
    assert!(oracle.proved >= 1, "oracle must prove the key invariant");
    assert!(oracle.degradations.is_empty(), "oracle must be fault-free");
    let oracle_set: HashSet<(NetId, CandidateKind)> = oracle
        .proved_invariants
        .iter()
        .map(|c| (c.net, c.kind))
        .collect();
    println!(
        "fault smoke: oracle proves {} invariant(s); sweeping {} fault seeds",
        oracle.proved, n_seeds
    );

    // Injected worker panics are expected; keep the log readable.
    std::panic::set_hook(Box::new(|_| {}));

    let mut injected = 0usize;
    let mut degraded = 0usize;
    for fault_seed in 0..n_seeds {
        let plan = FaultPlan::from_seed(fault_seed);
        if !plan.is_empty() {
            injected += 1;
        }
        let res = run_pdat(&nl, &Environment::Unconstrained, &config(plan.clone()))
            .expect("faulted run must return a result, not abort");
        let proved: HashSet<(NetId, CandidateKind)> = res
            .proved_invariants
            .iter()
            .map(|c| (c.net, c.kind))
            .collect();
        if !proved.is_subset(&oracle_set) {
            let _ = std::panic::take_hook();
            eprintln!("FAIL: fault seed {fault_seed} ({plan:?}) invented proofs");
            std::process::exit(1);
        }
        if let Err(e) = res.netlist.validate() {
            let _ = std::panic::take_hook();
            eprintln!("FAIL: fault seed {fault_seed} produced an invalid netlist: {e}");
            std::process::exit(1);
        }
        if !res.degradations.is_empty() {
            degraded += 1;
        }
    }
    // The seed derivation must exercise every arm — including the three
    // service arms — within a reasonable seed range, or the sweeps above
    // and below are weaker than they look.
    let mut arm_hits = [0usize; 5];
    for seed in 0..64 {
        let p = FaultPlan::from_seed(seed);
        arm_hits[0] += usize::from(p.solver_unknown_after_conflicts.is_some());
        arm_hits[1] += usize::from(p.sim_panic_at.is_some());
        arm_hits[2] += usize::from(p.io_fail_after_writes.is_some());
        arm_hits[3] += usize::from(p.worker_panic_on_request.is_some());
        arm_hits[4] += usize::from(p.deadline_fuse.is_some());
    }
    if arm_hits.contains(&0) {
        let _ = std::panic::take_hook();
        eprintln!("FAIL: from_seed never arms some fault arm in 64 seeds: {arm_hits:?}");
        std::process::exit(1);
    }

    // Service phase: the same seeded plans through a resident service.
    // Contract: every reply is typed; every Done reply equals the cold
    // oracle bit-for-bit; the snapshot survives interrupted checkpoints.
    let service_oracle: Vec<CandidateId> = run_pdat_cached(
        &nl,
        &Environment::Unconstrained,
        &[],
        &config(FaultPlan::default()),
        &ProofCache::new(),
    )
    .expect("service oracle run")
    .proved;
    let dir = std::env::temp_dir().join(format!("pdat_fault_smoke_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let cache_path = dir.join("cache.txt");
    let service_seeds = n_seeds.min(8);
    let mut served = 0u64;
    let mut service_panics = 0u64;
    for fault_seed in 0..service_seeds {
        let plan = FaultPlan::from_seed(fault_seed);
        let service = PdatService::start(
            nl.clone(),
            ServeConfig {
                workers: 2,
                retry_cap: 2,
                backoff_base: Duration::from_micros(100),
                cache_path: Some(cache_path.clone()),
                fault_plan: plan.clone(),
                pdat: config(FaultPlan::default()),
                ..Default::default()
            },
        )
        .expect("service boots on the keyed design");
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit(ServeRequest {
                        env: OwnedEnvironment::Unconstrained,
                        extras: Vec::new(),
                    })
                    .expect("admission")
            })
            .collect();
        for t in tickets {
            match t.wait() {
                Reply::Done(report) => {
                    served += 1;
                    if report.proved != service_oracle {
                        let _ = std::panic::take_hook();
                        eprintln!(
                            "FAIL: service seed {fault_seed} ({plan:?}) diverged from oracle"
                        );
                        std::process::exit(1);
                    }
                }
                other => {
                    let _ = std::panic::take_hook();
                    eprintln!(
                        "FAIL: service seed {fault_seed} ({plan:?}): reply {other:?} \
                         (faults are first-attempt-only, so retries must complete)"
                    );
                    std::process::exit(1);
                }
            }
        }
        service_panics += service.shutdown().worker_panics;
        if matches!(
            load_cache_or_quarantine(&ProofCache::new(), &cache_path),
            Ok(LoadOutcome::Quarantined { .. }) | Err(_)
        ) {
            let _ = std::panic::take_hook();
            eprintln!("FAIL: service seed {fault_seed} left a corrupt snapshot");
            std::process::exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let _ = std::panic::take_hook();
    println!(
        "fault smoke OK: {n_seeds} schedules ({injected} armed, {degraded} degraded), \
         every proved set within the oracle; service phase answered {served} request(s) \
         over {service_seeds} plans ({service_panics} panic(s) caught), all oracle-exact"
    );
}
