//! Chaos/soak property test for the PDAT service.
//!
//! For *any* seeded fault schedule (worker panics on pickup, deadline
//! fuses, forced solver unknowns, mid-simulation panics, interrupted
//! checkpoints) and any scheduling seed, every reply out of a
//! [`PdatService`] must be either
//!
//! - `Done` with a proved set bit-identical to the unfaulted cold
//!   oracle of the same request, or
//! - a clean typed error (`Rejected` for the malformed request).
//!
//! Nothing in between: a fault may cost a retry, never change an
//! answer, and never wedge, crash, or corrupt the snapshot on disk.

mod common;

use common::{detector_core, quietly};
use pdat_repro::isa::rv32::RvInstr;
use pdat_repro::isa::RvSubset;
use pdat_repro::netlist::NetId;
use pdat_repro::{
    load_cache_or_quarantine, run_pdat_cached, save_cache_with_faults, CandidateId, ConstraintMode,
    Environment, FaultPlan, LoadOutcome, OwnedEnvironment, PdatConfig, PdatError, PdatService,
    ProofCache, Reply, ServeConfig, ServeRequest, ServiceStats,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

/// The detector fixture watching Add and Jalr: two detectors with
/// sticky latches, a lighter cut of the `cache_soundness` one.
const WATCHED: [RvInstr; 2] = [RvInstr::Add, RvInstr::Jalr];

fn base_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xC4A05,
        ..Default::default()
    }
}

fn subsets() -> Vec<RvSubset> {
    let mut no_add = RvSubset::rv32i();
    no_add.instrs.remove(&RvInstr::Add);
    no_add.name = "no-add".to_string();
    let mut no_jalr = RvSubset::rv32i();
    no_jalr.instrs.remove(&RvInstr::Jalr);
    no_jalr.name = "no-jalr".to_string();
    vec![RvSubset::rv32i(), no_add, no_jalr]
}

fn request_for(slot: usize, port: &[NetId]) -> ServeRequest {
    ServeRequest {
        env: OwnedEnvironment::Rv {
            subset: subsets()[slot].clone(),
            ports: vec![port.to_vec()],
            mode: ConstraintMode::PortBased,
        },
        extras: Vec::new(),
    }
}

/// Cold, unfaulted oracle per subset slot — computed once per process.
fn oracles() -> &'static Vec<Vec<CandidateId>> {
    static ORACLES: OnceLock<Vec<Vec<CandidateId>>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        let (nl, port) = detector_core(&WATCHED);
        subsets()
            .iter()
            .map(|s| {
                let env = Environment::Rv {
                    subset: s,
                    ports: vec![port.to_vec()],
                    mode: ConstraintMode::PortBased,
                };
                run_pdat_cached(&nl, &env, &[], &base_config(), &ProofCache::new())
                    .expect("oracle run")
                    .proved
            })
            .collect()
    })
}

/// A fresh directory for one test, unique to this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdat_serve_chaos_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One service round: boot over `cache_path` under `plan`, push eight
/// requests (request 5 malformed) through it, shut down, and check the
/// contract — every reply is `Done` with the oracle's exact proved set
/// or the malformed request's typed rejection, and the snapshot left on
/// disk loads without quarantine (or is absent, if every save was torn).
/// The scheduling seed picks the pool size, the backoff, the backoff
/// jitter and the checkpoint period (none, or 1–20 ms). Returns the boot
/// and the final stats.
fn serve_round(
    plan: &FaultPlan,
    sched_seed: u64,
    cache_path: &Path,
) -> Result<(ServiceStats, ServiceStats), TestCaseError> {
    let (nl, port) = detector_core(&WATCHED);
    // An internal net, for building a malformed request.
    let internal = nl.find_net("jalr_sticky").expect("fixture net");
    let oracle = oracles();
    let checkpoint_every = match (sched_seed >> 16) % 21 {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let (boot, stats, replies) = quietly(|| {
        let service = PdatService::start(
            nl,
            ServeConfig {
                workers: 1 + (sched_seed % 3) as usize,
                queue_depth: 32,
                retry_cap: 2,
                backoff_base: Duration::from_micros(50 + sched_seed % 200),
                seed: sched_seed,
                cache_path: Some(cache_path.to_path_buf()),
                checkpoint_every,
                fault_plan: plan.clone(),
                pdat: base_config(),
                ..Default::default()
            },
        )
        .expect("service boots");
        let boot = service.stats();
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let req = if i == 5 {
                    // Constraint nets that are not free analysis
                    // variables: must answer Rejected, not sink the pool.
                    ServeRequest {
                        env: OwnedEnvironment::Rv {
                            subset: RvSubset::rv32i(),
                            ports: vec![vec![internal; 32]],
                            mode: ConstraintMode::PortBased,
                        },
                        extras: Vec::new(),
                    }
                } else {
                    request_for(i % 3, &port)
                };
                (i, service.submit(req).expect("admission"))
            })
            .collect();
        let replies: Vec<(usize, Reply)> =
            tickets.into_iter().map(|(i, t)| (i, t.wait())).collect();
        (boot, service.shutdown(), replies)
    });
    prop_assert!(!boot.cache_quarantined, "boot quarantined a snapshot");
    prop_assert_eq!(stats.admitted, 8);
    prop_assert_eq!(
        stats.replies_done + stats.replies_rejected + stats.replies_exhausted,
        8,
        "every admitted request must be answered"
    );
    for (i, reply) in replies {
        match reply {
            Reply::Done(report) => {
                prop_assert!(i != 5, "the malformed request must not answer Done");
                prop_assert_eq!(
                    &report.proved,
                    &oracle[i % 3],
                    "fault schedule {:?} changed request {}'s answer",
                    plan,
                    i
                );
            }
            Reply::Rejected(e) => {
                prop_assert_eq!(i, 5, "well-formed request {} rejected: {}", i, e);
                prop_assert!(matches!(e, PdatError::UnboundConstraintNet { .. }));
            }
            other => {
                // Fault arms are first-attempt-only and retry_cap is
                // 2, so exhaustion/shutdown would be a liveness bug.
                return Err(TestCaseError::Fail(format!(
                    "request {i} under {plan:?} answered {other:?}"
                )));
            }
        }
    }
    // Whatever the plan did to checkpoints, the snapshot on disk reloads
    // cleanly or is absent — never quarantined.
    match load_cache_or_quarantine(&ProofCache::new(), cache_path) {
        Ok(LoadOutcome::Loaded(_) | LoadOutcome::ColdStart) => {}
        other => {
            return Err(TestCaseError::Fail(format!(
                "snapshot after {plan:?} did not reload cleanly: {other:?}"
            )))
        }
    }
    Ok((boot, stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any (fault schedule, scheduling seed): every reply is Done
    /// with the oracle's exact proved set, or the malformed request's
    /// typed rejection. The pool survives whatever the plan injects, and
    /// the checkpointer never corrupts the snapshot.
    #[test]
    fn every_reply_is_oracle_exact_or_a_typed_error(
        fault_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let dir = scratch_dir(&format!("{fault_seed:x}_{sched_seed:x}"));
        serve_round(&FaultPlan::from_seed(fault_seed), sched_seed, &dir.join("cache.txt"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The first seed in `0..256` whose plan `armed` accepts.
fn first_seed(armed: impl Fn(&FaultPlan) -> bool) -> u64 {
    (0..256u64)
        .find(|&s| armed(&FaultPlan::from_seed(s)))
        .expect("from_seed arms every arm below 256")
}

/// Every service arm through one snapshot path, round after round: the
/// first seeds that arm an interrupted checkpoint, a worker panic and a
/// deadline fuse, then a clean seed. A panic is caught, an attempt is
/// retried, a checkpoint is torn and another saves, and a later round
/// boots warm off an earlier round's snapshot without ever quarantining
/// it.
#[test]
fn every_service_arm_keeps_the_contract_on_one_snapshot() {
    let mut seeds = vec![
        first_seed(|p| p.io_fail_after_writes.is_some()),
        first_seed(|p| p.worker_panic_on_request.is_some()),
        first_seed(|p| p.deadline_fuse.is_some()),
    ];
    seeds.sort_unstable();
    seeds.dedup();
    seeds.push(first_seed(FaultPlan::is_empty));

    let dir = scratch_dir("arms");
    let path = dir.join("cache.txt");
    let mut total = ServiceStats::default();
    let mut warm_boot = false;
    for (round, &seed) in (0u64..).zip(&seeds) {
        // Round r: 1 + r % 3 workers and a checkpoint every r + 1 ms.
        let sched_seed = (round + 1) << 16 | round;
        let (boot, stats) = serve_round(&FaultPlan::from_seed(seed), sched_seed, &path)
            .unwrap_or_else(|e| panic!("round {round} (fault seed {seed}): {e:?}"));
        warm_boot |= boot.cache_entries_loaded > 0;
        total.worker_panics += stats.worker_panics;
        total.retries += stats.retries;
        total.checkpoints_ok += stats.checkpoints_ok;
        total.checkpoints_failed += stats.checkpoints_failed;
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        total.worker_panics >= 1,
        "a worker panic was injected and caught"
    );
    assert!(total.retries >= 1, "a faulted attempt was retried");
    assert!(total.checkpoints_failed >= 1, "a checkpoint was torn");
    assert!(total.checkpoints_ok >= 1, "a checkpoint saved cleanly");
    assert!(warm_boot, "a later round booted warm off a saved snapshot");
}

/// The pipeline arms fire only inside a solve, so each runs alone, as
/// drawn by the first seed that arms it, on a cold snapshot of its own:
/// the falsifier panic and the forced solver unknown each degrade a first
/// attempt, which is retried, and every answer still matches the oracle.
/// An unarmed round on the same fixture retries nothing, so each retry is
/// the arm's.
#[test]
fn pipeline_arms_fire_on_a_cold_snapshot_and_are_retried() {
    let dir = scratch_dir("pipeline_arms");
    let sim = FaultPlan::from_seed(first_seed(|p| p.sim_panic_at.is_some())).sim_panic_at;
    let solver = FaultPlan::from_seed(first_seed(|p| p.solver_unknown_after_conflicts.is_some()))
        .solver_unknown_after_conflicts;
    let arms = [
        ("unarmed", FaultPlan::default()),
        (
            "sim_panic_at",
            FaultPlan {
                sim_panic_at: sim,
                ..FaultPlan::default()
            },
        ),
        (
            "solver_unknown_after_conflicts",
            FaultPlan {
                solver_unknown_after_conflicts: solver,
                ..FaultPlan::default()
            },
        ),
    ];
    for (round, (name, plan)) in (0u64..).zip(arms) {
        let path = dir.join(format!("{name}.txt"));
        let (boot, stats) =
            serve_round(&plan, round, &path).unwrap_or_else(|e| panic!("{name} ({plan:?}): {e:?}"));
        assert_eq!(boot.cache_entries_loaded, 0, "{name} boots cold");
        if plan.is_empty() {
            assert_eq!(stats.retries, 0, "a clean round retried: {stats:?}");
        } else {
            assert!(
                stats.retries >= 1,
                "{name} ({plan:?}) never fired: {stats:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Booting over a corrupt snapshot quarantines it (service starts cold
/// and keeps answering), and the next clean shutdown re-persists a
/// loadable snapshot in its place.
#[test]
fn corrupt_snapshot_is_quarantined_and_replaced() {
    let dir = scratch_dir("boot");
    let path = dir.join("cache.txt");
    std::fs::write(&path, "pdat-proof-cache v1\nrun zz zz\n").expect("write corrupt file");

    let (nl, port) = detector_core(&WATCHED);
    let service = PdatService::start(
        nl.clone(),
        ServeConfig {
            cache_path: Some(path.clone()),
            pdat: base_config(),
            ..Default::default()
        },
    )
    .expect("service boots over a corrupt snapshot");
    let boot = service.stats();
    assert!(
        boot.cache_quarantined,
        "corrupt snapshot must be quarantined"
    );
    assert_eq!(boot.cache_entries_loaded, 0);
    let mut quarantine = path.clone().into_os_string();
    quarantine.push(".quarantine");
    assert!(
        std::path::Path::new(&quarantine).exists(),
        "the corrupt bytes must be preserved for forensics"
    );

    let t = service.submit(request_for(0, &port)).expect("admission");
    assert!(t.wait().is_done(), "a quarantined boot still serves");
    let stats = service.shutdown();
    assert!(stats.checkpoints_ok >= 1, "shutdown re-persists the cache");

    // The replacement snapshot is loadable and warms the next boot.
    let reboot = PdatService::start(
        nl,
        ServeConfig {
            cache_path: Some(path.clone()),
            pdat: base_config(),
            ..Default::default()
        },
    )
    .expect("reboot");
    assert!(reboot.stats().cache_entries_loaded >= 1);
    drop(reboot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A save interrupted at every possible write boundary leaves the
/// previous snapshot fully loadable — the service's checkpointer can
/// die mid-save at any point without losing the cache.
#[test]
fn interrupted_checkpoint_never_corrupts_the_snapshot() {
    let dir = scratch_dir("io");
    let path = dir.join("cache.txt");

    let (nl, port) = detector_core(&WATCHED);
    // Populate a one-entry cache through the pipeline and snapshot it.
    let old = ProofCache::new();
    let env0 = Environment::Rv {
        subset: &subsets()[0],
        ports: vec![port.to_vec()],
        mode: ConstraintMode::PortBased,
    };
    run_pdat_cached(&nl, &env0, &[], &base_config(), &old).expect("seed run");
    save_cache_with_faults(&old, &path, None).expect("baseline save");

    // A richer cache whose save we interrupt at every write boundary.
    let new = ProofCache::new();
    for s in subsets() {
        let env = Environment::Rv {
            subset: &s,
            ports: vec![port.to_vec()],
            mode: ConstraintMode::PortBased,
        };
        run_pdat_cached(&nl, &env, &[], &base_config(), &new).expect("grow run");
    }
    assert!(new.len() > old.len());

    for fail_after in 0..10u64 {
        let saved = save_cache_with_faults(&new, &path, Some(fail_after));
        let reloaded = ProofCache::new();
        match load_cache_or_quarantine(&reloaded, &path).expect("load never errors") {
            LoadOutcome::Loaded(n) => {
                if saved.is_ok() {
                    assert_eq!(n, new.len(), "complete save must be visible");
                } else {
                    assert_eq!(n, old.len(), "torn save must leave the old snapshot");
                }
            }
            other => panic!("snapshot corrupted at fail_after={fail_after}: {other:?}"),
        }
        // Re-arm the baseline for the next interruption point if the
        // new snapshot landed.
        if saved.is_ok() {
            save_cache_with_faults(&old, &path, None).expect("re-arm baseline");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
