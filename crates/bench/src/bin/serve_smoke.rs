//! Service smoke run for CI (tier-1).
//!
//! Boots [`PdatService`] on the detector fixture and pushes ~50 seeded
//! requests through it across four rounds, each round armed with a
//! different [`FaultPlan`] (worker panic, deadline fuse, interrupted
//! checkpoint, clean), checking the service soundness contract on every
//! reply:
//!
//! - a `Done` reply is bit-identical to the unfaulted cold oracle for
//!   that subset — faults may delay an answer, never change it;
//! - a malformed request answers `Rejected`, and nothing else does;
//! - the worker pool survives injected panics (respawn counted);
//! - the cache snapshot on disk reloads cleanly (or is absent) after
//!   every round — an interrupted checkpoint never corrupts it.
//!
//! Exits nonzero on any violation.

use pdat::{
    load_cache_or_quarantine, run_pdat_cached, CandidateId, ConstraintMode, Environment,
    FaultPlan, LoadOutcome, PdatConfig, ProofCache,
};
use pdat_isa::rv32::RvInstr;
use pdat_isa::RvSubset;
use pdat_netlist::{CellKind, NetId, Netlist};
use pdat_serve::{OwnedEnvironment, PdatService, Reply, ServeConfig, ServeRequest};
use std::time::Duration;

/// Exact-pattern detectors + sticky latches for three instructions on a
/// 32-bit instruction port (the `cache_smoke` fixture), plus one internal
/// net for building a deliberately malformed request.
fn detector_core() -> (Netlist, Vec<NetId>, NetId) {
    let mut nl = Netlist::new("rvdet");
    let port: Vec<NetId> = (0..32).map(|b| nl.add_input(format!("i{b}"))).collect();
    let mut internal = port[0];
    for instr in [RvInstr::Add, RvInstr::Sub, RvInstr::Jalr] {
        let p = instr.pattern();
        let tag = format!("{instr:?}").to_lowercase();
        let mut acc: Option<NetId> = None;
        for (b, &pin) in port.iter().enumerate() {
            if p.mask >> b & 1 == 0 {
                continue;
            }
            let bit = if p.value >> b & 1 == 1 {
                pin
            } else {
                nl.add_cell(CellKind::Inv, &[pin], format!("{tag}_n{b}"))
            };
            acc = Some(match acc {
                None => bit,
                Some(a) => nl.add_cell(CellKind::And2, &[a, bit], format!("{tag}_a{b}")),
            });
        }
        let det = acc.expect("pattern has masked bits");
        let fb = nl.add_net(format!("{tag}_fb"));
        let q = nl.add_dff(fb, false, format!("{tag}_seen"));
        let sticky = nl.add_cell(CellKind::Or2, &[q, det], format!("{tag}_sticky"));
        nl.assign_alias(fb, sticky);
        nl.add_output(format!("saw_{tag}"), sticky);
        internal = sticky;
    }
    (nl, port, internal)
}

fn config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0x5EB5,
        ..Default::default()
    }
}

fn subset(name: &str, remove: &[RvInstr]) -> RvSubset {
    let mut s = RvSubset::rv32i();
    for i in remove {
        s.instrs.remove(i);
    }
    s.name = name.to_string();
    s
}

fn request(s: &RvSubset, port: &[NetId]) -> ServeRequest {
    ServeRequest {
        env: OwnedEnvironment::Rv {
            subset: s.clone(),
            ports: vec![port.to_vec()],
            mode: ConstraintMode::PortBased,
        },
        extras: Vec::new(),
    }
}

/// A request whose constraint nets are not free analysis variables —
/// must answer `Rejected(UnboundConstraintNet)`, never sink the pool.
fn malformed_request(internal: NetId) -> ServeRequest {
    ServeRequest {
        env: OwnedEnvironment::Rv {
            subset: RvSubset::rv32i(),
            ports: vec![vec![internal; 32]],
            mode: ConstraintMode::PortBased,
        },
        extras: Vec::new(),
    }
}

/// Pick deterministic fault seeds covering each service arm, plus one
/// clean round (ordered so a clean final save precedes a loaded boot).
fn round_plans() -> Vec<(String, FaultPlan)> {
    let mut io = None;
    let mut panic_arm = None;
    let mut fuse = None;
    for seed in 0..256u64 {
        let p = FaultPlan::from_seed(seed);
        if io.is_none() && p.io_fail_after_writes.is_some() {
            io = Some((format!("seed {seed} (io)"), p));
        } else if panic_arm.is_none() && p.worker_panic_on_request.is_some() {
            panic_arm = Some((format!("seed {seed} (panic)"), p));
        } else if fuse.is_none() && p.deadline_fuse.is_some() {
            fuse = Some((format!("seed {seed} (fuse)"), p));
        }
        if io.is_some() && panic_arm.is_some() && fuse.is_some() {
            break;
        }
    }
    let mut rounds: Vec<(String, FaultPlan)> =
        [io, panic_arm, fuse].into_iter().flatten().collect();
    rounds.push(("clean".to_string(), FaultPlan::default()));
    rounds
}

fn main() {
    let (nl, port, internal) = detector_core();
    let subsets = [
        subset("full", &[]),
        subset("no-add", &[RvInstr::Add]),
        subset("no-addsub", &[RvInstr::Add, RvInstr::Sub]),
        subset("no-jalr", &[RvInstr::Jalr]),
    ];

    // Cold, unfaulted oracle per subset: the answer every Done reply
    // must reproduce bit-for-bit.
    let oracles: Vec<Vec<CandidateId>> = subsets
        .iter()
        .map(|s| {
            let env = Environment::Rv {
                subset: s,
                ports: vec![port.to_vec()],
                mode: ConstraintMode::PortBased,
            };
            run_pdat_cached(&nl, &env, &[], &config(), &ProofCache::new())
                .expect("oracle run")
                .proved
        })
        .collect();
    assert!(
        oracles[2].len() > oracles[0].len(),
        "fixture must be subset-sensitive"
    );

    let dir = std::env::temp_dir().join(format!("pdat_serve_smoke_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let cache_path = dir.join("serve_cache.txt");

    // Injected worker panics are expected; keep the log readable.
    std::panic::set_hook(Box::new(|_| {}));

    let mut failures = 0usize;
    let mut total_requests = 0usize;
    let mut total_done = 0u64;
    let mut total_panics = 0u64;
    let mut total_respawned = 0u64;
    let mut total_retries = 0u64;
    let mut total_checkpoints_ok = 0u64;
    let mut any_warm_boot = false;

    let rounds = round_plans();
    const PER_ROUND: usize = 13;
    const MALFORMED_AT: usize = 6;
    for (label, plan) in &rounds {
        let service = match PdatService::start(
            nl.clone(),
            ServeConfig {
                workers: 3,
                queue_depth: 64,
                retry_cap: 2,
                backoff_base: Duration::from_micros(200),
                cache_path: Some(cache_path.clone()),
                checkpoint_every: Some(Duration::from_millis(25)),
                fault_plan: plan.clone(),
                pdat: config(),
                ..Default::default()
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: round {label}: service did not boot: {e}");
                failures += 1;
                continue;
            }
        };
        let boot = service.stats();
        if boot.cache_quarantined {
            eprintln!("FAIL: round {label}: boot quarantined a snapshot written by a clean save");
            failures += 1;
        }
        any_warm_boot |= boot.cache_entries_loaded > 0;

        let mut tickets = Vec::new();
        for i in 0..PER_ROUND {
            let req = if i == MALFORMED_AT {
                malformed_request(internal)
            } else {
                request(&subsets[i % subsets.len()], &port)
            };
            match service.submit(req) {
                Ok(t) => tickets.push((i, t)),
                Err(e) => {
                    eprintln!("FAIL: round {label}: request {i} refused admission: {e}");
                    failures += 1;
                }
            }
        }
        total_requests += PER_ROUND;

        for (i, ticket) in tickets {
            match ticket.wait() {
                Reply::Done(report) => {
                    if i == MALFORMED_AT {
                        eprintln!("FAIL: round {label}: malformed request {i} answered Done");
                        failures += 1;
                    } else if report.proved != oracles[i % subsets.len()] {
                        eprintln!(
                            "FAIL: round {label}: request {i} diverged from its oracle \
                             ({} vs {} proved)",
                            report.proved.len(),
                            oracles[i % subsets.len()].len()
                        );
                        failures += 1;
                    } else {
                        total_done += 1;
                    }
                }
                Reply::Rejected(e) => {
                    if i != MALFORMED_AT {
                        eprintln!("FAIL: round {label}: well-formed request {i} rejected: {e}");
                        failures += 1;
                    }
                }
                Reply::Exhausted {
                    attempts,
                    last_cause,
                } => {
                    // Fault arms fire on first attempts only, so with a
                    // retry in hand every request must complete.
                    eprintln!(
                        "FAIL: round {label}: request {i} exhausted after {attempts} \
                         attempt(s) ({last_cause})"
                    );
                    failures += 1;
                }
                Reply::ShutDown => {
                    eprintln!("FAIL: round {label}: request {i} answered ShutDown while serving");
                    failures += 1;
                }
            }
        }

        let stats = service.shutdown();
        total_panics += stats.worker_panics;
        total_respawned += stats.workers_respawned;
        total_retries += stats.retries;
        total_checkpoints_ok += stats.checkpoints_ok;

        // Whatever the fault plan did to checkpoints, the snapshot on
        // disk must reload cleanly or be absent — never quarantined.
        match load_cache_or_quarantine(&ProofCache::new(), &cache_path) {
            Ok(LoadOutcome::Quarantined { .. }) => {
                eprintln!("FAIL: round {label}: snapshot corrupted by an interrupted save");
                failures += 1;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("FAIL: round {label}: snapshot unreadable: {e}");
                failures += 1;
            }
        }
    }
    let _ = std::panic::take_hook();

    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("  ok: {what}");
        } else {
            eprintln!("  FAIL: {what}");
            failures += 1;
        }
    };
    check(total_panics >= 1, "a worker panic was injected and caught");
    check(total_respawned >= 1, "the supervisor respawned a worker");
    check(total_retries >= 1, "a faulted attempt was retried");
    check(total_checkpoints_ok >= 1, "at least one checkpoint saved cleanly");
    check(any_warm_boot, "a later round booted warm off a saved snapshot");

    let _ = std::fs::remove_dir_all(&dir);
    if failures > 0 {
        eprintln!("serve smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!(
        "serve smoke: OK — {} requests over {} rounds ({} done, {} panics caught, \
         {} respawns, {} retries)",
        total_requests,
        rounds.len(),
        total_done,
        total_panics,
        total_respawned,
        total_retries
    );
}
