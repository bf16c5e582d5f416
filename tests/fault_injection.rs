//! Fault-injection harness for the governed PDAT pipeline.
//!
//! The governor carries a deterministic [`FaultPlan`] that can force SAT
//! queries inconclusive or panic a simulation worker at a chosen (chunk,
//! cycle). For *any* injected fault schedule the pipeline must either
//! return a clean [`PdatError`] or complete with a [`PdatResult`] whose
//! proved set is a subset of the fault-free run's proved set — faults
//! degrade the result, they never corrupt it.

mod common;

use common::{keyed_design, quietly};
use pdat_repro::netlist::{CellKind, Netlist};
use pdat_repro::{run_pdat, Candidate, CandidateKind, Cause, Environment, FaultPlan, PdatConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Duration;

type CandKey = (pdat_repro::netlist::NetId, CandidateKind);

fn key(c: &Candidate) -> CandKey {
    (c.net, c.kind)
}

fn config_with(fault_plan: FaultPlan) -> PdatConfig {
    PdatConfig {
        sim_cycles: 64,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xFA17,
        fault_plan,
        ..Default::default()
    }
}

/// The fault-free proved set, computed once. The oracle run must itself be
/// un-degraded so that its proved set is the greatest inductive subset —
/// the reference every faulted run is compared against.
fn oracle() -> &'static HashSet<CandKey> {
    static ORACLE: OnceLock<HashSet<CandKey>> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let res = run_pdat(
            &keyed_design(),
            &Environment::Unconstrained,
            &config_with(FaultPlan::default()),
        )
        .expect("pdat run");
        assert!(res.proved >= 1, "oracle proves the key invariant");
        assert!(res.degradations.is_empty(), "oracle run is fault-free");
        assert!(res.houdini_stats.dropped_by_budget == 0);
        res.proved_invariants.iter().map(key).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any seeded fault schedule: the run completes (no process abort,
    /// no panic escaping the library), and its proved set is a subset of
    /// the fault-free proved set. Faulted runs are also deterministic:
    /// the same plan yields the same result.
    #[test]
    fn any_fault_schedule_degrades_soundly(fault_seed in any::<u64>()) {
        let plan = FaultPlan::from_seed(fault_seed);
        let nl = keyed_design();
        let run = || {
            run_pdat(&nl, &Environment::Unconstrained, &config_with(plan.clone()))
                .expect("valid netlist never yields Err, faults or not")
        };
        let (first, second) = quietly(|| (run(), run()));

        let proved: HashSet<CandKey> = first.proved_invariants.iter().map(key).collect();
        prop_assert!(
            proved.is_subset(oracle()),
            "fault plan {plan:?} invented proofs"
        );
        if !plan.is_empty() && !first.degradations.is_empty() {
            prop_assert!(proved.len() < oracle().len() || first.proved == oracle().len());
        }
        first.netlist.validate().expect("degraded netlist still valid");

        // Determinism: FaultPlan cuts are data-driven, not time-driven.
        let reproved: HashSet<CandKey> = second.proved_invariants.iter().map(key).collect();
        prop_assert_eq!(&proved, &reproved);
        prop_assert_eq!(&first.degradations, &second.degradations);
        prop_assert_eq!(first.sim_survivors, second.sim_survivors);
    }
}

#[test]
fn panicking_sim_worker_does_not_abort_the_process() {
    let plan = FaultPlan {
        sim_panic_at: Some((0, 0)),
        ..Default::default()
    };
    let res = quietly(|| {
        run_pdat(
            &keyed_design(),
            &Environment::Unconstrained,
            &config_with(plan),
        )
        .expect("pdat run")
    });
    assert!(
        res.degradations
            .iter()
            .any(|e| e.cause == Cause::WorkerPanic),
        "the isolated panic must be reported: {:?}",
        res.degradations
    );
    res.netlist.validate().expect("degraded netlist valid");
    // The panicked chunk dropped its candidates; other chunks may still
    // falsify, but nothing unvetted reaches the prover.
    let proved: HashSet<CandKey> = res.proved_invariants.iter().map(key).collect();
    assert!(proved.is_subset(oracle()));
}

#[test]
fn deadline_in_the_past_returns_partial_result() {
    let cfg = PdatConfig {
        deadline: Some(Duration::ZERO),
        ..config_with(FaultPlan::default())
    };
    let res = run_pdat(&keyed_design(), &Environment::Unconstrained, &cfg).expect("pdat run");
    assert_eq!(res.proved, 0, "nothing can be vetted with no time at all");
    assert!(
        res.degradations.iter().any(|e| e.cause == Cause::Deadline),
        "the deadline cut must be recorded: {:?}",
        res.degradations
    );
    res.netlist.validate().expect("degraded netlist valid");
}

#[test]
fn solver_fault_reports_conflict_budget_cause() {
    let plan = FaultPlan {
        solver_unknown_after_conflicts: Some(0),
        ..Default::default()
    };
    let res = quietly(|| {
        run_pdat(
            &keyed_design(),
            &Environment::Unconstrained,
            &config_with(plan),
        )
        .expect("pdat run")
    });
    assert_eq!(res.proved, 0);
    assert!(
        res.degradations
            .iter()
            .any(|e| e.cause == Cause::ConflictBudget),
        "forced solver exhaustion must be recorded: {:?}",
        res.degradations
    );
}

#[test]
fn invalid_netlist_is_a_clean_error() {
    // An undriven internal net fails validation up front.
    let mut nl = Netlist::new("broken");
    let a = nl.add_input("a");
    let dangling = nl.add_net("dangling");
    let y = nl.add_cell(CellKind::And2, &[a, dangling], "y");
    nl.add_output("y", y);
    let err = run_pdat(
        &nl,
        &Environment::Unconstrained,
        &config_with(FaultPlan::default()),
    )
    .expect_err("undriven net must be rejected");
    assert!(err.to_string().contains("invalid netlist"), "got: {err}");
}
