//! Satellite guarantee for the resource governor: starving any stage of
//! its budget may only *shrink* the proved set, never grow it, and the
//! pipeline always completes with a usable (if less optimized) result.
//!
//! Soundness argument (paper §VII-C): Houdini is monotone in its starting
//! candidate set, and dropping a candidate is always safe — the rewiring
//! stage simply has less to work with. A budget cut that conservatively
//! drops still-unproved candidates therefore yields proved ⊆ fault-free
//! proved.

mod common;

use common::keyed_design;
use pdat_repro::cores::build_ibex;
use pdat_repro::isa::RvSubset;
use pdat_repro::{
    run_pdat, Candidate, CandidateKind, Cause, ConstraintMode, Environment, PdatConfig, PdatResult,
};
use std::collections::HashSet;

type CandKey = (pdat_repro::netlist::NetId, CandidateKind);

fn proved_set(res: &PdatResult) -> HashSet<CandKey> {
    res.proved_invariants.iter().map(key).collect()
}

fn key(c: &Candidate) -> CandKey {
    (c.net, c.kind)
}

fn base_config() -> PdatConfig {
    PdatConfig {
        sim_cycles: 128,
        conflict_budget: Some(40_000),
        max_iterations: 1_000,
        seed: 0xB0D6,
        ..Default::default()
    }
}

#[test]
fn conflict_budget_one_is_subset_on_keyed_design() {
    let nl = keyed_design();
    let free = run_pdat(&nl, &Environment::Unconstrained, &base_config()).expect("pdat run");
    assert!(free.proved >= 1, "oracle run proves the key invariant");
    assert!(free.degradations.is_empty(), "oracle run is unbudgeted");

    let free_set = proved_set(&free);

    // One conflict per query: the prover's keyed-design queries may finish
    // on propagation alone, so this half only checks the subset bound.
    let one_cfg = PdatConfig {
        conflict_budget: Some(1),
        ..base_config()
    };
    let one = run_pdat(&nl, &Environment::Unconstrained, &one_cfg).expect("pdat run");
    assert!(
        proved_set(&one).is_subset(&free_set),
        "budget starvation must not invent proofs"
    );

    // No conflicts at all, globally: the prover cannot run a single query,
    // so the starved run proves strictly less.
    let starved_cfg = PdatConfig {
        conflict_budget: Some(1),
        global_conflict_budget: Some(0),
        ..base_config()
    };
    let starved = run_pdat(&nl, &Environment::Unconstrained, &starved_cfg).expect("pdat run");
    let starved_set = proved_set(&starved);
    assert!(
        starved_set.is_subset(&free_set),
        "budget starvation must not invent proofs"
    );
    assert!(
        starved_set.len() < free_set.len(),
        "expected a strict subset: {} vs {}",
        starved_set.len(),
        free_set.len()
    );
    // And the results are still valid, behaviour-preserving netlists.
    for res in [&one, &starved] {
        res.netlist.validate().expect("degraded netlist valid");
        assert!(res.optimized.gate_count <= res.baseline.gate_count + 2);
    }
}

/// The COI + preprocessing prover keeps the starvation guarantee: for any
/// global conflict budget, the proved set is a subset of the unbudgeted
/// fixpoint's, a budget of zero still completes with a valid netlist, and
/// every proof the budget cost is accounted for by a conflict-budget
/// event.
#[test]
fn starved_coi_proving_is_subset_of_unbudgeted() {
    let nl = keyed_design();
    let free = run_pdat(&nl, &Environment::Unconstrained, &base_config()).expect("pdat run");
    assert!(free.proved >= 1, "oracle run proves the key invariant");
    assert!(free.degradations.is_empty(), "oracle run is unbudgeted");
    let free_set = proved_set(&free);

    for budget in [0u64, 1, 3, 10] {
        let starved_cfg = PdatConfig {
            global_conflict_budget: Some(budget),
            ..base_config()
        };
        let starved = run_pdat(&nl, &Environment::Unconstrained, &starved_cfg).expect("pdat run");
        let starved_set = proved_set(&starved);
        assert!(
            starved_set.is_subset(&free_set),
            "budget={budget}: a starved COI prover must not invent proofs"
        );
        let recorded = starved
            .degradations
            .iter()
            .any(|e| e.cause == Cause::ConflictBudget);
        assert!(
            recorded || starved_set == free_set,
            "budget={budget}: starvation must be recorded: {:?}",
            starved.degradations
        );
        assert!(budget > 0 || recorded, "a zero budget always starves");
        starved.netlist.validate().expect("degraded netlist valid");
    }
}

#[test]
fn zero_cycle_budget_drops_everything_but_completes() {
    let nl = keyed_design();
    let free = run_pdat(&nl, &Environment::Unconstrained, &base_config()).expect("pdat run");
    assert!(free.proved >= 1);

    let cfg = PdatConfig {
        global_cycle_budget: Some(0),
        ..base_config()
    };
    let starved = run_pdat(&nl, &Environment::Unconstrained, &cfg).expect("pdat run");
    assert_eq!(
        starved.sim_survivors, 0,
        "no simulation budget means no vetted candidates"
    );
    assert_eq!(starved.proved, 0);
    assert!(
        starved
            .degradations
            .iter()
            .any(|e| e.cause == Cause::CycleBudget),
        "the cut must be recorded: {:?}",
        starved.degradations
    );
    // Degradation is strict: the free run proves a nonempty set.
    assert!(proved_set(&starved).is_subset(&proved_set(&free)));
    starved.netlist.validate().expect("degraded netlist valid");
}

#[test]
fn conflict_budget_one_is_subset_on_ibex() {
    let core = build_ibex();
    let subset = RvSubset::rv32i();
    let env = Environment::Rv {
        subset: &subset,
        ports: vec![core.cut_fetch.clone()],
        mode: ConstraintMode::CutpointBased,
    };
    let free = run_pdat(&core.netlist, &env, &base_config()).expect("pdat run");
    assert!(free.proved >= 1, "oracle proves invariants on ibex");

    let starved_cfg = PdatConfig {
        conflict_budget: Some(1),
        ..base_config()
    };
    let starved = run_pdat(&core.netlist, &env, &starved_cfg).expect("pdat run");
    let free_set = proved_set(&free);
    let starved_set = proved_set(&starved);
    assert!(
        starved_set.is_subset(&free_set),
        "ibex: starved proofs must be a subset"
    );
    assert!(
        starved_set.len() < free_set.len(),
        "ibex: expected strict shrinkage, both {}",
        free_set.len()
    );
    starved.netlist.validate().expect("degraded netlist valid");
}

#[test]
fn global_conflict_budget_degrades_with_event() {
    let nl = keyed_design();
    let cfg = PdatConfig {
        global_conflict_budget: Some(0),
        ..base_config()
    };
    let res = run_pdat(&nl, &Environment::Unconstrained, &cfg).expect("pdat run");
    assert_eq!(res.proved, 0);
    assert!(
        res.degradations
            .iter()
            .any(|e| e.cause == Cause::ConflictBudget),
        "global conflict exhaustion must be recorded: {:?}",
        res.degradations
    );
    res.netlist.validate().expect("degraded netlist valid");
}
