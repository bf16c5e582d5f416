//! The PDAT invariant engine: the reproduction's stand-in for a commercial
//! property checker (the paper uses Mentor Questa Formal).
//!
//! Given a netlist-derived sequential [`pdat_aig::Aig`], an environment
//! constraint (a literal that must hold on every cycle), and a set of
//! per-gate candidate invariants from the Property Library, the engine
//! returns the subset of candidates *proved* to hold on every constrained
//! execution:
//!
//! 1. **Falsification** — bit-parallel constrained random simulation kills
//!    most candidates cheaply ([`simulate_filter_governed`]; the scalar
//!    [`simulate_filter_reference`] is the oracle it is tested against).
//! 2. **Proof** — a Houdini-style mutual-induction fixpoint proves the
//!    survivors ([`houdini_prove_warm_governed`]). The base case asks SAT
//!    for a constrained reset state violating any candidate and drops
//!    everything falsified until the query is UNSAT. Consecution then
//!    assumes all remaining candidates at frame 0 (plus the environment
//!    constraint at both frames), asks SAT for a violation of any
//!    candidate at frame 1, drops everything falsified, and repeats. When
//!    that query is UNSAT the remaining set holds at reset and is
//!    inductive, so every survivor holds on all constrained executions.
//!
//! Resource exhaustion (conflict budgets) only ever *drops* candidates:
//! exactly the paper's observation (§VII-C) that inconclusive analyses are
//! safe and merely reduce optimization.

mod candidates;
mod houdini;
mod sim_filter;

pub use candidates::{candidates_for_netlist, Candidate, CandidateId, CandidateKind};
pub use houdini::{
    houdini_prove_warm_governed, HoudiniConfig, HoudiniStats, ProveConfig, ShardStats,
};
pub use sim_filter::{
    simulate_filter_governed, simulate_filter_reference, SimFilterConfig, SimFilterStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_aig::{netlist_to_aig, AigLit};
    use pdat_aig::{Aig, NetlistAig};
    use pdat_governor::Governor;
    use pdat_netlist::{CellKind, Netlist};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn falsify(
        na: &NetlistAig,
        constraint: AigLit,
        candidates: &[Candidate],
        config: &SimFilterConfig,
        stimulus: &(dyn Fn(&mut StdRng, &mut [u64]) + Sync),
        seed: u64,
    ) -> Vec<Candidate> {
        let gov = Governor::unlimited();
        simulate_filter_governed(na, constraint, candidates, config, stimulus, seed, &gov).0
    }

    fn prove(
        aig: &Aig,
        constraint: AigLit,
        na: &NetlistAig,
        candidates: &[Candidate],
        config: &HoudiniConfig,
    ) -> (Vec<Candidate>, HoudiniStats) {
        let gov = Governor::unlimited();
        let (proved, stats, _) =
            houdini_prove_warm_governed(aig, constraint, na, candidates, &[], config, &gov);
        (proved, stats)
    }

    /// A design with a genuinely constant gate: a latch that never leaves
    /// its reset value drives an AND with a free input.
    fn keyed_design() -> (Netlist, pdat_netlist::NetId, pdat_netlist::NetId) {
        let mut nl = Netlist::new("keyed");
        let a = nl.add_input("a");
        let fb = nl.add_net("k_fb");
        let key = nl.add_dff(fb, false, "key"); // stuck at 0
        nl.assign_alias(fb, key);
        let y = nl.add_cell(CellKind::And2, &[a, key], "y"); // always 0
        nl.add_output("y", y);
        (nl, key, y)
    }

    #[test]
    fn end_to_end_proves_stuck_gate() {
        let (nl, key, y) = keyed_design();
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        assert!(!cands.is_empty());

        // Unconstrained environment: constraint = TRUE.
        let survivors = falsify(
            &na,
            AigLit::TRUE,
            &cands,
            &SimFilterConfig::default(),
            &|r, words| {
                for w in words {
                    *w = r.gen();
                }
            },
            7,
        );
        // The true invariants must survive simulation.
        let has = |k: CandidateKind, net| survivors.iter().any(|c| c.net == net && c.kind == k);
        assert!(has(CandidateKind::ConstFalse, key), "key==0 survives sim");
        assert!(has(CandidateKind::ConstFalse, y), "y==0 survives sim");

        let (proved, stats) = prove(
            &na.aig,
            AigLit::TRUE,
            &na,
            &survivors,
            &HoudiniConfig::default(),
        );
        assert!(stats.iterations >= 1);
        let hasp = |k: CandidateKind, net| proved.iter().any(|c| c.net == net && c.kind == k);
        assert!(hasp(CandidateKind::ConstFalse, key), "key==0 proved");
        assert!(hasp(CandidateKind::ConstFalse, y), "y==0 proved");
        // Nothing false may be proved: `a` is free, so y==a must not hold.
        let a_net = nl.find_net("a").unwrap();
        assert!(
            !proved
                .iter()
                .any(|c| c.net == y && matches!(c.kind, CandidateKind::EqualNet(n) if n == a_net)),
            "y == a must not be proved"
        );
    }

    #[test]
    fn toggling_latch_is_not_proved_constant() {
        let mut nl = Netlist::new("t");
        let fb = nl.add_net("fb");
        let inv = nl.add_cell(CellKind::Inv, &[fb], "d");
        let q = nl.add_dff(inv, false, "q");
        nl.assign_alias(fb, q);
        nl.add_output("q", q);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let survivors = falsify(
            &na,
            AigLit::TRUE,
            &cands,
            &SimFilterConfig::default(),
            &|_r, words| words.fill(0),
            3,
        );
        assert!(
            !survivors.iter().any(|c| c.net == q
                && matches!(c.kind, CandidateKind::ConstFalse | CandidateKind::ConstTrue)),
            "toggler killed by simulation"
        );
    }

    #[test]
    fn constraint_enables_proofs() {
        // y = a & b with the environment constraint a == 0: y must be
        // proved constant 0 under the constraint but not without it.
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b2 = nl.add_input("b");
        let y = nl.add_cell(CellKind::And2, &[a, b2], "y");
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[]);
        let a_lit = na.input_lit[&a];
        let constraint = !a_lit; // a must be 0

        let cands = candidates_for_netlist(&nl, &na);
        // Stimulus respects the constraint: lane word for `a` is 0.
        let a_index = na
            .aig
            .inputs()
            .iter()
            .position(|&n| AigLit::of(n) == a_lit)
            .unwrap();
        let survivors = falsify(
            &na,
            constraint,
            &cands,
            &SimFilterConfig::default(),
            &move |r, words| {
                for w in words.iter_mut() {
                    *w = r.gen();
                }
                words[a_index] = 0;
            },
            11,
        );
        let (proved, _) = prove(
            &na.aig,
            constraint,
            &na,
            &survivors,
            &HoudiniConfig::default(),
        );
        assert!(
            proved
                .iter()
                .any(|c| c.net == y && c.kind == CandidateKind::ConstFalse),
            "y==0 proved under the constraint"
        );
        // Primary inputs are not gate outputs, so no candidate exists for
        // `a` itself — the Property Library binds to cells only.
        assert!(!proved.iter().any(|c| c.net == a));
    }
}
