//! Soundness property test: on random small sequential designs, every
//! invariant the engine (simulation filter + Houdini) claims to *prove*
//! must hold on **every reachable state under every input** — checked by
//! exhaustive breadth-first exploration of the state space.
//!
//! This is the property that makes PDAT's rewiring safe; a single violation
//! here would mean the pipeline could corrupt a core.

use pdat_aig::{netlist_to_aig, AigLit};
use pdat_governor::Governor;
use pdat_mc::{
    candidates_for_netlist, houdini_prove_warm_governed, simulate_filter_governed, Candidate,
    CandidateKind, HoudiniConfig, SimFilterConfig,
};
use pdat_netlist::{CellKind, NetId, Netlist, Simulator};
use proptest::prelude::*;
use std::collections::HashSet;

const N_INPUTS: usize = 3;

fn build_netlist(recipe: &[(u8, u8, u8, u8, bool)]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut nets: Vec<NetId> = (0..N_INPUTS)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    let mut dffs = 0;
    for (k, (kind_sel, a, b, c, init)) in recipe.iter().enumerate() {
        let pick = |x: u8| nets[x as usize % nets.len()];
        let o = match kind_sel % 8 {
            0 => nl.add_cell(CellKind::And2, &[pick(*a), pick(*b)], format!("n{k}")),
            1 => nl.add_cell(CellKind::Or2, &[pick(*a), pick(*b)], format!("n{k}")),
            2 => nl.add_cell(CellKind::Xor2, &[pick(*a), pick(*b)], format!("n{k}")),
            3 => nl.add_cell(CellKind::Inv, &[pick(*a)], format!("n{k}")),
            4 => nl.add_cell(
                CellKind::Mux2,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            5 | 6 => {
                // Cap state bits so exhaustive exploration stays tiny.
                if dffs < 6 {
                    dffs += 1;
                    nl.add_dff(pick(*a), *init, format!("n{k}"))
                } else {
                    nl.add_cell(CellKind::Nand2, &[pick(*a), pick(*b)], format!("n{k}"))
                }
            }
            _ => nl.add_cell(CellKind::Nor2, &[pick(*a), pick(*b)], format!("n{k}")),
        };
        nets.push(o);
    }
    for (i, &n) in nets.iter().rev().take(3).enumerate() {
        nl.add_output(format!("o{i}"), n);
    }
    nl
}

/// Exhaustively check a candidate over all reachable (state, input) pairs.
fn holds_everywhere(nl: &Netlist, cand: &Candidate) -> bool {
    let mut sim = Simulator::new(nl);
    let inputs = nl.inputs().to_vec();
    let mut seen: HashSet<Vec<bool>> = HashSet::new();
    let mut frontier = vec![sim.state().to_vec()];
    seen.insert(sim.state().to_vec());
    while let Some(state) = frontier.pop() {
        for combo in 0u32..(1 << inputs.len()) {
            sim.set_state_for_test(&state);
            let assigns: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, combo >> i & 1 == 1))
                .collect();
            sim.set_inputs(&assigns);
            let ok = match cand.kind {
                CandidateKind::ConstFalse => !sim.value(cand.net),
                CandidateKind::ConstTrue => sim.value(cand.net),
                CandidateKind::EqualNet(o) => sim.value(cand.net) == sim.value(o),
            };
            if !ok {
                return false;
            }
            sim.step();
            let next = sim.state().to_vec();
            if seen.insert(next.clone()) {
                frontier.push(next);
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn proved_invariants_hold_on_all_reachable_states(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 2..28),
    ) {
        let nl = build_netlist(&recipe);
        nl.validate().unwrap();
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let (survivors, _, _) = simulate_filter_governed(
            &na,
            AigLit::TRUE,
            &cands,
            &SimFilterConfig {
                cycles: 96,
                ..Default::default()
            },
            &|r, words| {
                for w in words {
                    *w = rand::Rng::gen::<u64>(r);
                }
            },
            0xFEED,
            &Governor::unlimited(),
        );
        let (proved, _, _) = houdini_prove_warm_governed(
            &na.aig,
            AigLit::TRUE,
            &na,
            &survivors,
            &[],
            &HoudiniConfig {
                conflict_budget: Some(50_000),
                max_iterations: 1_000,
                ..Default::default()
            },
            &Governor::unlimited(),
        );
        for cand in &proved {
            prop_assert!(
                holds_everywhere(&nl, cand),
                "UNSOUND: engine proved {:?} but it is violated on a reachable state",
                cand
            );
        }
    }
}
