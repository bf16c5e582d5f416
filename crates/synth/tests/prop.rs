//! Property-based tests: resynthesis preserves sequential behaviour on
//! random netlists under random stimulus, and never grows the design.

use pdat_netlist::{CellKind, NetId, Netlist, Simulator};
use pdat_synth::resynthesize;
use proptest::prelude::*;

fn build_netlist(recipe: &[(u8, u8, u8, u8, bool)], n_inputs: usize) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (k, (kind_sel, a, b, c, init)) in recipe.iter().enumerate() {
        let pick = |x: u8| nets[x as usize % nets.len()];
        let o = match kind_sel % 12 {
            0 => nl.add_cell(CellKind::And2, &[pick(*a), pick(*b)], format!("n{k}")),
            1 => nl.add_cell(
                CellKind::Or3,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            2 => nl.add_cell(CellKind::Xor2, &[pick(*a), pick(*b)], format!("n{k}")),
            3 => nl.add_cell(CellKind::Inv, &[pick(*a)], format!("n{k}")),
            4 => nl.add_cell(
                CellKind::Mux2,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            5 => nl.add_cell(
                CellKind::Maj3,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            6 => nl.add_cell(
                CellKind::Nand4,
                &[pick(*a), pick(*b), pick(*c), pick(*a)],
                format!("n{k}"),
            ),
            7 => nl.add_cell(
                CellKind::Aoi21,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            8 => nl.add_cell(
                CellKind::Oai21,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            9 => nl.add_cell(CellKind::Xnor2, &[pick(*a), pick(*b)], format!("n{k}")),
            10 => nl.add_cell(CellKind::Buf, &[pick(*a)], format!("n{k}")),
            _ => nl.add_dff(pick(*a), *init, format!("n{k}")),
        };
        nets.push(o);
    }
    for (i, &n) in nets.iter().rev().take(4).enumerate() {
        nl.add_output(format!("o{i}"), n);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resynthesis_preserves_behaviour(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..48),
        stimulus in prop::collection::vec(any::<u64>(), 10),
    ) {
        let nl = build_netlist(&recipe, 5);
        nl.validate().unwrap();
        let (opt, report) = resynthesize(&nl);
        opt.validate().unwrap();
        prop_assert!(report.cells_after <= report.cells_before, "synthesis grew the design");

        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&opt);
        let in1 = nl.inputs().to_vec();
        let in2 = opt.inputs().to_vec();
        prop_assert_eq!(in1.len(), in2.len());
        for (cycle, &word) in stimulus.iter().enumerate() {
            let a1: Vec<_> = in1.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            let a2: Vec<_> = in2.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            s1.set_inputs(&a1);
            s2.set_inputs(&a2);
            for ((p1, n1), (p2, n2)) in nl.outputs().iter().zip(opt.outputs()) {
                prop_assert_eq!(p1, p2);
                prop_assert_eq!(s1.value(*n1), s2.value(*n2), "cycle {} output {}", cycle, p1);
            }
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn resynthesis_is_idempotent(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..32),
    ) {
        let nl = build_netlist(&recipe, 4);
        let (once, _) = resynthesize(&nl);
        let (twice, _) = resynthesize(&once);
        prop_assert_eq!(once.num_cells(), twice.num_cells());
        prop_assert_eq!(once.gate_count(), twice.gate_count());
    }

    #[test]
    fn rewired_netlists_stay_sound(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 4..32),
        tie_idx in any::<u8>(),
        tie_val in any::<bool>(),
        stimulus in prop::collection::vec(any::<u64>(), 6),
    ) {
        // Tie a random internal net to a constant (as PDAT rewiring does),
        // then check the *rewired* source and the resynthesized result
        // agree with each other (both see the tie).
        let mut nl = build_netlist(&recipe, 4);
        let cells: Vec<_> = nl.cells().map(|(_, c)| c.output).collect();
        let victim = cells[tie_idx as usize % cells.len()];
        nl.assign_const(victim, tie_val);
        let (opt, _) = resynthesize(&nl);
        opt.validate().unwrap();
        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&opt);
        let in1 = nl.inputs().to_vec();
        let in2 = opt.inputs().to_vec();
        for &word in &stimulus {
            let a1: Vec<_> = in1.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            let a2: Vec<_> = in2.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            s1.set_inputs(&a1);
            s2.set_inputs(&a2);
            for ((p1, n1), (_p2, n2)) in nl.outputs().iter().zip(opt.outputs()) {
                prop_assert_eq!(s1.value(*n1), s2.value(*n2), "output {}", p1);
            }
            s1.step();
            s2.step();
        }
    }
}
