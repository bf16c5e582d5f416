//! Property-based tests for the netlist crate: text-format round trips
//! preserve structure and behaviour; validation accepts what the builder
//! produces.

use pdat_netlist::{parse_netlist, write_netlist, CellKind, NetId, Netlist, Simulator};
use proptest::prelude::*;

fn build_netlist(recipe: &[(u8, u8, u8, u8, bool)], n_inputs: usize) -> Netlist {
    let mut nl = Netlist::new("roundtrip");
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (k, (kind_sel, a, b, c, init)) in recipe.iter().enumerate() {
        let pick = |x: u8| nets[x as usize % nets.len()];
        let o = match kind_sel % 11 {
            0 => nl.add_cell(
                CellKind::And3,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            1 => nl.add_cell(
                CellKind::Or4,
                &[pick(*a), pick(*b), pick(*c), pick(*a)],
                format!("n{k}"),
            ),
            2 => nl.add_cell(CellKind::Xnor2, &[pick(*a), pick(*b)], format!("n{k}")),
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
                CellKind::Nand3,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            7 => nl.add_cell(
                CellKind::Aoi21,
                &[pick(*a), pick(*b), pick(*c)],
                format!("n{k}"),
            ),
            8 => nl.add_cell(CellKind::Buf, &[pick(*a)], format!("n{k}")),
            9 => nl.add_cell(CellKind::Tie1, &[], format!("n{k}")),
            _ => nl.add_dff(pick(*a), *init, format!("n{k}")),
        };
        nets.push(o);
    }
    for (i, &n) in nets.iter().rev().take(3).enumerate() {
        nl.add_output(format!("o{i}"), n);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_round_trip_preserves_structure_and_behaviour(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..40),
        stimulus in prop::collection::vec(any::<u64>(), 6),
    ) {
        let nl = build_netlist(&recipe, 4);
        nl.validate().unwrap();
        let text = write_netlist(&nl);
        let back = parse_netlist(&text).expect("round trip parses");
        back.validate().unwrap();
        prop_assert_eq!(back.gate_count(), nl.gate_count());
        prop_assert_eq!(back.dffs().count(), nl.dffs().count());
        prop_assert!((back.area() - nl.area()).abs() < 1e-6);

        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&back);
        let in1 = nl.inputs().to_vec();
        let in2 = back.inputs().to_vec();
        for &word in &stimulus {
            let a1: Vec<_> = in1.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            let a2: Vec<_> = in2.iter().enumerate().map(|(i, &n)| (n, word >> i & 1 == 1)).collect();
            s1.set_inputs(&a1);
            s2.set_inputs(&a2);
            for ((p1, n1), (p2, n2)) in nl.outputs().iter().zip(back.outputs()) {
                prop_assert_eq!(p1, p2);
                prop_assert_eq!(s1.value(*n1), s2.value(*n2), "output {}", p1);
            }
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn round_trip_is_stable(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..24),
    ) {
        // write(parse(write(nl))) == write(parse(...)) — the format is a
        // fixpoint after one round trip.
        let nl = build_netlist(&recipe, 3);
        let t1 = write_netlist(&nl);
        let p1 = parse_netlist(&t1).unwrap();
        let t2 = write_netlist(&p1);
        let p2 = parse_netlist(&t2).unwrap();
        let t3 = write_netlist(&p2);
        prop_assert_eq!(t2, t3);
    }

    #[test]
    fn stats_histogram_sums_to_cell_count(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..40),
    ) {
        let nl = build_netlist(&recipe, 4);
        let stats = nl.stats();
        let hist_total: usize = stats.histogram.values().sum();
        prop_assert_eq!(hist_total, nl.num_cells());
        let tie_count = nl.cells().filter(|(_, c)| c.kind.is_tie()).count();
        prop_assert_eq!(stats.gate_count + tie_count, nl.num_cells());
    }

    /// Malformed-input corpus: mutate a well-formed netlist file by
    /// truncating it, flipping bytes, and duplicating `net` declarations.
    /// The parser must stay total — every outcome is `Ok` or a structured
    /// `ParseNetlistError`; no panic may escape the library.
    #[test]
    fn parser_never_panics_on_corrupted_input(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..24),
        cut in any::<u16>(),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        dup_line in any::<u8>(),
    ) {
        let nl = build_netlist(&recipe, 3);
        let text = write_netlist(&nl);

        // Truncation at an arbitrary byte offset (clamped to a char
        // boundary so the corruption stays valid UTF-8; the parser only
        // ever sees &str).
        let mut end = cut as usize % (text.len() + 1);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = text.as_bytes()[..end].to_vec();

        // Bit flips anywhere in the remaining bytes.
        for (pos, bit) in &flips {
            if bytes.is_empty() {
                break;
            }
            let i = *pos as usize % bytes.len();
            bytes[i] ^= 1 << (bit % 8);
        }
        let mut corrupted = String::from_utf8_lossy(&bytes).into_owned();

        // Duplicate one line (often a `net` declaration) verbatim.
        let lines: Vec<&str> = corrupted.lines().collect();
        if !lines.is_empty() {
            let dup = lines[dup_line as usize % lines.len()].to_string();
            corrupted.push('\n');
            corrupted.push_str(&dup);
        }
        corrupted.push_str("\nnet dup_x\nnet dup_x\n");

        // Any outcome but a panic is acceptable; errors must carry a
        // position inside the corrupted text.
        match parse_netlist(&corrupted) {
            Ok(parsed) => {
                // A parse that succeeds may still describe an invalid
                // circuit; validation must also be total.
                let _ = parsed.validate();
            }
            Err(e) => {
                prop_assert!(e.line >= 1);
                prop_assert!(e.column >= 1);
                // Display formatting must not panic either.
                let _ = e.to_string();
            }
        }
    }
}
