//! Property-based tests: the CDCL solver agrees with brute force on random
//! CNF, models satisfy all clauses, and assumptions behave like temporary
//! unit clauses, also across interleaved solve and add_clause calls.

use pdat_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `nvars` variables.
fn clauses_strategy(nvars: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    let lit = (0..nvars, any::<bool>());
    let clause = prop::collection::vec(lit, 1..4);
    prop::collection::vec(clause, 1..24)
}

fn brute_force(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> Option<u64> {
    'outer: for bits in 0u64..(1 << nvars) {
        for c in clauses {
            let sat = c.iter().any(|&(v, pos)| (bits >> v & 1 == 1) == pos);
            if !sat {
                continue 'outer;
            }
        }
        return Some(bits);
    }
    None
}

/// Brute force over `nvars` variables with the literals of `units` fixed:
/// a model, or `None`. Clauses become bit masks and only the free
/// variables are enumerated, so 14 variables stay cheap.
fn brute_force_under(
    nvars: usize,
    clauses: &[Vec<(usize, bool)>],
    units: &[(usize, bool)],
) -> Option<u64> {
    let (mut fixed, mut values) = (0u64, 0u64);
    for &(v, pos) in units {
        if fixed >> v & 1 == 1 && (values >> v & 1 == 1) != pos {
            return None;
        }
        fixed |= 1 << v;
        values |= u64::from(pos) << v;
    }
    let masks: Vec<(u64, u64)> = clauses
        .iter()
        .map(|c| {
            c.iter().fold((0, 0), |(p, n), &(v, pos)| {
                if pos {
                    (p | 1 << v, n)
                } else {
                    (p, n | 1 << v)
                }
            })
        })
        .collect();
    let free = ((1u64 << nvars) - 1) & !fixed;
    let mut sub = 0u64;
    loop {
        let bits = values | sub;
        if masks.iter().all(|&(p, n)| bits & p != 0 || !bits & n != 0) {
            return Some(bits);
        }
        if sub == free {
            return None;
        }
        // Next subset of `free` in counting order.
        sub = sub.wrapping_sub(free) & free;
    }
}

fn build_solver(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> (Solver, Vec<Var>, bool) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
    let mut ok = true;
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&(v, pos)| Lit::with_phase(vars[v], pos))
            .collect();
        ok &= s.add_clause(&lits);
    }
    (s, vars, ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn agrees_with_brute_force(clauses in clauses_strategy(7)) {
        let expected = brute_force(7, &clauses);
        let (mut s, vars, ok) = build_solver(7, &clauses);
        if !ok {
            prop_assert!(expected.is_none(), "conflict at add but satisfiable");
            return Ok(());
        }
        let got = s.solve();
        prop_assert_eq!(got == SolveResult::Sat, expected.is_some());
        if got == SolveResult::Sat {
            for c in &clauses {
                prop_assert!(
                    c.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                    "model violates clause {:?}", c
                );
            }
        }
    }

    #[test]
    fn assumptions_match_added_units(clauses in clauses_strategy(6), assum in prop::collection::vec((0usize..6, any::<bool>()), 0..3)) {
        // solve_with(assumptions) must agree with solving a copy where the
        // assumptions are permanent unit clauses.
        let (mut s1, vars1, ok1) = build_solver(6, &clauses);
        let (mut s2, vars2, ok2) = build_solver(6, &clauses);
        prop_assume!(ok1 && ok2);
        let alits: Vec<Lit> = assum.iter().map(|&(v, p)| Lit::with_phase(vars1[v], p)).collect();
        let r1 = s1.solve_with(&alits);
        let mut ok = true;
        for &(v, p) in &assum {
            ok &= s2.add_clause(&[Lit::with_phase(vars2[v], p)]);
        }
        let r2 = if ok { s2.solve() } else { SolveResult::Unsat };
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn preprocessed_solver_agrees_with_unpreprocessed(
        clauses in clauses_strategy(8),
        frozen_mask in 0u16..256,
        queries in prop::collection::vec(
            prop::collection::vec((0usize..8, any::<bool>()), 0..4),
            0..4,
        ),
    ) {
        // The preprocessed solver must agree with the unpreprocessed one
        // on the global sat/unsat verdict and on every assumption-set
        // query built from *frozen* literals (the preprocessing
        // contract: frozen vars survive elimination, so they stay legal
        // as assumptions).
        let (mut plain, pv, ok1) = build_solver(8, &clauses);
        let (mut pped, qv, ok2) = build_solver(8, &clauses);
        prop_assert_eq!(ok1, ok2);
        if !ok1 {
            return Ok(());
        }
        let frozen_idx: Vec<usize> = (0..8).filter(|i| frozen_mask >> i & 1 == 1).collect();
        let frozen: Vec<Var> = frozen_idx.iter().map(|&i| qv[i]).collect();
        pped.preprocess(&frozen);
        prop_assert_eq!(plain.solve(), pped.solve(), "global verdict diverged");
        for q in &queries {
            let restricted: Vec<(usize, bool)> = q
                .iter()
                .copied()
                .filter(|(v, _)| frozen_idx.contains(v))
                .collect();
            let a1: Vec<Lit> = restricted.iter().map(|&(v, p)| Lit::with_phase(pv[v], p)).collect();
            let a2: Vec<Lit> = restricted.iter().map(|&(v, p)| Lit::with_phase(qv[v], p)).collect();
            prop_assert_eq!(
                plain.solve_with(&a1),
                pped.solve_with(&a2),
                "assumption query diverged on {:?}", restricted
            );
        }
    }

    #[test]
    fn solve_sequences_agree_with_brute_force(
        clauses in clauses_strategy(6),
        steps in prop::collection::vec(
            (
                prop::collection::vec((0usize..6, any::<bool>()), 0..3),
                prop::collection::vec((0usize..6, any::<bool>()), 0..13),
            ),
            1..7,
        ),
    ) {
        // Each step adds a random clause (none when empty), then solves
        // under up to 12 assumptions. Short clauses over 6 variables fix
        // literals at level 0, and long assumption lists repeat and
        // contradict themselves. Every verdict must equal brute force over
        // the clauses so far plus the assumptions as units.
        let (mut s, vars, mut ok) = build_solver(6, &clauses);
        let mut clauses = clauses;
        for (extra, assum) in &steps {
            if !extra.is_empty() {
                let lits: Vec<Lit> = extra
                    .iter()
                    .map(|&(v, pos)| Lit::with_phase(vars[v], pos))
                    .collect();
                ok &= s.add_clause(&lits);
                clauses.push(extra.clone());
            }
            if !ok {
                prop_assert!(brute_force(6, &clauses).is_none(), "conflict at add but satisfiable");
            }
            let alits: Vec<Lit> = assum.iter().map(|&(v, p)| Lit::with_phase(vars[v], p)).collect();
            let got = s.solve_with(&alits);
            let mut with_units = clauses.clone();
            with_units.extend(assum.iter().map(|&a| vec![a]));
            let expected = brute_force(6, &with_units);
            prop_assert_eq!(got == SolveResult::Sat, expected.is_some(), "assumptions {:?}", assum);
            prop_assert!(got != SolveResult::Unknown);
            if got == SolveResult::Sat {
                for c in &with_units {
                    prop_assert!(
                        c.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                        "model violates clause or assumption {:?}", c
                    );
                }
            }
        }
    }

    #[test]
    fn solver_is_reusable_after_unsat_assumptions(clauses in clauses_strategy(5)) {
        let (mut s, vars, ok) = build_solver(5, &clauses);
        prop_assume!(ok);
        let base = s.solve();
        // Force an unsat assumption pair, then re-check the base problem.
        let _ = s.solve_with(&[Lit::pos(vars[0]), Lit::neg(vars[0])]);
        let again = s.solve();
        prop_assert_eq!(base, again, "assumption retraction broke the solver");
    }
}

proptest! {
    // Cases are cheap (well under 1 ms each), and the states where a
    // backtrack keeps unpropagated literals are rare, so draw many.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn deep_solve_sequences_agree_with_brute_force(
        clauses in prop::collection::vec(
            prop::collection::vec((0usize..14, any::<bool>()), 3..4),
            56..64,
        ),
        steps in prop::collection::vec(
            (
                prop::collection::vec((0usize..14, any::<bool>()), 0..4),
                prop::collection::vec((0usize..14, any::<bool>()), 0..21),
            ),
            1..7,
        ),
    ) {
        // Random 3-CNF over 14 variables near the satisfiability threshold
        // (about 4.26 clauses per variable): searches run many decision
        // levels deep, so conflicts land below the decision level and
        // backtracking keeps literals placed out of order. Each step adds
        // a random clause (none when empty) and solves under up to 20
        // assumptions; every verdict and model must match brute force.
        let (mut s, vars, mut ok) = build_solver(14, &clauses);
        let mut clauses = clauses;
        for (extra, assum) in &steps {
            if !extra.is_empty() {
                let lits: Vec<Lit> = extra
                    .iter()
                    .map(|&(v, pos)| Lit::with_phase(vars[v], pos))
                    .collect();
                ok &= s.add_clause(&lits);
                clauses.push(extra.clone());
            }
            if !ok {
                prop_assert!(brute_force_under(14, &clauses, &[]).is_none(), "conflict at add but satisfiable");
            }
            let alits: Vec<Lit> = assum.iter().map(|&(v, p)| Lit::with_phase(vars[v], p)).collect();
            let got = s.solve_with(&alits);
            let expected = brute_force_under(14, &clauses, assum);
            prop_assert_eq!(got == SolveResult::Sat, expected.is_some(), "assumptions {:?}", assum);
            prop_assert!(got != SolveResult::Unknown);
            if got == SolveResult::Sat {
                for c in clauses.iter().map(Vec::as_slice).chain(assum.chunks(1)) {
                    prop_assert!(
                        c.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                        "model violates clause or assumption {:?}", c
                    );
                }
            }
        }
    }
}

/// Pigeonhole PHP(4, 3) over variables 0..12 (pigeon `i` in hole `j` is
/// variable `3i + j`), every clause guarded by `¬x12`: unsatisfiable
/// whenever x12 holds, and refuting it takes real search, so learnt
/// clauses pile up.
fn guarded_pigeonhole() -> Vec<Vec<(usize, bool)>> {
    let guard = (12, false);
    let mut clauses: Vec<Vec<(usize, bool)>> = (0..4)
        .map(|i| vec![(3 * i, true), (3 * i + 1, true), (3 * i + 2, true), guard])
        .collect();
    for j in 0..3 {
        for a in 0..4 {
            for b in a + 1..4 {
                clauses.push(vec![(3 * a + j, false), (3 * b + j, false), guard]);
            }
        }
    }
    clauses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn preprocessed_solver_under_tight_clause_db_agrees_with_brute_force(
        random in prop::collection::vec(
            prop::collection::vec((0usize..16, any::<bool>()), 3..4),
            4..24,
        ),
        frozen_mask in any::<u16>(),
        db_limit in 1usize..=4,
        steps in prop::collection::vec(
            (
                0u8..3,
                prop::collection::vec((0usize..16, any::<bool>()), 0..6),
            ),
            1..8,
        ),
    ) {
        // A guarded pigeonhole plus random 3-clauses over 16 variables,
        // preprocessed with a random frozen set (always including the
        // guard x12): preprocessing compacts the clause arena and rebuilds
        // the watch lists, and a learnt cap of 1–4 then runs the database
        // reduction on that arena while a query under x12 refutes the
        // pigeonhole. Each step adds a unit on a frozen literal, or solves
        // under frozen assumptions (led by x12 on every other solve
        // step), and every verdict must equal
        // brute force over the original clauses plus the units so far and
        // the assumptions. A Sat model must satisfy every unit added after
        // preprocessing and every assumption, and its frozen values must
        // extend to a model of the original clauses (eliminated variables
        // are existentially quantified, frozen ones kept).
        let mut clauses = guarded_pigeonhole();
        clauses.extend(random);
        let (mut s, vars, ok) = build_solver(16, &clauses);
        prop_assume!(ok);
        let frozen_idx: Vec<usize> = (0..16)
            .filter(|&i| i == 12 || frozen_mask >> i & 1 == 1)
            .collect();
        let frozen: Vec<Var> = frozen_idx.iter().map(|&i| vars[i]).collect();
        s.preprocess(&frozen);
        s.set_clause_db_limit(db_limit);
        let mut units: Vec<(usize, bool)> = Vec::new();
        let mut ok = true;
        for (kind, lits) in &steps {
            let mut lits: Vec<(usize, bool)> = lits
                .iter()
                .map(|&(v, p)| (frozen_idx[v % frozen_idx.len()], p))
                .collect();
            if *kind == 2 {
                lits.insert(0, (12, true));
            }
            if *kind == 0 {
                let Some(&(v, p)) = lits.first() else { continue };
                ok &= s.add_clause(&[Lit::with_phase(vars[v], p)]);
                units.push((v, p));
                if !ok {
                    prop_assert!(brute_force_under(16, &clauses, &units).is_none(), "conflict at add but satisfiable");
                }
                continue;
            }
            let alits: Vec<Lit> = lits.iter().map(|&(v, p)| Lit::with_phase(vars[v], p)).collect();
            let got = s.solve_with(&alits);
            let fixed: Vec<(usize, bool)> = units.iter().chain(&lits).copied().collect();
            let expected = brute_force_under(16, &clauses, &fixed);
            prop_assert!(got != SolveResult::Unknown);
            prop_assert_eq!(got == SolveResult::Sat, expected.is_some(), "units {:?} assumptions {:?}", units, lits);
            if got == SolveResult::Sat {
                for &(v, p) in &fixed {
                    prop_assert_eq!(s.value(vars[v]), Some(p), "model violates unit or assumption x{}", v);
                }
                let model: Vec<(usize, bool)> = frozen_idx
                    .iter()
                    .filter_map(|&v| s.value(vars[v]).map(|b| (v, b)))
                    .collect();
                prop_assert_eq!(model.len(), frozen_idx.len(), "a frozen variable has no model value");
                prop_assert!(
                    brute_force_under(16, &clauses, &model).is_some(),
                    "frozen model values do not extend to a model"
                );
            }
        }
    }
}
