//! A from-scratch CDCL SAT solver for the PDAT reproduction.
//!
//! The paper's property checker (Mentor Questa Formal) is SAT-based at its
//! core; this crate provides the complete decision procedure the invariant
//! engine (`pdat-mc`) is built on: conflict-driven clause learning with
//! two-watched-literal propagation, VSIDS-style activity decision
//! heuristics, first-UIP learning, chronological backtracking (a conflict
//! undoes only its own decision level), phase saving, Luby restarts, and
//! incremental solving under assumptions (a call places all of its
//! assumptions on a single decision level that no conflict undoes).
//!
//! # Example
//!
//! ```
//! use pdat_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

mod solver;

pub use solver::{Lit, PreprocessStats, SolveResult, Solver, Var};

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: try all assignments over `nvars`.
    pub(crate) fn brute_force(nvars: usize, clauses: &[Vec<Lit>]) -> bool {
        'outer: for bits in 0u64..(1 << nvars) {
            for c in clauses {
                let sat = c.iter().any(|l| {
                    let v = bits >> l.var().index() & 1 == 1;
                    if l.is_pos() {
                        v
                    } else {
                        !v
                    }
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    /// n pigeons into m holes: Unsat whenever n > m, and hard for
    /// resolution as n grows.
    pub(crate) fn pigeonhole(n: usize, m: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for pi in &p {
            let c: Vec<Lit> = pi.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            let hole: Vec<Var> = p.iter().map(|pi| pi[j]).collect();
            for (i1, &a) in hole.iter().enumerate() {
                for &b in &hole[i1 + 1..] {
                    s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        s
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v: Vec<_> = (0..5).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(v[0])]);
        for i in 0..4 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn simple_unsat_pair() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1 is unsat (parity).
        let mut s = Solver::new();
        let x: Vec<_> = (0..3).map(|_| s.new_var()).collect();
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        };
        xor1(&mut s, x[0], x[1]);
        xor1(&mut s, x[1], x[2]);
        xor1(&mut s, x[0], x[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        assert_eq!(pigeonhole(3, 2).solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        assert_eq!(pigeonhole(5, 4).solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_respected_and_removable() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_with(&[Lit::neg(a), Lit::neg(b)]),
            SolveResult::Unsat
        );
        // Same solver, different assumptions: satisfiable again.
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_assumptions_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::neg(a)]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn incremental_clause_addition_after_solve() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[Lit::neg(a)]);
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard pigeonhole with a tiny budget must come back Unknown.
        let mut s = pigeonhole(9, 8);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
    }

    #[test]
    fn model_satisfies_all_clauses_random() {
        use rand_like::XorShift;
        let mut rng = XorShift::new(0xC0FFEE);
        for round in 0..120 {
            let nvars = 4 + (round % 8);
            let nclauses = 6 + (round % 24);
            let mut s = Solver::new();
            let vars: Vec<_> = (0..nvars).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let len = 1 + (rng.next() as usize % 3);
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = vars[rng.next() as usize % nvars];
                    let pos = rng.next() & 1 == 1;
                    c.push(if pos { Lit::pos(v) } else { Lit::neg(v) });
                }
                clauses.push(c);
            }
            let mut no_conflict_at_add = true;
            for c in &clauses {
                no_conflict_at_add &= s.add_clause(c);
            }
            let expected = brute_force(nvars, &clauses);
            if !no_conflict_at_add {
                assert!(!expected, "add_clause found conflict but formula is sat");
                assert_eq!(s.solve(), SolveResult::Unsat);
                continue;
            }
            let got = s.solve();
            assert_eq!(
                got == SolveResult::Sat,
                expected,
                "round {round}: solver disagrees with brute force"
            );
            if got == SolveResult::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(l.is_pos())),
                        "model does not satisfy clause {c:?}"
                    );
                }
            }
        }
    }

    /// Minimal xorshift so the test has deterministic "randomness" without a
    /// dev-dependency in the solver crate.
    mod rand_like {
        pub struct XorShift(u64);
        impl XorShift {
            pub fn new(seed: u64) -> Self {
                XorShift(seed.max(1))
            }
            pub fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x
            }
        }
    }
}
