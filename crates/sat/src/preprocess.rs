//! Deterministic CNF preprocessing: bounded variable elimination (BVE),
//! subsumption, and self-subsuming resolution, with a frozen-variable
//! contract for incremental callers.
//!
//! The Houdini prover solves thousands of closely-related queries against
//! one Tseitin encoding; shrinking that encoding once, up front, pays on
//! every subsequent propagation pass. The transformations are classic
//! SatELite: a clause that contains another clause is redundant
//! (subsumption), a clause that contains another clause *except* for one
//! flipped literal can drop that literal (self-subsuming resolution), and
//! a variable whose resolvent set is no larger than the clauses it
//! retires can be existentially eliminated (BVE).
//!
//! # The frozen contract
//!
//! Callers pass every variable they will ever mention *after*
//! preprocessing — assumption literals (hypothesis and selector
//! variables), literals read from models, and frame-interface state
//! variables. Frozen variables are never eliminated, so:
//!
//! - assumption queries over frozen literals keep the exact same
//!   sat/unsat verdict (BVE computes `∃v.F`, and conjoining constraints
//!   that do not mention `v` commutes with `∃v`);
//! - unit clauses over frozen literals may still be added afterwards
//!   (the drop-via-assumption-flip machinery is unaffected);
//! - `value()` of a frozen variable is still meaningful after a Sat
//!   verdict. Eliminated variables stay unassigned; their model value is
//!   unspecified (`value()` returns `None`).
//!
//! # Determinism
//!
//! Every loop iterates vectors in index order; there is no hashing, no
//! randomness, and no time-dependent cut except the optional governor
//! deadline/cancellation poll (identical to the search loop's policy:
//! wall-clock cuts are allowed to vary, budget-driven behaviour is not).
//! Two solvers holding the same clause database preprocess to the same
//! clause database.

use super::{Clause, ClauseRef, Lit, Solver, Var, Watcher, LBOOL_UNDEF};
use std::collections::VecDeque;

/// What a [`Solver::preprocess`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Variables removed by bounded variable elimination.
    pub vars_eliminated: usize,
    /// Clauses deleted because another clause subsumes them.
    pub clauses_subsumed: usize,
    /// Literals removed by self-subsuming resolution.
    pub clauses_strengthened: usize,
    /// Resolvent clauses added by variable elimination.
    pub resolvents_added: usize,
    /// Root-level unit facts derived while simplifying.
    pub units_derived: usize,
    /// Work units performed (candidate checks + resolvent builds).
    pub steps: u64,
    /// True if a governor deadline/cancellation cut the pass short (the
    /// solver is still in a consistent, merely less-simplified state).
    pub aborted: bool,
}

/// Skip eliminating variables with more occurrences than this: the
/// resolvent check would be quadratic in it, and high-degree variables
/// (shared subterms) almost never eliminate profitably anyway.
const ELIM_OCC_LIMIT: usize = 20;
/// Skip eliminating a variable if any clause containing it is longer
/// than this (resolvents of long clauses are rarely useful).
const ELIM_CLAUSE_LIMIT: usize = 16;
/// Clauses longer than this are not used as subsumers (they still may be
/// subsumed by shorter ones).
const SUBSUME_LEN_LIMIT: usize = 32;
/// Governor poll cadence, in work units.
const POLL_STEPS: u64 = 8192;

/// Scratch state for one preprocessing pass.
struct PpState {
    /// Occurrence lists over *problem* clauses, indexed by literal code.
    occ: Vec<Vec<ClauseRef>>,
    /// Per-clause variable signature (1 bit per `var % 64`).
    sig: Vec<u64>,
    /// Subsumption worklist (FIFO) + membership flags.
    queue: VecDeque<ClauseRef>,
    inq: Vec<bool>,
    /// Root units discovered but not yet pushed through the occ lists.
    units: VecDeque<Lit>,
    frozen: Vec<bool>,
    stats: PreprocessStats,
}

impl PpState {
    /// One work unit; returns `false` when the governor says stop.
    fn step(&mut self, solver: &Solver) -> bool {
        self.stats.steps += 1;
        if self.stats.steps.is_multiple_of(POLL_STEPS) {
            if let Some(g) = &solver.governor {
                if g.is_cancelled() || g.deadline_exceeded() {
                    self.stats.aborted = true;
                }
            }
        }
        !self.stats.aborted
    }
}

/// Subsumption check with one allowed flip: every literal of `c` must
/// occur in `d` either identically or (at most once) negated.
///
/// Returns `None` if neither relation holds, `Some(None)` if `c ⊆ d`
/// (so `d` is subsumed), and `Some(Some(m))` if removing `m` from `d`
/// is a self-subsuming resolution step.
fn subsume_or_strengthen(c: &[Lit], d: &[Lit]) -> Option<Option<Lit>> {
    let mut flipped: Option<Lit> = None;
    for &x in c {
        if d.binary_search(&x).is_ok() {
            continue;
        }
        if flipped.is_none() && d.binary_search(&!x).is_ok() {
            flipped = Some(!x);
            continue;
        }
        return None;
    }
    Some(flipped)
}

fn lits_sig(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() & 63))
}

impl Solver {
    /// Simplify the clause database in place, never eliminating a
    /// variable in `frozen`. See the module docs for the contract.
    ///
    /// Safe to call at any point between solve calls; the intended use
    /// is once, after the encoding is complete and before the first
    /// solve. Clauses added afterwards must not mention eliminated
    /// variables (guaranteed if every later literal is frozen).
    pub fn preprocess(&mut self, frozen: &[Var]) -> PreprocessStats {
        let mut st = PpState {
            occ: vec![Vec::new(); 2 * self.assigns.len()],
            sig: vec![0; self.clauses.len()],
            queue: VecDeque::new(),
            inq: vec![false; self.clauses.len()],
            units: VecDeque::new(),
            frozen: vec![false; self.assigns.len()],
            stats: PreprocessStats::default(),
        };
        if !self.ok {
            return st.stats;
        }
        for v in frozen {
            if let Some(f) = st.frozen.get_mut(v.index()) {
                *f = true;
            }
        }
        // Preprocessing reasons about top-level facts only.
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return st.stats;
        }
        // Root simplification of problem clauses + occ/sig construction.
        // (Learnt clauses are redundant; they are cleaned up at the end.)
        for ci in 0..self.clauses.len() {
            if self.clauses[ci].deleted || self.clauses[ci].learnt {
                continue;
            }
            let mut satisfied = false;
            for &l in &self.clauses[ci].lits {
                if self.lit_value(l) == 1 {
                    satisfied = true;
                    break;
                }
            }
            if satisfied {
                self.clauses[ci].deleted = true;
                continue;
            }
            let assigns = &self.assigns;
            self.clauses[ci]
                .lits
                .retain(|l| assigns[l.var().index()] == LBOOL_UNDEF);
            self.clauses[ci].lits.sort();
            match self.clauses[ci].lits.len() {
                0 => {
                    self.ok = false;
                    return st.stats;
                }
                1 => {
                    let u = self.clauses[ci].lits[0];
                    self.clauses[ci].deleted = true;
                    st.units.push_back(u);
                }
                _ => {
                    let cref = ci as ClauseRef;
                    st.sig[ci] = lits_sig(&self.clauses[ci].lits);
                    for &l in &self.clauses[ci].lits {
                        st.occ[l.code()].push(cref);
                    }
                    st.queue.push_back(cref);
                    st.inq[ci] = true;
                }
            }
        }
        let ok = self.pp_drain_units(&mut st)
            && self.pp_subsume(&mut st)
            && self.pp_eliminate(&mut st)
            && self.pp_subsume(&mut st);
        if !ok {
            self.ok = false;
        }
        self.pp_cleanup_learnt();
        self.pp_rebuild_watches();
        st.stats
    }

    /// Delete a live problem clause and unlink it from the occ lists.
    fn pp_delete(&mut self, st: &mut PpState, ci: ClauseRef) {
        let i = ci as usize;
        if self.clauses[i].deleted {
            return;
        }
        self.clauses[i].deleted = true;
        for k in 0..self.clauses[i].lits.len() {
            let code = self.clauses[i].lits[k].code();
            if let Some(p) = st.occ[code].iter().position(|&x| x == ci) {
                st.occ[code].swap_remove(p);
            }
        }
    }

    /// Remove literal `m` from clause `ci` (self-subsuming resolution or
    /// unit pushing). May derive a new unit.
    fn pp_strengthen(&mut self, st: &mut PpState, ci: ClauseRef, m: Lit) -> bool {
        let i = ci as usize;
        if self.clauses[i].deleted {
            return true;
        }
        self.clauses[i].lits.retain(|&l| l != m);
        if let Some(p) = st.occ[m.code()].iter().position(|&x| x == ci) {
            st.occ[m.code()].swap_remove(p);
        }
        st.sig[i] = lits_sig(&self.clauses[i].lits);
        st.stats.clauses_strengthened += 1;
        match self.clauses[i].lits.len() {
            0 => false, // empty clause: unsatisfiable
            1 => {
                let u = self.clauses[i].lits[0];
                self.pp_delete(st, ci);
                st.units.push_back(u);
                true
            }
            _ => {
                if !st.inq[i] {
                    st.inq[i] = true;
                    st.queue.push_back(ci);
                }
                true
            }
        }
    }

    /// Push queued root units through the occ lists (satisfied clauses
    /// die, falsified literals are removed). Returns `false` on a root
    /// contradiction.
    fn pp_drain_units(&mut self, st: &mut PpState) -> bool {
        while let Some(u) = st.units.pop_front() {
            match self.lit_value(u) {
                1 => continue,
                0 => return false,
                _ => {}
            }
            st.stats.units_derived += 1;
            self.unchecked_enqueue(u, None);
            let sat: Vec<ClauseRef> = st.occ[u.code()].clone();
            for ci in sat {
                self.pp_delete(st, ci);
            }
            let weak: Vec<ClauseRef> = st.occ[(!u).code()].clone();
            for ci in weak {
                if !self.pp_strengthen(st, ci, !u) {
                    return false;
                }
            }
        }
        true
    }

    /// Drain the subsumption worklist: each queued clause tries to
    /// subsume or strengthen its superset candidates.
    fn pp_subsume(&mut self, st: &mut PpState) -> bool {
        while let Some(ci) = st.queue.pop_front() {
            let i = ci as usize;
            st.inq[i] = false;
            if self.clauses[i].deleted || st.stats.aborted {
                continue;
            }
            let c = self.clauses[i].lits.clone();
            if c.len() > SUBSUME_LEN_LIMIT {
                continue;
            }
            // Candidates must contain every lit of `c` (possibly one
            // flipped); gather them from the least-occurring lit of `c`.
            let lmin = c
                .iter()
                .copied()
                .min_by_key(|l| st.occ[l.code()].len() + st.occ[(!*l).code()].len());
            let Some(lmin) = lmin else { continue };
            let mut cands: Vec<ClauseRef> = st.occ[lmin.code()].clone();
            cands.extend_from_slice(&st.occ[(!lmin).code()]);
            let csig = st.sig[i];
            for di in cands {
                if di == ci || self.clauses[di as usize].deleted {
                    continue;
                }
                if !st.step(self) {
                    break;
                }
                let d = &self.clauses[di as usize].lits;
                if d.len() < c.len() || csig & !st.sig[di as usize] != 0 {
                    continue;
                }
                match subsume_or_strengthen(&c, d) {
                    None => {}
                    Some(None) => {
                        self.pp_delete(st, di);
                        st.stats.clauses_subsumed += 1;
                    }
                    Some(Some(m)) => {
                        if !self.pp_strengthen(st, di, m) {
                            return false;
                        }
                        if !self.pp_drain_units(st) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Bounded variable elimination over unfrozen variables in index
    /// order: a variable goes when its non-tautological resolvents are
    /// no more numerous than the clauses they replace.
    fn pp_eliminate(&mut self, st: &mut PpState) -> bool {
        for vi in 0..self.assigns.len() {
            if st.stats.aborted {
                break;
            }
            if st.frozen[vi] || self.eliminated[vi] || self.assigns[vi] != LBOOL_UNDEF {
                continue;
            }
            let v = Var::from_index(vi);
            let (pl, nl) = (Lit::pos(v).code(), Lit::neg(v).code());
            let pos: Vec<ClauseRef> = st.occ[pl]
                .iter()
                .copied()
                .filter(|&c| !self.clauses[c as usize].deleted)
                .collect();
            let neg: Vec<ClauseRef> = st.occ[nl]
                .iter()
                .copied()
                .filter(|&c| !self.clauses[c as usize].deleted)
                .collect();
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            let budget = pos.len() + neg.len();
            if budget > ELIM_OCC_LIMIT {
                continue;
            }
            if pos
                .iter()
                .chain(&neg)
                .any(|&c| self.clauses[c as usize].lits.len() > ELIM_CLAUSE_LIMIT)
            {
                continue;
            }
            // Build all non-tautological resolvents; bail if they would
            // outnumber the clauses they replace.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut over = false;
            'pairs: for &ci in &pos {
                for &di in &neg {
                    if !st.step(self) {
                        over = true;
                        break 'pairs;
                    }
                    if let Some(r) = self.pp_resolve(ci, di, v) {
                        resolvents.push(r);
                        if resolvents.len() > budget {
                            over = true;
                            break 'pairs;
                        }
                    }
                }
            }
            if over {
                continue;
            }
            self.eliminated[vi] = true;
            self.num_eliminated += 1;
            st.stats.vars_eliminated += 1;
            for ci in pos.into_iter().chain(neg) {
                self.pp_delete(st, ci);
            }
            for r in resolvents {
                st.stats.resolvents_added += 1;
                match r.len() {
                    0 => return false,
                    1 => st.units.push_back(r[0]),
                    _ => {
                        let cref = self.clauses.len() as ClauseRef;
                        st.sig.push(lits_sig(&r));
                        st.inq.push(true);
                        st.queue.push_back(cref);
                        for &l in &r {
                            st.occ[l.code()].push(cref);
                        }
                        self.clauses.push(Clause {
                            lits: r,
                            learnt: false,
                            activity: 0.0,
                            lbd: 0,
                            deleted: false,
                        });
                    }
                }
            }
            if !self.pp_drain_units(st) {
                return false;
            }
        }
        true
    }

    /// Resolvent of clauses `ci` (contains `v`) and `di` (contains `¬v`)
    /// on `v`; `None` if tautological. Inputs and output sorted.
    fn pp_resolve(&self, ci: ClauseRef, di: ClauseRef, v: Var) -> Option<Vec<Lit>> {
        let a = &self.clauses[ci as usize].lits;
        let b = &self.clauses[di as usize].lits;
        let mut out: Vec<Lit> = Vec::with_capacity(a.len() + b.len() - 2);
        for &l in a.iter().chain(b.iter()) {
            if l.var() != v {
                out.push(l);
            }
        }
        out.sort();
        out.dedup();
        // Sorted by code ⇒ the two polarities of a var are adjacent.
        for w in out.windows(2) {
            if w[0].var() == w[1].var() {
                return None;
            }
        }
        Some(out)
    }

    /// Learnt clauses are redundant: drop any that mention an eliminated
    /// variable or a root-assigned literal (cheaper than resimplifying,
    /// and always sound).
    fn pp_cleanup_learnt(&mut self) {
        let eliminated = &self.eliminated;
        let assigns = &self.assigns;
        let mut removed = 0usize;
        for c in self.clauses.iter_mut() {
            if c.deleted || !c.learnt {
                continue;
            }
            let stale = c
                .lits
                .iter()
                .any(|l| eliminated[l.var().index()] || assigns[l.var().index()] != LBOOL_UNDEF);
            if stale {
                c.deleted = true;
                removed += 1;
            }
        }
        self.num_learnt -= removed;
    }

    /// Rebuild both watch layers from the live clause set and re-run
    /// root propagation so the queue state is consistent.
    fn pp_rebuild_watches(&mut self) {
        for w in self.watches.iter_mut() {
            w.clear();
        }
        for w in self.bin_watches.iter_mut() {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            if self.clauses[i].deleted {
                continue;
            }
            if self.clauses[i].lits.len() < 2 {
                // Defensive: stray short clause (preprocessing converts
                // these to trail facts); represent it as one.
                match self.clauses[i].lits.first().copied() {
                    Some(u) => {
                        self.clauses[i].deleted = true;
                        if self.clauses[i].learnt {
                            self.num_learnt -= 1;
                        }
                        match self.lit_value(u) {
                            1 => {}
                            0 => self.ok = false,
                            _ => self.unchecked_enqueue(u, None),
                        }
                    }
                    None => self.ok = false,
                }
                continue;
            }
            let cref = i as ClauseRef;
            let (l0, l1) = (self.clauses[i].lits[0], self.clauses[i].lits[1]);
            let lists = if self.clauses[i].lits.len() == 2 {
                &mut self.bin_watches
            } else {
                &mut self.watches
            };
            lists[(!l0).code()].push(Watcher { cref, blocker: l1 });
            lists[(!l1).code()].push(Watcher { cref, blocker: l0 });
        }
        // Root facts need no reasons (analysis never expands level 0);
        // clearing them keeps clause locking from pinning stale refs.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = None;
        }
        self.qhead = 0;
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn subsumption_deletes_supersets() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[2]), Lit::pos(v[3])]);
        let before = s.num_clauses();
        let stats = s.preprocess(&v);
        assert_eq!(stats.clauses_subsumed, 1);
        assert!(s.num_clauses() < before);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn self_subsumption_strengthens() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // (a ∨ b) and (¬a ∨ b ∨ c): resolving on a gives (b ∨ c)… the
        // classic case is (a ∨ b) strengthening (¬a ∨ b) to (b). Use
        // frozen vars so BVE cannot hide the effect.
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b), Lit::pos(c)]);
        let stats = s.preprocess(&[a, b, c]);
        assert!(stats.clauses_strengthened >= 1);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn bve_eliminates_chain_middle() {
        // x0 → x1 → x2 with x1 unfrozen: x1 is eliminated and the chain
        // collapses to x0 → x2.
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::neg(x[0]), Lit::pos(x[1])]);
        s.add_clause(&[Lit::neg(x[1]), Lit::pos(x[2])]);
        let stats = s.preprocess(&[x[0], x[2]]);
        assert_eq!(stats.vars_eliminated, 1);
        assert_eq!(s.num_eliminated_vars(), 1);
        assert_eq!(s.solve_with(&[Lit::pos(x[0])]), SolveResult::Sat);
        assert_eq!(s.value(x[2]), Some(true));
        assert_eq!(
            s.solve_with(&[Lit::pos(x[0]), Lit::neg(x[2])]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn frozen_vars_are_never_eliminated() {
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::neg(x[0]), Lit::pos(x[1])]);
        s.add_clause(&[Lit::neg(x[1]), Lit::pos(x[2])]);
        let stats = s.preprocess(&x);
        assert_eq!(stats.vars_eliminated, 0);
        assert_eq!(s.num_eliminated_vars(), 0);
    }

    #[test]
    fn preprocess_preserves_unsat() {
        let mut s = Solver::new();
        let x: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        // Parity contradiction over hidden middle vars.
        s.add_clause(&[Lit::pos(x[0]), Lit::pos(x[1])]);
        s.add_clause(&[Lit::neg(x[0]), Lit::neg(x[1])]);
        s.add_clause(&[Lit::pos(x[1]), Lit::pos(x[2])]);
        s.add_clause(&[Lit::neg(x[1]), Lit::neg(x[2])]);
        s.add_clause(&[Lit::pos(x[0]), Lit::pos(x[2])]);
        s.add_clause(&[Lit::neg(x[0]), Lit::neg(x[2])]);
        s.preprocess(&[x[3]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn guarded_clauses_survive_with_frozen_selectors() {
        let mut s = Solver::new();
        let x = s.new_var();
        let mid = s.new_var();
        let s1 = s.new_selector();
        let s2 = s.new_selector();
        s.add_guarded_clause(s1, &[Lit::pos(mid)]);
        s.add_clause(&[Lit::neg(mid), Lit::pos(x)]);
        s.add_guarded_clause(s2, &[Lit::neg(x)]);
        s.preprocess(&[x, s1.var(), s2.var()]);
        assert_eq!(s.solve_with(&[s1]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.solve_with(&[s1, s2]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[s2]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(false));
        // Retiring a group after preprocessing still works: selectors
        // are frozen, so the unit clause mentions no eliminated var.
        assert!(s.add_clause(&[!s1]));
        assert_eq!(s.solve_with(&[s2]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(false));
    }

    #[test]
    fn preprocess_twice_is_idempotent_on_verdicts() {
        let mut s = Solver::new();
        let x: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        for w in x.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        let frozen = [x[0], x[5]];
        s.preprocess(&frozen);
        s.preprocess(&frozen);
        assert_eq!(
            s.solve_with(&[Lit::pos(x[0]), Lit::neg(x[5])]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve_with(&[Lit::pos(x[0])]), SolveResult::Sat);
    }

    #[test]
    fn units_propagate_through_preprocessing() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(b), Lit::pos(c)]);
        let stats = s.preprocess(&[c]);
        // Everything collapses to facts; no clauses remain.
        assert_eq!(s.num_clauses(), 0, "stats: {stats:?}");
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(c), Some(true));
    }

    #[test]
    fn empty_and_trivially_false_formulas() {
        let mut s = Solver::new();
        let st = s.preprocess(&[]);
        assert_eq!(st, PreprocessStats::default());
        assert_eq!(s.solve(), SolveResult::Sat);

        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        s.preprocess(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
