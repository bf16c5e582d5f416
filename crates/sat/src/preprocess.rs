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

use super::{Lit, Solver, Var, Watcher, LBOOL_UNDEF};
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

/// A clause's position in the solver's creation-order ref list. The pass
/// only appends to that list, so ids stay put until the final compaction.
type ClauseId = u32;

/// Scratch state for one preprocessing pass.
struct PpState {
    /// Occurrence lists over *problem* clauses, indexed by literal code.
    /// A deleted clause stays listed (readers skip it), except that a
    /// literal removed from a clause also leaves that literal's list.
    occ: Vec<Vec<ClauseId>>,
    /// Live clauses per literal code: the occ list minus its dead entries.
    live: Vec<u32>,
    /// Per-clause variable signature (1 bit per `var % 64`).
    sig: Vec<u64>,
    /// Subsumption worklist (FIFO) + membership flags.
    queue: VecDeque<ClauseId>,
    inq: Vec<bool>,
    /// Root units discovered but not yet pushed through the occ lists.
    units: VecDeque<Lit>,
    frozen: Vec<bool>,
    /// One variable's resolvents, back to back; `res_ends[k]` is where
    /// the k-th ends. Reused across variables.
    res_lits: Vec<Lit>,
    res_ends: Vec<usize>,
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
    ///
    /// The watch lists are released while the pass runs. At its end the
    /// clause arena is compacted to the live clauses and both watch
    /// layers are rebuilt at exact capacity.
    pub fn preprocess(&mut self, frozen: &[Var]) -> PreprocessStats {
        let nclauses = self.db.refs.len();
        let mut st = PpState {
            occ: vec![Vec::new(); 2 * self.assigns.len()],
            live: vec![0; 2 * self.assigns.len()],
            sig: vec![0; nclauses],
            queue: VecDeque::new(),
            inq: vec![false; nclauses],
            units: VecDeque::new(),
            frozen: vec![false; self.assigns.len()],
            res_lits: Vec::new(),
            res_ends: Vec::new(),
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
        // The pass never propagates; the watches are rebuilt at the end.
        for w in self.watches.iter_mut().chain(self.bin_watches.iter_mut()) {
            *w = Vec::new();
        }
        // Root simplification of problem clauses + occ/sig construction.
        // (Learnt clauses are redundant; they are cleaned up at the end.)
        for id in 0..nclauses {
            let c = self.db.refs[id];
            if self.db.is_deleted(c) || self.db.is_learnt(c) {
                continue;
            }
            if self.db.lits(c).iter().any(|&l| self.lit_value(l) == 1) {
                self.db.delete(c);
                continue;
            }
            let assigns = &self.assigns;
            self.db
                .retain_lits(c, |l| assigns[l.var().index()] == LBOOL_UNDEF);
            self.db.lits_mut(c).sort();
            match *self.db.lits(c) {
                [] => {
                    self.ok = false;
                    return st.stats;
                }
                [u] => {
                    self.db.delete(c);
                    st.units.push_back(u);
                }
                ref lits => {
                    st.sig[id] = lits_sig(lits);
                    for &l in lits {
                        st.occ[l.code()].push(id as ClauseId);
                        st.live[l.code()] += 1;
                    }
                    st.queue.push_back(id as ClauseId);
                    st.inq[id] = true;
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
        // Free the occurrence lists before the compaction copies the arena.
        drop(st.occ);
        self.pp_sweep();
        self.db.compact();
        self.pp_rebuild_watches();
        st.stats
    }

    /// Delete a live problem clause. Its occ entries stay (readers skip
    /// dead clauses); only the live counts drop.
    fn pp_delete(&mut self, st: &mut PpState, id: ClauseId) {
        let c = self.db.refs[id as usize];
        if self.db.is_deleted(c) {
            return;
        }
        self.db.delete(c);
        for &l in self.db.lits(c) {
            st.live[l.code()] -= 1;
        }
    }

    /// Remove literal `m` from clause `id` (self-subsuming resolution or
    /// unit pushing). May derive a new unit.
    fn pp_strengthen(&mut self, st: &mut PpState, id: ClauseId, m: Lit) -> bool {
        let c = self.db.refs[id as usize];
        if self.db.is_deleted(c) {
            return true;
        }
        if self.db.retain_lits(c, |l| l != m) > 0 {
            st.live[m.code()] -= 1;
        }
        let occ = &mut st.occ[m.code()];
        if let Some(p) = occ.iter().position(|&x| x == id) {
            occ.swap_remove(p);
        }
        st.sig[id as usize] = lits_sig(self.db.lits(c));
        st.stats.clauses_strengthened += 1;
        match *self.db.lits(c) {
            [] => false, // empty clause: unsatisfiable
            [u] => {
                self.pp_delete(st, id);
                st.units.push_back(u);
                true
            }
            _ => {
                if !st.inq[id as usize] {
                    st.inq[id as usize] = true;
                    st.queue.push_back(id);
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
            // Neither list is read again: every clause on them dies or
            // loses `!u`.
            for id in std::mem::take(&mut st.occ[u.code()]) {
                self.pp_delete(st, id);
            }
            for id in std::mem::take(&mut st.occ[(!u).code()]) {
                if !self.pp_strengthen(st, id, !u) {
                    return false;
                }
            }
        }
        true
    }

    /// Drain the subsumption worklist: each queued clause tries to
    /// subsume or strengthen its superset candidates.
    fn pp_subsume(&mut self, st: &mut PpState) -> bool {
        while let Some(id) = st.queue.pop_front() {
            st.inq[id as usize] = false;
            let cr = self.db.refs[id as usize];
            if self.db.is_deleted(cr) || st.stats.aborted {
                continue;
            }
            let c = self.db.lits(cr).to_vec();
            if c.len() > SUBSUME_LEN_LIMIT {
                continue;
            }
            // Candidates must contain every lit of `c` (possibly one
            // flipped); gather them from the least-occurring lit of `c`.
            let lmin = c
                .iter()
                .copied()
                .min_by_key(|l| st.live[l.code()] + st.live[(!*l).code()]);
            let Some(lmin) = lmin else { continue };
            let mut cands: Vec<ClauseId> = st.occ[lmin.code()].clone();
            cands.extend_from_slice(&st.occ[(!lmin).code()]);
            let csig = st.sig[id as usize];
            for di in cands {
                let dr = self.db.refs[di as usize];
                if di == id || self.db.is_deleted(dr) {
                    continue;
                }
                if !st.step(self) {
                    break;
                }
                let d = self.db.lits(dr);
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
            let budget = (st.live[pl] + st.live[nl]) as usize;
            if budget == 0 || budget > ELIM_OCC_LIMIT {
                continue;
            }
            let live = |id: &ClauseId| !self.db.is_deleted(self.db.refs[*id as usize]);
            let pos: Vec<ClauseId> = st.occ[pl].iter().copied().filter(live).collect();
            let neg: Vec<ClauseId> = st.occ[nl].iter().copied().filter(live).collect();
            if pos
                .iter()
                .chain(&neg)
                .any(|&id| self.db.len(self.db.refs[id as usize]) > ELIM_CLAUSE_LIMIT)
            {
                continue;
            }
            // Build all non-tautological resolvents; bail if they would
            // outnumber the clauses they replace.
            st.res_lits.clear();
            st.res_ends.clear();
            let mut over = false;
            'pairs: for &ci in &pos {
                for &di in &neg {
                    if !st.step(self) {
                        over = true;
                        break 'pairs;
                    }
                    if self.pp_resolve(ci, di, v, &mut st.res_lits) {
                        st.res_ends.push(st.res_lits.len());
                        if st.res_ends.len() > budget {
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
            for id in pos.into_iter().chain(neg) {
                self.pp_delete(st, id);
            }
            // Every clause on v's lists is dead now.
            st.occ[pl] = Vec::new();
            st.occ[nl] = Vec::new();
            let mut begin = 0;
            for k in 0..st.res_ends.len() {
                let end = st.res_ends[k];
                let r = &st.res_lits[begin..end];
                begin = end;
                st.stats.resolvents_added += 1;
                match *r {
                    [] => return false,
                    [u] => st.units.push_back(u),
                    _ => {
                        let id = self.db.refs.len() as ClauseId;
                        st.sig.push(lits_sig(r));
                        st.inq.push(true);
                        st.queue.push_back(id);
                        for &l in r {
                            st.occ[l.code()].push(id);
                            st.live[l.code()] += 1;
                        }
                        self.db.push(r, false, 0);
                    }
                }
            }
            if !self.pp_drain_units(st) {
                return false;
            }
        }
        true
    }

    /// Append to `out` the resolvent of clauses `ci` (contains `v`) and
    /// `di` (contains `¬v`) on `v`, merged from the two sorted clauses so
    /// it is sorted too. Returns `false`, with `out` as it was, if the
    /// resolvent is tautological.
    fn pp_resolve(&self, ci: ClauseId, di: ClauseId, v: Var, out: &mut Vec<Lit>) -> bool {
        let a = self.db.lits(self.db.refs[ci as usize]);
        let b = self.db.lits(self.db.refs[di as usize]);
        let begin = out.len();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let l = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x <= y => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, None) => break,
            };
            if l.var() == v {
                continue;
            }
            // Sorted by code ⇒ a repeat or the other polarity of a var
            // comes right after it.
            match out[begin..].last() {
                Some(&last) if last == l => continue,
                Some(&last) if last.var() == l.var() => {
                    out.truncate(begin);
                    return false;
                }
                _ => out.push(l),
            }
        }
        true
    }

    /// Last pass before compaction. Learnt clauses are redundant: drop
    /// any that mention an eliminated variable or a root-assigned literal
    /// (cheaper than resimplifying, and always sound). A live clause
    /// shorter than two literals (defensive: preprocessing turns these
    /// into trail facts) becomes one.
    fn pp_sweep(&mut self) {
        for k in 0..self.db.refs.len() {
            let c = self.db.refs[k];
            if self.db.is_deleted(c) {
                continue;
            }
            let learnt = self.db.is_learnt(c);
            let stale = learnt
                && self.db.lits(c).iter().any(|l| {
                    self.eliminated[l.var().index()] || self.assigns[l.var().index()] != LBOOL_UNDEF
                });
            let short = match *self.db.lits(c) {
                [] => Some(None),
                [u] => Some(Some(u)),
                _ => None,
            };
            if !stale && short.is_none() {
                continue;
            }
            self.db.delete(c);
            if learnt {
                self.num_learnt -= 1;
            }
            if !stale {
                match short.flatten().map(|u| (u, self.lit_value(u))) {
                    Some((_, 1)) => {}
                    Some((u, LBOOL_UNDEF)) => self.unchecked_enqueue(u, None),
                    _ => self.ok = false,
                }
            }
        }
    }

    /// Rebuild both watch layers from the compacted arena, each list at
    /// exact capacity, and re-run root propagation so the queue state is
    /// consistent.
    fn pp_rebuild_watches(&mut self) {
        let mut long = vec![0usize; self.watches.len()];
        let mut bin = vec![0usize; self.bin_watches.len()];
        for &c in &self.db.refs {
            if let [l0, l1, ref rest @ ..] = *self.db.lits(c) {
                let counts = if rest.is_empty() { &mut bin } else { &mut long };
                counts[(!l0).code()] += 1;
                counts[(!l1).code()] += 1;
            }
        }
        for (w, n) in self.watches.iter_mut().zip(long) {
            *w = Vec::with_capacity(n);
        }
        for (w, n) in self.bin_watches.iter_mut().zip(bin) {
            *w = Vec::with_capacity(n);
        }
        for &cref in &self.db.refs {
            if let [l0, l1, ref rest @ ..] = *self.db.lits(cref) {
                let lists = if rest.is_empty() {
                    &mut self.bin_watches
                } else {
                    &mut self.watches
                };
                lists[(!l0).code()].push(Watcher { cref, blocker: l1 });
                lists[(!l1).code()].push(Watcher { cref, blocker: l0 });
            }
        }
        // Root facts need no reasons (analysis never expands level 0);
        // clearing them keeps clause locking from pinning refs the
        // compaction invalidated.
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
