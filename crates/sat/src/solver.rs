//! The CDCL solver implementation.
//!
//! The solver is built for *incremental* use: the Houdini prover issues
//! thousands of closely-related queries against one formula, so
//!
//! - satisfying models are copied out of the search state (`value()` reads
//!   the copy), so adding clauses after a Sat verdict cannot leak model
//!   residue into clause simplification;
//! - every assumption of a `solve_with` call sits on one shared decision
//!   level, and a conflict never backtracks below it;
//! - backtracking is *chronological* (Nadel & Ryvchin, SAT 2018; Möhle &
//!   Biere, SAT 2019): an implied literal takes the highest level of its
//!   reason, a conflict undoes only its own decision level, and the
//!   asserting literal is placed at its true (lower) level out of order,
//!   so the levels a conflict did not use stay on the trail instead of
//!   being re-decided and re-propagated;
//! - callers disable clause groups by flipping a *selector* assumption
//!   ([`Solver::new_selector`] / [`Solver::add_guarded_clause`]) instead of
//!   retiring activation variables with ever-growing clauses;
//! - learnt clauses carry their LBD (literal block distance) and the
//!   clause database is periodically reduced by LBD-then-activity, keeping
//!   "glue" clauses across queries.

use pdat_governor::Governor;
use std::fmt;

/// A boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Index of the variable (0-based, dense).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index previously obtained from a solver.
    pub fn from_index(i: usize) -> Var {
        Var(i as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation. Encoded as `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Literal of `v` with the given phase (`true` = positive).
    pub fn with_phase(v: Var, phase: bool) -> Lit {
        if phase {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// Variable underneath.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if this is the positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code (used for watch lists).
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

const LBOOL_UNDEF: u8 = 2;

/// Watch-list entry: the clause plus a *blocker* literal (some other
/// literal of the clause, usually the co-watched one). If the blocker is
/// already true the clause is satisfied and the visit skips both pointer
/// hops into clause storage — the common case during the long assumption
/// placements and model completions incremental Houdini performs.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f32,
    /// Literal block distance at learning time (0 for problem clauses).
    /// Low-LBD ("glue") clauses are the ones worth keeping across queries.
    lbd: u32,
    deleted: bool,
}

type ClauseRef = u32;

/// Default cap on retained learnt clauses before a reduction pass.
const DEFAULT_CLAUSE_DB_LIMIT: usize = 8192;

/// Upper bound on how many conflicts may be charged to the governor in one
/// batch. Bounds how stale the shared counter can get (and therefore how
/// late a deadline/cancellation check can fire) while keeping the armed
/// overhead to one atomic add per batch instead of one per conflict.
const GOVERNOR_BATCH: u64 = 64;

/// Conflict-driven clause-learning SAT solver.
///
/// See the crate docs for an example. The solver is incremental: clauses may
/// be added between `solve` calls, and [`Solver::solve_with`] checks
/// satisfiability under temporary assumptions without permanently asserting
/// them.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>, // indexed by lit code (clauses of length ≥ 3)
    /// Dedicated binary-implication layer: for a two-literal clause
    /// `(a ∨ b)` the entry at `(!a).code()` is `(b, cref)` and vice
    /// versa. Binary clauses never move their watches, so propagation
    /// over them is a flat scan with no clause-storage hop — Tseitin
    /// encodings of AIGs are two-thirds binary clauses, which makes this
    /// the solver's hottest list.
    bin_watches: Vec<Vec<Watcher>>, // indexed by lit code (length-2 clauses)
    assigns: Vec<u8>,             // lbool per var
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Snapshot of `assigns` at the most recent Sat verdict; what
    /// [`Solver::value`] reads. Kept separate from the search state so the
    /// trail can survive between solve calls without model residue leaking
    /// into clause simplification.
    model: Vec<u8>,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>, // usize::MAX when absent
    polarity: Vec<bool>,  // saved phases
    /// Variables removed by bounded variable elimination
    /// ([`Solver::preprocess`]): never decided on, and guaranteed absent
    /// from every live clause. Their model value is unspecified.
    eliminated: Vec<bool>,
    num_eliminated: usize,
    // analysis scratch
    seen: Vec<bool>,
    lbd_stamp: Vec<u64>, // indexed by decision level
    lbd_gen: u64,
    // stats / limits
    conflicts: u64,
    solve_conflicts: u64, // conflicts in the current/most recent solve call
    decisions: u64,
    num_learnt: usize, // live (non-deleted) learnt clauses
    conflict_budget: Option<u64>,
    governor: Option<Governor>,
    /// Conflicts counted locally but not yet charged to the governor.
    pending_conflicts: u64,
    /// Conflicts until the next governor flush; sized from
    /// [`Governor::conflict_slack`] so exact-count stops still land exactly.
    charge_batch: u64,
    ok: bool,
    cla_inc: f32,
    learnt_cap: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            model: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            polarity: Vec::new(),
            eliminated: Vec::new(),
            num_eliminated: 0,
            seen: Vec::new(),
            lbd_stamp: vec![0],
            lbd_gen: 0,
            conflicts: 0,
            solve_conflicts: 0,
            decisions: 0,
            num_learnt: 0,
            conflict_budget: None,
            governor: None,
            pending_conflicts: 0,
            charge_batch: GOVERNOR_BATCH,
            ok: true,
            cla_inc: 1.0,
            learnt_cap: DEFAULT_CLAUSE_DB_LIMIT,
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBOOL_UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.eliminated.push(false);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.heap_pos.push(usize::MAX);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Allocate a fresh *selector* literal for guarded clauses.
    ///
    /// Pass the returned literal as an assumption to enable every clause
    /// added under it with [`Solver::add_guarded_clause`]; omit it (or add
    /// its negation as a unit clause) to disable the group permanently.
    /// Selectors replace the activation-variable pattern — disabling a
    /// group is an assumption flip, not a new clause accumulating in the
    /// database.
    pub fn new_selector(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Add `lits` guarded by `sel`: the stored clause is `!sel ∨ lits…`,
    /// so it only constrains the search while `sel` is assumed (or
    /// asserted) true. Returns `false` if the solver became trivially
    /// unsatisfiable.
    pub fn add_guarded_clause(&mut self, sel: Lit, lits: &[Lit]) -> bool {
        let mut c = Vec::with_capacity(lits.len() + 1);
        c.push(!sel);
        c.extend_from_slice(lits);
        self.add_clause(&c)
    }

    /// Number of problem (non-learnt) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learnt && !c.deleted).count()
    }

    /// Variables removed by [`Solver::preprocess`]'s bounded variable
    /// elimination (0 before any preprocessing).
    pub fn num_eliminated_vars(&self) -> usize {
        self.num_eliminated
    }

    /// Conflicts encountered so far (across all solve calls).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Limit the number of conflicts per [`Solver::solve`] call; `None`
    /// removes the limit. The counter resets at the start of every solve
    /// call, so a budget of `b` allows up to `b` conflicts *each* call (a
    /// budget of 0 makes every call return immediately). When exhausted,
    /// `solve` returns [`SolveResult::Unknown`] — the PDAT pipeline treats
    /// that as "property unproved", which is safe (paper §VII-C).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// The per-solve conflict budget currently in force.
    pub fn conflict_budget(&self) -> Option<u64> {
        self.conflict_budget
    }

    /// Cap the number of retained learnt clauses before a reduction pass
    /// runs (the cap still grows ~10% after each reduction so the database
    /// can breathe on genuinely hard queries).
    pub fn set_clause_db_limit(&mut self, limit: usize) {
        self.learnt_cap = limit.max(1);
    }

    /// Deterministically reseed every saved phase from `seed` (splitmix64
    /// per variable). Phase saving makes successive models nearly
    /// identical, which is exactly wrong for callers that *enumerate*
    /// models (each solve should land in a fresh region of the space);
    /// scrambling between model queries restores diversity without giving
    /// up phase saving inside a single search.
    pub fn scramble_phases(&mut self, seed: u64) {
        for (i, p) in self.polarity.iter_mut().enumerate() {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *p = (z ^ (z >> 31)) & 1 == 1;
        }
    }

    /// Move `lits` to the top of the decision order and set their saved
    /// phase to the literal's sign, so the next search decides them first
    /// (earlier slice positions win ties). Model-enumeration callers use
    /// this to *pack* models: deciding the objective literals up front
    /// makes each model satisfy as many of them as propagation allows,
    /// instead of stopping at the first one the search trips over.
    /// Activities then decay normally under the solver's VSIDS dynamics,
    /// so the boost is per-solve advice, not a permanent override.
    pub fn prioritize(&mut self, lits: &[Lit]) {
        let top = self.activity.iter().cloned().fold(0.0f64, f64::max);
        let step = self.var_inc.max(1.0);
        let boosted = top + step * (lits.len() as f64 + 1.0);
        if boosted > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            return self.prioritize(lits);
        }
        for (k, &l) in lits.iter().enumerate() {
            let v = l.var();
            self.activity[v.index()] = top + step * ((lits.len() - k) as f64);
            self.polarity[v.index()] = l.is_pos();
            self.heap_update(v);
        }
    }

    /// Conflicts spent by the most recent solve call (0 before any call).
    pub fn conflicts_last_solve(&self) -> u64 {
        self.solve_conflicts
    }

    /// Budget left over from the most recent solve call: per-solve budget
    /// minus [`Solver::conflicts_last_solve`] (`None` = unlimited). A
    /// governor uses this to apportion a global budget across successive
    /// queries without double-counting what the last query returned unused.
    pub fn remaining_conflict_budget(&self) -> Option<u64> {
        self.conflict_budget
            .map(|b| b.saturating_sub(self.solve_conflicts))
    }

    /// Attach a shared [`Governor`]: conflicts are charged to its global
    /// budget (in batches — see [`Governor::conflict_slack`]), and the
    /// search stops with [`SolveResult::Unknown`] when the governor reports
    /// exhaustion (global conflict cap, deadline, cancellation, or an armed
    /// solver fault).
    pub fn set_governor(&mut self, governor: Governor) {
        self.flush_governor_charges();
        self.governor = Some(governor);
    }

    /// Detach the governor (the per-solve budget still applies).
    pub fn clear_governor(&mut self) {
        self.flush_governor_charges();
        self.governor = None;
    }

    fn lit_value(&self, l: Lit) -> u8 {
        let a = self.assigns[l.var().index()];
        if a == LBOOL_UNDEF {
            LBOOL_UNDEF
        } else {
            (a ^ (l.0 & 1) as u8) & 1
        }
    }

    /// Value of `v` in the most recent satisfying model, or `None` if the
    /// variable was created after that model (or no Sat verdict has been
    /// returned yet). The model is a snapshot: it stays readable until the
    /// next solve call, even if clauses are added in between.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(0) => Some(false),
            Some(1) => Some(true),
            _ => None,
        }
    }

    /// Add a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver became trivially unsatisfiable (the
    /// clause is empty after simplification or contradicts current
    /// top-level units). Adding a clause unwinds any trail kept from a
    /// previous solve call: simplification must see top-level facts only.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        // Simplify: dedup, drop false lits, detect tautology/true lits.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for &l in &sorted {
            // Binary search keeps wide clauses (one literal per candidate)
            // O(n log n) to add.
            if sorted.binary_search(&!l).is_ok() {
                return true; // tautology
            }
            match self.lit_value(l) {
                1 => return true, // already satisfied at top level
                0 => continue,    // falsified at top level: drop
                _ => c.push(l),
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        // Binary clauses live only in the implication layer; the watcher's
        // blocker field doubles as "the other literal".
        let lists = if lits.len() == 2 {
            &mut self.bin_watches
        } else {
            &mut self.watches
        };
        lists[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        lists[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.num_learnt += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
            deleted: false,
        });
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Assign `l` at the current decision level (decisions, assumptions
    /// and level-0 facts).
    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        self.assign(l, self.decision_level(), from);
    }

    /// Assign `l` at `lvl`, which may lie below the current decision
    /// level: the trail is ordered by assignment time, not by level.
    fn assign(&mut self, l: Lit, lvl: u32, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBOOL_UNDEF);
        let v = l.var();
        self.assigns[v.index()] = u8::from(l.is_pos());
        self.level[v.index()] = lvl;
        self.reason[v.index()] = from;
        self.trail.push(l);
    }

    /// Level of a literal implied by clause `cref` (whose other literals
    /// are all false): the highest level among them. `p` is the literal
    /// whose propagation made the clause unit; when it sits on the current
    /// decision level no other literal can be higher.
    fn implied_level(&self, cref: ClauseRef, p: Lit) -> u32 {
        let lp = self.level[p.var().index()];
        if lp == self.decision_level() {
            return lp;
        }
        self.clauses[cref as usize].lits[1..]
            .iter()
            .map(|q| self.level[q.var().index()])
            .fold(lp, u32::max)
    }

    /// Two-watched-literal propagation. Returns a conflicting clause ref.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Binary layer first: each entry is (other literal, clause).
            // The list never shrinks during search (binaries are exempt
            // from clause-DB reduction), so a plain index walk is safe
            // even while enqueues extend the trail.
            let mut bi = 0;
            while bi < self.bin_watches[p.code()].len() {
                let w = self.bin_watches[p.code()][bi];
                bi += 1;
                match self.lit_value(w.blocker) {
                    1 => {}
                    0 => {
                        // Leave p queued: a backtrack that keeps it
                        // propagates it again.
                        self.qhead -= 1;
                        return Some(w.cref);
                    }
                    _ => {
                        // analyze() expects a reason clause's implied
                        // literal at position 0.
                        let c = &mut self.clauses[w.cref as usize];
                        if c.lits[0] != w.blocker {
                            c.lits.swap(0, 1);
                        }
                        let lvl = self.level[p.var().index()];
                        self.assign(w.blocker, lvl, Some(w.cref));
                    }
                }
            }
            let mut i = 0;
            let mut watch = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            while i < watch.len() {
                // Blocker check first: a true blocker means the clause is
                // satisfied — skip without touching clause storage.
                if self.lit_value(watch[i].blocker) == 1 {
                    i += 1;
                    continue;
                }
                let cref = watch[i].cref;
                if self.clauses[cref as usize].deleted {
                    watch.swap_remove(i);
                    continue;
                }
                // Ensure the falsified literal (!p) is at position 1.
                let falsified = !p;
                {
                    let c = &mut self.clauses[cref as usize];
                    if c.lits[0] == falsified {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref as usize].lits[0];
                if self.lit_value(first) == 1 {
                    watch[i].blocker = first;
                    i += 1;
                    continue; // clause satisfied
                }
                // Look for a new watch among lits[2..].
                let mut moved = false;
                let len = self.clauses[cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.lit_value(lk) != 0 {
                        self.clauses[cref as usize].lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        watch.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == 0 {
                    conflict = Some(cref);
                    self.qhead -= 1;
                    break;
                } else {
                    let lvl = self.implied_level(cref, p);
                    self.assign(first, lvl, Some(cref));
                    watch[i].blocker = first;
                    i += 1;
                }
            }
            // Put back remaining watchers.
            let existing = std::mem::replace(&mut self.watches[p.code()], watch);
            self.watches[p.code()].extend(existing);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in self.clauses.iter_mut() {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis over the literals of the current
    /// decision level, which must be the conflict's level (the highest
    /// level in `conflict`). Returns (learnt clause, level its asserting
    /// literal belongs on, LBD of the learnt clause); the learnt clause's
    /// highest-level other literal sits at position 1, so it is watched.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let conflict_level = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 for the asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            self.cla_bump(conflict);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[conflict as usize].lits.len() {
                let q = self.clauses[conflict as usize].lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] == conflict_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next literal of the conflict level to expand. The
            // trail is not sorted by level: lower-level literals already
            // in `learnt` may sit above it, and are skipped.
            loop {
                index -= 1;
                let l = self.trail[index];
                let v = l.var().index();
                if self.seen[v] && self.level[v] == conflict_level {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.unwrap();
                break;
            }
            conflict = self.reason[pv.index()].expect("non-decision must have reason");
        }
        // Clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = Vec::with_capacity(learnt.len());
        minimized.push(learnt[0]);
        for &l in &learnt[1..] {
            let r = self.reason[l.var().index()];
            let redundant = match r {
                None => false,
                Some(cr) => self.clauses[cr as usize].lits.iter().all(|&q| {
                    q.var() == l.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
                }),
            };
            if !redundant {
                minimized.push(l);
            }
        }
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = minimized;
        // LBD: distinct decision levels in the minimized clause, computed
        // before backtracking (levels are still the learning-time ones).
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let lvl = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lvl] != self.lbd_gen {
                self.lbd_stamp[lvl] = self.lbd_gen;
                lbd += 1;
            }
        }
        // Asserting level: the highest level among the other literals,
        // whose literal moves to watch position 1.
        let asserting_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, asserting_level, lbd)
    }

    /// Undo every assignment above level `lvl`. Assignments at or below
    /// `lvl` that sit above the level's trail mark (placed out of order)
    /// stay, compacted down, and are queued again: a clause they falsified
    /// may have been satisfied by a literal this backtrack undoes.
    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let mark = self.trail_lim[lvl as usize];
        let mut kept = mark;
        for i in mark..self.trail.len() {
            let l = self.trail[i];
            let v = l.var();
            if self.level[v.index()] <= lvl {
                self.trail[kept] = l;
                kept += 1;
                continue;
            }
            self.assigns[v.index()] = LBOOL_UNDEF;
            self.polarity[v.index()] = l.is_pos();
            self.reason[v.index()] = None;
            if self.heap_pos[v.index()] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(kept);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.qhead.min(mark);
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBOOL_UNDEF && !self.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    /// Reduce the learnt-clause database: delete the worse half of the
    /// deletable learnt clauses, ranked by descending LBD and then
    /// ascending activity. Binary and glue (LBD ≤ 2) clauses are kept
    /// unconditionally — they are the cheap, high-value deductions that
    /// make incremental re-solving pay off — as are clauses currently
    /// locked as a propagation reason.
    fn reduce_db(&mut self) {
        let mut cands: Vec<ClauseRef> = (0..self.clauses.len() as ClauseRef)
            .filter(|&cr| {
                let c = &self.clauses[cr as usize];
                c.learnt
                    && !c.deleted
                    && c.lits.len() > 2
                    && c.lbd > 2
                    && !(self.lit_value(c.lits[0]) == 1
                        && self.reason[c.lits[0].var().index()] == Some(cr))
            })
            .collect();
        cands.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).unwrap_or(std::cmp::Ordering::Equal))
        });
        for &cr in cands.iter().take(cands.len() / 2) {
            self.clauses[cr as usize].deleted = true;
            self.num_learnt -= 1;
        }
    }

    /// Push locally-counted conflicts to the governor's global counter.
    fn flush_governor_charges(&mut self) {
        if self.pending_conflicts > 0 {
            if let Some(g) = &self.governor {
                g.charge_conflicts(self.pending_conflicts);
            }
            self.pending_conflicts = 0;
        }
    }

    /// Size the next charge batch so the flush lands exactly on any armed
    /// conflict cap or fault threshold (exact-count stops), capped at
    /// [`GOVERNOR_BATCH`] to bound counter staleness.
    fn recompute_charge_batch(&mut self) {
        self.charge_batch = match &self.governor {
            Some(g) => g
                .conflict_slack()
                .map_or(GOVERNOR_BATCH, |s| s.clamp(1, GOVERNOR_BATCH)),
            None => GOVERNOR_BATCH,
        };
    }

    /// Solve the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solve under temporary `assumptions`.
    ///
    /// Every assumption is placed on one decision level (level 1) and
    /// propagated once; the search decides above it. A conflict at or
    /// below level 1 is Unsat; any other conflict undoes only its own
    /// level (chronological backtracking), and restarts stop at level 1.
    /// So a long assumption list (the Houdini hypothesis set) is placed
    /// once per call, and the decisions a conflict did not use are not
    /// re-decided. A learnt unit is assigned at level 0 where the search
    /// stands and outlives the call. The price of the single level is that
    /// the solver cannot tell which assumptions an Unsat verdict used.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.solve_conflicts = 0;
        // A zero budget or an already-exhausted governor means no work is
        // authorized: report Unknown before touching the search state.
        if self.conflict_budget == Some(0)
            || self.governor.as_ref().is_some_and(|g| g.solver_should_stop())
        {
            return SolveResult::Unknown;
        }
        self.recompute_charge_batch();
        self.cancel_until(0);
        let mut restart_idx = 0u64;
        let result = loop {
            match self.search(assumptions, luby(restart_idx) * 100) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Restart => {
                    restart_idx += 1;
                }
                SearchOutcome::BudgetExhausted => break SolveResult::Unknown,
            }
        };
        self.flush_governor_charges();
        if result == SolveResult::Sat {
            // Snapshot the model for value(). The trail stays until the next
            // add_clause or solve call unwinds it, so the model's phases are
            // saved after any scramble_phases in between.
            self.model.clear();
            self.model.extend_from_slice(&self.assigns);
        } else {
            // Nothing worth keeping from an Unsat or Unknown search.
            self.cancel_until(0);
        }
        result
    }

    /// Handle conflicting clause `confl`; returns `false` for Unsat. The
    /// conflict's level is the highest level in the clause, which may lie
    /// below the current decision level. At level 0 the formula itself is
    /// unsatisfiable, permanently: latching that is required for
    /// incremental reuse (the violated clause's watchers have already
    /// fired and will not fire again). At or below `assumption_level` it is
    /// a conflict under the assumptions alone. Otherwise the solver learns
    /// at the conflict level, undoes that level only, and assigns the
    /// asserting literal at its own level; a learnt unit goes to level 0
    /// in place.
    fn learn_from(&mut self, confl: ClauseRef, assumption_level: u32) -> bool {
        let conflict_level = self.clauses[confl as usize]
            .lits
            .iter()
            .map(|q| self.level[q.var().index()])
            .max()
            .unwrap_or(0);
        if conflict_level == 0 {
            self.ok = false;
            return false;
        }
        if conflict_level <= assumption_level {
            return false;
        }
        self.cancel_until(conflict_level);
        let (learnt, asserting_level, lbd) = self.analyze(confl);
        self.cancel_until(conflict_level - 1);
        let asserting = learnt[0];
        let from = if learnt.len() == 1 {
            None
        } else {
            Some(self.attach_clause(learnt, true, lbd))
        };
        self.assign(asserting, asserting_level, from);
        true
    }

    fn search(&mut self, assumptions: &[Lit], conflicts_before_restart: u64) -> SearchOutcome {
        // The decision level holding every assumption (0: none).
        let assumption_level = u32::from(!assumptions.is_empty());
        let mut local_conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                self.solve_conflicts += 1;
                local_conflicts += 1;
                if self.governor.is_some() {
                    self.pending_conflicts += 1;
                    if self.pending_conflicts >= self.charge_batch {
                        self.flush_governor_charges();
                        if self.governor.as_ref().is_some_and(|g| g.solver_should_stop()) {
                            return SearchOutcome::BudgetExhausted;
                        }
                        self.recompute_charge_batch();
                    }
                }
                if !self.learn_from(confl, assumption_level) {
                    return SearchOutcome::Unsat;
                }
                self.var_decay();
                self.cla_inc *= 1.001;
                if self.num_learnt > self.learnt_cap {
                    self.reduce_db();
                    self.learnt_cap += (self.learnt_cap / 10).max(1);
                }
                if let Some(b) = self.conflict_budget {
                    if self.solve_conflicts >= b {
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if local_conflicts >= conflicts_before_restart
                    && self.decision_level() > assumption_level
                {
                    self.cancel_until(assumption_level);
                    return SearchOutcome::Restart;
                }
            } else {
                // Place every assumption on one level, then propagate.
                if self.decision_level() < assumption_level {
                    self.trail_lim.push(self.trail.len());
                    for &a in assumptions {
                        match self.lit_value(a) {
                            1 => {}
                            0 => return SearchOutcome::Unsat,
                            _ => self.unchecked_enqueue(a, None),
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        // Conflict-free stretches (pure propagation) can run
                        // long on large encodings; poll deadline/cancellation
                        // every 1024 decisions so they still bite.
                        if self.decisions & 0x3FF == 0
                            && self
                                .governor
                                .as_ref()
                                .is_some_and(|g| g.is_cancelled() || g.deadline_exceeded())
                        {
                            return SearchOutcome::BudgetExhausted;
                        }
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(Lit::with_phase(v, phase), None);
                    }
                }
            }
        }
    }

    // --- indexed binary max-heap on activity ---

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = usize::MAX;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != usize::MAX {
            self.heap_sift_up(pos);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.heap_pos[self.heap[i].index()] = i;
                self.heap_pos[self.heap[parent].index()] = parent;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            self.heap_pos[self.heap[i].index()] = i;
            self.heap_pos[self.heap[best].index()] = best;
            i = best;
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

/// Luby restart sequence: 1,1,2,1,1,2,4,...
fn luby(i: u64) -> u64 {
    // luby(i) for 0-based i: if i+2 is a power of two, return (i+2)/2;
    // otherwise recurse on the remainder of the subsequence.
    let n = i + 1;
    let mut k = 1u64;
    while (1 << k) - 1 < n {
        k += 1;
    }
    if (1 << k) - 1 == n {
        1 << (k - 1)
    } else {
        luby(n - (1 << (k - 1)))
    }
}

// Child module so the preprocessor can reach the solver's private state;
// kept in its own file (and on the panic-lint allowlist) because it is
// written panic-free end to end.
#[path = "preprocess.rs"]
mod preprocess;
pub use preprocess::PreprocessStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::pigeonhole;

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn lit_encoding() {
        let v = Var::from_index(3);
        assert!(Lit::pos(v).is_pos());
        assert!(!Lit::neg(v).is_pos());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::with_phase(v, false), Lit::neg(v));
    }

    #[test]
    fn conflict_budget_is_per_solve_call() {
        let mut s = pigeonhole(9, 8);
        s.set_conflict_budget(Some(10));
        // Every call gets a fresh 10-conflict allowance: repeated calls keep
        // returning Unknown after exactly the budget, never Unsat-by-accident
        // and never less work because an earlier call "used up" the counter.
        for _ in 0..3 {
            assert_eq!(s.solve(), SolveResult::Unknown);
            assert_eq!(s.conflicts_last_solve(), 10);
            assert_eq!(s.remaining_conflict_budget(), Some(0));
        }
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.remaining_conflict_budget(), None);
    }

    #[test]
    fn zero_conflict_budget_returns_unknown_immediately() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.set_conflict_budget(Some(0));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.conflicts_last_solve(), 0);
    }

    #[test]
    fn governor_conflict_cap_forces_unknown() {
        use pdat_governor::{Cause, GovernorConfig};
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(5),
            ..Default::default()
        });
        let mut s = pigeonhole(9, 8);
        s.set_governor(g.clone());
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Batched charging must still stop at *exactly* the cap: the batch
        // is sized from the governor's slack.
        assert_eq!(g.conflicts_used(), 5);
        assert_eq!(g.exhausted(), Some(Cause::ConflictBudget));
        // Once the global budget is gone, later calls stop at entry.
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.conflicts_last_solve(), 0);
    }

    #[test]
    fn batched_charging_lands_exactly_on_cap() {
        use pdat_governor::GovernorConfig;
        // A cap that is neither 0 nor a multiple of the batch size: the
        // final short batch must still flush before the stop decision.
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(7),
            ..Default::default()
        });
        let mut s = pigeonhole(9, 8);
        s.set_governor(g.clone());
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(g.conflicts_used(), 7);
    }

    #[test]
    fn governor_charges_flush_on_every_exit_path() {
        use pdat_governor::GovernorConfig;
        // Unlimited cap: batches are GOVERNOR_BATCH-sized, so an Unsat
        // verdict mid-batch must flush the remainder — the global counter
        // equals the solver's own exact count afterwards.
        let g = Governor::new(&GovernorConfig::default());
        let mut s = pigeonhole(8, 7);
        s.set_governor(g.clone());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(g.conflicts_used(), s.num_conflicts());
        assert!(s.num_conflicts() > 0);
    }

    #[test]
    fn governor_fault_forces_unknown_at_entry() {
        use pdat_governor::{FaultPlan, GovernorConfig};
        let g = Governor::new(&GovernorConfig {
            fault_plan: FaultPlan {
                solver_unknown_after_conflicts: Some(0),
                ..Default::default()
            },
            ..Default::default()
        });
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.set_governor(g);
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.clear_governor();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn governor_fault_threshold_is_exact_under_batching() {
        use pdat_governor::{FaultPlan, GovernorConfig};
        let g = Governor::new(&GovernorConfig {
            fault_plan: FaultPlan {
                solver_unknown_after_conflicts: Some(3),
                ..Default::default()
            },
            ..Default::default()
        });
        let mut s = pigeonhole(9, 8);
        s.set_governor(g.clone());
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(g.conflicts_used(), 3);
        assert!(g.solver_should_stop());
    }

    #[test]
    fn add_clause_after_sat_model_does_not_poison() {
        // Regression: the old solver re-applied model values into the
        // assignment vector after Sat; a following add_clause would read
        // that residue as top-level facts, manufacture an empty clause, and
        // latch the whole solver Unsat. The model is now a snapshot.
        let mut s = Solver::new();
        let x = s.new_var();
        let act = s.new_var();
        s.add_clause(&[Lit::neg(act), Lit::pos(x)]);
        assert_eq!(s.solve_with(&[Lit::pos(act)]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(true));
        // Retiring the activation variable must not contradict anything:
        // act was an assumption, not a fact.
        assert!(s.add_clause(&[Lit::neg(act)]), "solver poisoned by model residue");
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[Lit::neg(x)]), SolveResult::Sat);
    }

    #[test]
    fn model_snapshot_survives_clause_addition() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
        assert_eq!(s.solve_with(&[Lit::neg(y)]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(true));
        // Adding a clause unwinds the trail but the snapshot keeps reading.
        s.add_clause(&[Lit::pos(y), Lit::neg(x)]);
        assert_eq!(s.value(x), Some(true));
    }

    #[test]
    fn selectors_toggle_guarded_clause_groups() {
        let mut s = Solver::new();
        let x = s.new_var();
        let s1 = s.new_selector();
        let s2 = s.new_selector();
        s.add_guarded_clause(s1, &[Lit::pos(x)]);
        s.add_guarded_clause(s2, &[Lit::neg(x)]);
        assert_eq!(s.solve_with(&[s1]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.solve_with(&[s2]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(false));
        assert_eq!(s.solve_with(&[s1, s2]), SolveResult::Unsat);
        // Both groups off: unconstrained, and the solver is still healthy.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Permanently retiring a group is a unit clause on the selector.
        assert!(s.add_clause(&[!s1]));
        assert_eq!(s.solve_with(&[s2]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(false));
    }

    #[test]
    fn assumption_prefix_reuse_is_sound_across_verdict_flips() {
        // Shared prefix [a]; the suffix flips between compatible and
        // contradictory assumptions. The trail a call leaves behind must
        // never leak a stale verdict into the next call.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::pos(b), Lit::pos(c)]);
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::neg(b), Lit::neg(c)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve_with(&[Lit::pos(a), Lit::neg(b)]), SolveResult::Sat);
        assert_eq!(s.value(c), Some(true));
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::neg(c), Lit::neg(b)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_on_one_level_conflict_with_each_other() {
        // Both assumptions share one decision level: the conflict between
        // them is a conflict under the assumptions, not a learnt backjump.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::pos(b)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(a) != Some(true) || s.value(b) != Some(true));
        // A literal and its complement: the second one is already false.
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::neg(a)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[Lit::pos(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(false));
        // Assumptions already fixed at level 0 are skipped or refuted.
        assert!(s.add_clause(&[Lit::pos(b)]));
        assert_eq!(s.solve_with(&[Lit::pos(b), Lit::pos(b)]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Open a decision level and assign `l` on it, without propagating.
    fn decide(s: &mut Solver, l: Lit) {
        s.trail_lim.push(s.trail.len());
        s.unchecked_enqueue(l, None);
    }

    #[test]
    fn conflict_keeps_the_levels_below_it() {
        // Decisions a, b, x on levels 1, 2, 3; x conflicts with a alone.
        // The learnt clause (¬a ∨ ¬x) asserts ¬x on level 1, but only
        // level 3 is undone: b keeps its level and trail slot, and ¬x is
        // placed above it, out of order.
        let mut s = Solver::new();
        let [a, b, x, y] = [(); 4].map(|_| s.new_var());
        s.add_clause(&[Lit::neg(a), Lit::neg(x), Lit::pos(y)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(x), Lit::neg(y)]);
        decide(&mut s, Lit::pos(a));
        assert!(s.propagate().is_none());
        decide(&mut s, Lit::pos(b));
        assert!(s.propagate().is_none());
        decide(&mut s, Lit::pos(x));
        let confl = s.propagate().expect("x conflicts under a");
        assert!(s.learn_from(confl, 0));
        assert_eq!(s.decision_level(), 2);
        assert_eq!(s.trail, vec![Lit::pos(a), Lit::pos(b), Lit::neg(x)]);
        assert_eq!(s.level[b.index()], 2);
        assert_eq!(s.level[x.index()], 1);
        assert!(s.reason[x.index()].is_some());
        assert_eq!(s.lit_value(Lit::pos(y)), LBOOL_UNDEF);
        assert_eq!(s.search(&[], 100), SearchOutcome::Sat);
        assert_eq!(s.lit_value(Lit::neg(x)), 1);
    }

    #[test]
    fn learnt_unit_goes_to_level_zero_in_place() {
        // With assumption a placed, the first decision x refutes itself:
        // the learnt unit ¬x is assigned at level 0 where the search
        // stands, so a never leaves its trail slot.
        let mut s = Solver::new();
        let [a, b, x, y] = [(); 4].map(|_| s.new_var());
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(x), Lit::pos(y)]);
        s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
        s.prioritize(&[Lit::pos(x)]);
        assert_eq!(s.solve_with(&[Lit::pos(a)]), SolveResult::Sat);
        assert_eq!(s.conflicts_last_solve(), 1);
        assert_eq!(s.trail[..3], [Lit::pos(a), Lit::pos(b), Lit::neg(x)]);
        assert_eq!(s.level[a.index()], 1);
        assert_eq!(s.level[x.index()], 0);
        assert_eq!(s.value(x), Some(false));
        // The unit is a fact: it survives the next add_clause's unwind
        // and refutes an assumption of x.
        assert!(s.add_clause(&[Lit::pos(b), Lit::pos(y)]));
        assert_eq!(s.trail, vec![Lit::neg(x)]);
        assert_eq!(s.level[x.index()], 0);
        assert_eq!(
            s.solve_with(&[Lit::pos(a), Lit::pos(x)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve_with(&[Lit::pos(a)]), SolveResult::Sat);
        assert_eq!(s.value(x), Some(false));
        assert_eq!(s.conflicts_last_solve(), 0);
    }

    #[test]
    fn conflict_below_the_decision_level_is_analysed_at_its_own_level() {
        // Decide a and then b without propagating a: a's implications
        // (y and ¬y) meet on level 1 while the solver stands on level 2,
        // a lower implication the search missed. The conflict is
        // analysed on level 1, which gives the fact ¬a.
        let build = |unsat: bool| {
            let mut s = Solver::new();
            let [a, b, y, z] = [(); 4].map(|_| s.new_var());
            s.add_clause(&[Lit::neg(a), Lit::pos(y)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(y)]);
            if unsat {
                s.add_clause(&[Lit::pos(a), Lit::pos(z)]);
                s.add_clause(&[Lit::pos(a), Lit::neg(z)]);
            }
            decide(&mut s, Lit::pos(a));
            decide(&mut s, Lit::pos(b));
            (s, a, b)
        };
        let (mut s, a, b) = build(false);
        let confl = s.propagate().expect("a refutes itself");
        assert!(s.learn_from(confl, 0));
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.trail, vec![Lit::neg(a)]);
        assert_eq!(s.level[a.index()], 0);
        assert_eq!(s.lit_value(Lit::pos(b)), LBOOL_UNDEF);
        assert_eq!(s.search(&[], 100), SearchOutcome::Sat);
        assert_eq!(s.lit_value(Lit::neg(a)), 1);
        // With ¬a refuted too, the fact ends the search: Unsat, latched.
        let (mut s, _, _) = build(true);
        assert_eq!(s.search(&[], 100), SearchOutcome::Unsat);
        assert!(!s.ok);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn clause_db_reduction_preserves_verdicts() {
        // A tight learnt cap forces many reduction passes mid-search; the
        // verdict must not change (deleting learnt clauses is always sound).
        let mut s = pigeonhole(8, 7);
        s.set_clause_db_limit(32);
        assert_eq!(s.solve(), SolveResult::Unsat);

        let mut s = Solver::new();
        let vars: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        for w in vars.windows(3) {
            s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1]), Lit::pos(w[2])]);
            s.add_clause(&[Lit::neg(w[0]), Lit::neg(w[2])]);
        }
        s.set_clause_db_limit(4);
        assert_eq!(s.solve(), SolveResult::Sat);
    }
}

#[cfg(test)]
mod repro_tests {
    use super::*;

    #[test]
    fn reusable_after_contradictory_assumptions_repro() {
        // Distilled from a proptest counterexample.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        let cl: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(v[0])],
            vec![Lit::pos(v[1])],
            vec![Lit::neg(v[4]), Lit::pos(v[2])],
            vec![Lit::neg(v[2]), Lit::pos(v[0])],
            vec![Lit::pos(v[4]), Lit::neg(v[3])],
            vec![Lit::neg(v[2]), Lit::neg(v[4])],
            vec![Lit::pos(v[3]), Lit::pos(v[4])],
        ];
        for c in &cl {
            assert!(s.add_clause(c));
        }
        // The formula is UNSAT (x4=1 forces x2 and !x2; x4=0 forces x3 and
        // !x3); the verdict must be stable across assumption calls.
        assert_eq!(s.solve(), SolveResult::Unsat);
        let _ = s.solve_with(&[Lit::pos(v[0]), Lit::neg(v[0])]);
        assert_eq!(s.solve(), SolveResult::Unsat, "root conflict must latch");
    }
}
