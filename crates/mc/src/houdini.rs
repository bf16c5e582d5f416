//! Houdini-style mutual induction over a two-frame SAT encoding on one
//! incremental solver.
//!
//! # Query shape
//!
//! The solver carries a *hypothesis* assumption literal for every
//! candidate (frame 0) plus a failure detector for every candidate still
//! to be vetted (frame 1): per active candidate a selector `t_j` with
//! `t_j → ¬holds_j@1`, folded into a balanced OR-tree whose root is
//! assumed on every query. The query "do all alive candidates stay
//! inductive?" is therefore a pure assumption list — hypotheses of the
//! alive set, in ascending candidate order, plus the tree root — and
//! dropping a candidate is an assumption omission plus one unit clause on
//! its fail selector, not a fresh activation variable and an ever-growing
//! activation clause. All encoding clauses have ≤ 3 literals, so
//! propagation stays local (a single activation clause over thousands of
//! indicator literals causes quadratic watch-list scans).
//!
//! # Cone-of-influence encoding
//!
//! The solver does not encode the full two-frame transition relation. It
//! Tseitin-encodes only the transitive-fanin cones a query can reach: the
//! environment-constraint cones on both frames, the frame-1 cones of the
//! active candidates' nets (through the latches back into frame 0), and
//! the frame-0 cones of every hypothesis. Shared AIG nodes are
//! structurally hashed per frame, so overlapping cones pay once. The
//! partial encoding is equisatisfiable with the full one for every query
//! the prover issues (the omitted Tseitin definitions are functions of
//! free inputs/state and can always be extended), and Houdini's fixpoint
//! is unique, so the proved set is bit-identical to a plain full-encoding
//! Houdini's — the test-only oracle in `tests/common/` that
//! `tests/prover_oracle.rs` compares against.
//!
//! # CNF preprocessing
//!
//! Once every cone is encoded, the solver runs
//! [`pdat_sat::Solver::preprocess`] once: bounded variable elimination
//! plus subsumption/self-subsuming resolution. Everything the prover
//! touches from outside — hypothesis assumption literals, fail selectors,
//! OR-tree selectors and root, frame-1 indicator literals it reads models
//! from, and the frame-0 latch interface — is passed as *frozen* so
//! assumptions, drop-via-`¬fail` units, and model reads keep working.
//! Preprocessing is deterministic and its step count is charged to the
//! governor's separate preprocessing meter, never to the conflict budget.

use crate::candidates::{Candidate, CandidateId, CandidateKind};
use crate::sim_filter::panic_message;
use pdat_aig::{Aig, AigLit, ConeEncoder, FrameEncoder, NetlistAig};
use pdat_governor::{Cause, DegradationEvent, Governor, Stage};
use pdat_sat::{Lit, SolveResult, Solver, Var};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Knobs of the prove stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveConfig {
    /// Not read by the prover, which runs on one solver and one thread.
    /// Kept so that configurations and harnesses that size their thread
    /// pools from it keep working.
    pub threads: usize,
}

impl Default for ProveConfig {
    fn default() -> Self {
        ProveConfig { threads: 4 }
    }
}

/// Proof-engine knobs.
#[derive(Debug, Clone)]
pub struct HoudiniConfig {
    /// SAT conflict budget per iteration query (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// Maximum consecution queries before giving up (dropping the rest).
    pub max_iterations: usize,
    /// Prove-stage knobs.
    pub prove: ProveConfig,
}

impl Default for HoudiniConfig {
    fn default() -> Self {
        HoudiniConfig {
            conflict_budget: Some(200_000),
            max_iterations: 10_000,
            prove: ProveConfig::default(),
        }
    }
}

/// Size and timing counters of one SAT solver a
/// [`houdini_prove_warm_governed`] run built.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Problem clauses before preprocessing (equals `clauses_post` when
    /// preprocessing never ran).
    pub clauses_pre: usize,
    /// Live problem clauses at the end of the run.
    pub clauses_post: usize,
    /// Wall-clock seconds spent building the frame encoding.
    pub encode_seconds: f64,
    /// Wall-clock seconds spent inside SAT queries.
    pub solve_seconds: f64,
    /// Wall-clock seconds spent in CNF preprocessing.
    pub preprocess_seconds: f64,
}

/// Statistics from a [`houdini_prove_warm_governed`] run.
#[derive(Debug, Clone, Default)]
pub struct HoudiniStats {
    /// Total SAT queries, base case and consecution.
    pub iterations: usize,
    /// Consecution rounds: 1 when the consecution solver ran, 0 otherwise.
    pub rounds: usize,
    /// Candidates dropped by counterexamples (a constrained reset state or
    /// an induction step that violates them).
    pub dropped: usize,
    /// Candidates dropped because of resource exhaustion.
    pub dropped_by_budget: usize,
    /// Original candidate indices dropped by resource exhaustion, in drop
    /// order. Budget drops always discard the **upper half** of the alive
    /// active candidates (the highest, i.e. latest-generated, indices), so
    /// this list is deterministic for a given candidate sequence and
    /// budget — reruns drop the same candidates.
    pub dropped_candidates: Vec<usize>,
    /// SAT conflicts consumed.
    pub conflicts: u64,
    /// Warm-start invariants assumed as pre-proved hypotheses (matched by
    /// canonical id against the candidate set). These count toward the
    /// proved output but are never re-checked and never droppable.
    pub warm_assumed: usize,
    /// Per-solver breakdown (one entry per solver the run built).
    pub shard_stats: Vec<ShardStats>,
}

/// The run's bookkeeping: which slots are still alive, and the stats and
/// events every drop is recorded in.
struct Ledger<'r> {
    /// Candidate index per slot.
    resolvable: &'r [usize],
    alive: Vec<bool>,
    stats: HoudiniStats,
    events: Vec<DegradationEvent>,
}

impl Ledger<'_> {
    /// Drop `slots` as a resource cut (always sound: unproved candidates
    /// are not rewired), recorded as one event when any was alive.
    fn drop_budget(
        &mut self,
        slots: impl IntoIterator<Item = usize>,
        cause: Cause,
        detail: String,
    ) {
        let mut dropped = 0;
        for slot in slots {
            if self.alive[slot] {
                self.alive[slot] = false;
                self.stats.dropped_by_budget += 1;
                self.stats.dropped_candidates.push(self.resolvable[slot]);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.events.push(DegradationEvent {
                stage: Stage::Prove,
                cause,
                dropped,
                detail,
            });
        }
    }
}

/// The consecution solver: a cone-of-influence two-frame encoding with a
/// hypothesis literal for every slot and failure detectors for the active
/// slots.
struct Prover {
    solver: Solver,
    /// `(slot, frame-0 "candidate holds" assumption literal)` for every
    /// slot alive at build time, in ascending slot order.
    hyp: Vec<(usize, Lit)>,
    /// Active slots (ascending); `fail` and `ind1` run parallel to it.
    active: Vec<usize>,
    /// Fail selector per active candidate: assuming the OR-tree root asks
    /// for *some* enabled selector to be true, and `fail_j → ¬holds_j@1`.
    /// Dropping candidate j permanently is the unit clause `¬fail_j`.
    fail: Vec<Lit>,
    /// Frame-1 "candidate holds" literal per active candidate
    /// (model-defined in every Sat verdict — equalities use a full
    /// biconditional).
    ind1: Vec<Lit>,
    /// Root of the OR-tree over `fail`.
    root: Lit,
    /// Problem-clause count taken just before preprocessing.
    clauses_pre: usize,
    encode_seconds: f64,
    preprocess_seconds: f64,
    solve_seconds: f64,
}

/// Prove candidates by mutual induction under a shared [`Governor`],
/// warm-started with invariants already proved under a *weaker* (superset)
/// environment (`warm` may be empty for a cold run).
///
/// Both halves of the induction are checked by SAT: the base case (every
/// reset state the constraint allows satisfies the candidate,
/// `Init ∧ C@0 ⊨ P_j`) and consecution. Running
/// [`crate::simulate_filter_governed`] first only makes this cheaper: it
/// kills most false candidates before any solver is built.
///
/// Returns the proved subset, run statistics, and degradation events.
///
/// # Governance
///
/// SAT conflicts are charged to the global budget, each query's per-solve
/// budget is `min(config.conflict_budget, global conflicts left)`, and
/// global exhaustion (budget, deadline, cancellation, or an armed solver
/// fault) drops *all* still-alive candidates — recorded in the stats and
/// as [`DegradationEvent`]s — instead of proving them. Dropping is sound
/// (paper §VII-C): an unproved candidate is simply not rewired.
///
/// # Soundness (lattice monotonicity)
///
/// An invariant proved under environment constraint `C` holds on every
/// execution allowed by any stronger constraint `C' ⊨ C` — the allowed
/// executions only shrink. Moreover an inductive *set* stays inductive
/// under `C'` (the consecution query only gains assumptions), so the warm
/// set `W` may be assumed as permanent frame-0 hypotheses without ever
/// being re-checked at frame 1. The caller is responsible for the lattice
/// relation: every id in `warm` must name an invariant proved under an
/// environment whose constraint is implied by `constraint`, on this same
/// netlist.
///
/// # Exactness
///
/// On an unbudgeted run the result is bit-identical to the cold run:
/// Houdini's fixpoint is the greatest inductive subset `G` of the
/// candidate set, the union of inductive sets is inductive, and `W ⊆ G`
/// (it is itself inductive under `C'`), so proving the greatest `D` with
/// `W ∪ D` inductive yields exactly `G` again — only the SAT work for the
/// warm slice is skipped. Budgeted runs may differ (budget cuts depend on
/// where conflicts land) but remain sound: drops only shrink the result.
///
/// Warm ids that match no candidate in `candidates` (or resolve to no AIG
/// literal) are ignored.
pub fn houdini_prove_warm_governed(
    aig: &Aig,
    constraint: AigLit,
    na: &NetlistAig,
    candidates: &[Candidate],
    warm: &[CandidateId],
    config: &HoudiniConfig,
    governor: &Governor,
) -> (Vec<Candidate>, HoudiniStats, Vec<DegradationEvent>) {
    // Candidates whose nets have no AIG literal can't be reasoned about;
    // they are excluded up front (neither proved nor counted as dropped).
    let resolvable: Vec<usize> = (0..candidates.len())
        .filter(|&i| {
            let c = &candidates[i];
            na.net_lit.contains_key(&c.net)
                && match c.kind {
                    CandidateKind::EqualNet(o) => na.net_lit.contains_key(&o),
                    _ => true,
                }
        })
        .collect();

    // Split slots into the warm slice (pre-proved, assumed forever) and the
    // active slice (everything the fixpoint still has to vet).
    let warm_ids: HashSet<CandidateId> = warm.iter().copied().collect();
    let active: Vec<usize> = (0..resolvable.len())
        .filter(|&s| !warm_ids.contains(&candidates[resolvable[s]].canonical_id()))
        .collect();
    let mut ledger = Ledger {
        resolvable: &resolvable,
        alive: vec![true; resolvable.len()],
        stats: HoudiniStats {
            warm_assumed: resolvable.len() - active.len(),
            ..HoudiniStats::default()
        },
        events: Vec::new(),
    };

    if let Some(cause) = governor.exhausted() {
        // Nothing left before any encoding: drop every *active* candidate
        // with one aggregated event. Warm invariants carry proofs from
        // their original run, so exhaustion cannot un-prove them.
        ledger.drop_budget(
            active.iter().copied(),
            cause,
            "before the first prove round".to_string(),
        );
    } else if !active.is_empty() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            check_base(
                aig,
                constraint,
                na,
                candidates,
                &active,
                &mut ledger,
                config,
                governor,
            );
            let active: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&s| ledger.alive[s])
                .collect();
            if active.is_empty() {
                return;
            }
            ledger.stats.rounds = 1;
            let mut prover =
                Prover::build(aig, constraint, na, candidates, &ledger, active, governor);
            prover.run(&mut ledger, config, governor);
            ledger.stats.conflicts += prover.solver.num_conflicts();
            ledger.stats.shard_stats.push(ShardStats {
                clauses_pre: prover.clauses_pre,
                clauses_post: prover.solver.num_clauses(),
                encode_seconds: prover.encode_seconds,
                solve_seconds: prover.solve_seconds,
                preprocess_seconds: prover.preprocess_seconds,
            });
        }));
        if let Err(payload) = run {
            // Isolate the panic: the solver state is untrusted, so drop
            // every unvetted candidate — degraded, never corrupted.
            let msg = panic_message(payload.as_ref()).to_string();
            ledger.drop_budget(active.iter().copied(), Cause::WorkerPanic, msg);
        }
    }

    let proved = (0..resolvable.len())
        .filter(|&slot| ledger.alive[slot])
        .map(|slot| candidates[resolvable[slot]])
        .collect();
    (proved, ledger.stats, ledger.events)
}

impl Prover {
    /// Encode the two-frame transition relation restricted to the cones of
    /// influence: the environment constraint on both frames, failure
    /// detectors + OR-tree for the active slots, and a hypothesis literal
    /// for every alive slot; then preprocess the CNF once.
    fn build(
        aig: &Aig,
        constraint: AigLit,
        na: &NetlistAig,
        candidates: &[Candidate],
        ledger: &Ledger,
        active: Vec<usize>,
        governor: &Governor,
    ) -> Prover {
        let t0 = Instant::now();
        let mut solver = Solver::new();
        solver.set_governor(governor.clone());
        let mut enc = ConeEncoder::new(aig, &mut solver);
        let c0 = enc.lit(&mut solver, 0, constraint);
        solver.add_clause(&[c0]);
        let c1 = enc.lit(&mut solver, 1, constraint);
        solver.add_clause(&[c1]);
        let mut fail = Vec::with_capacity(active.len());
        let mut ind1 = Vec::with_capacity(active.len());
        for &slot in &active {
            let c = &candidates[ledger.resolvable[slot]];
            let holds = holds_lit(&mut solver, na, c, |s, l| enc.lit(s, 1, l));
            let t = solver.new_selector();
            // t_j → candidate j is violated at frame 1.
            solver.add_guarded_clause(t, &[!holds]);
            fail.push(t);
            ind1.push(holds);
        }

        // Everything assumed, asserted as drop units, or read from models
        // must survive preprocessing: fail selectors and the frame-1
        // indicators the drop logic reads out of Sat models.
        let mut frozen_extra: Vec<Var> = fail.iter().chain(&ind1).map(|l| l.var()).collect();

        // Balanced OR-tree: root → (some fail selector true). One ternary
        // clause per node keeps propagation local regardless of the
        // candidate count. Every tree selector (interior and root) is
        // frozen: eliminating an interior one would flatten the tree back
        // into the wide activation clause the ≤3-literal encoding exists
        // to avoid.
        let mut layer: Vec<Lit> = fail.clone();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if let [a, b] = *pair {
                    let o = solver.new_selector();
                    solver.add_guarded_clause(o, &[a, b]);
                    frozen_extra.push(o.var());
                    next.push(o);
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        let root = layer[0];

        // Frame-0 hypotheses, one per alive slot in ascending order.
        let hyp: Vec<(usize, Lit)> = (0..ledger.resolvable.len())
            .filter(|&slot| ledger.alive[slot])
            .map(|slot| {
                let c = &candidates[ledger.resolvable[slot]];
                let target = enc.lit(&mut solver, 0, na.net_lit[&c.net]);
                let lit = match c.kind {
                    CandidateKind::ConstFalse => !target,
                    CandidateKind::ConstTrue => target,
                    CandidateKind::EqualNet(other) => {
                        let o = enc.lit(&mut solver, 0, na.net_lit[&other]);
                        let s = solver.new_selector();
                        solver.add_guarded_clause(s, &[target, !o]);
                        solver.add_guarded_clause(s, &[!target, o]);
                        s
                    }
                };
                (slot, lit)
            })
            .collect();
        let encode_seconds = t0.elapsed().as_secs_f64();

        // One-shot deterministic CNF preprocessing, freezing every literal
        // the drop loop assumes, asserts, or reads.
        let clauses_pre = solver.num_clauses();
        let mut frozen: Vec<Var> = hyp.iter().map(|(_, l)| l.var()).collect();
        frozen.extend(frozen_extra);
        frozen.extend(enc.state_vars().iter().map(|l| l.var()));
        let t1 = Instant::now();
        solver.preprocess(&frozen);
        Prover {
            solver,
            hyp,
            active,
            fail,
            ind1,
            root,
            clauses_pre,
            encode_seconds,
            preprocess_seconds: t1.elapsed().as_secs_f64(),
            solve_seconds: 0.0,
        }
    }

    /// The drop loop, one solve per pass. A pass assumes the frame-0
    /// hypotheses of every alive candidate and the OR-tree root, which
    /// asks for a frame-1 violation of some active candidate whose fail
    /// selector is still enabled. Unsat proves the alive set inductive. A
    /// model drops every active candidate it falsifies, and a per-query
    /// budget cut drops the upper half of the alive active slice. Each
    /// drop is committed at once as the unit clause `¬fail`, and the next
    /// pass solves against the shrunken hypothesis set: retracting a
    /// dropped hypothesis is what exposes *chained* failures (a candidate
    /// whose counterexample needs a state violating a dropped hypothesis),
    /// so mass drops compound layer by layer.
    fn run(&mut self, ledger: &mut Ledger, config: &HoudiniConfig, governor: &Governor) {
        let mut solves = 0;
        loop {
            let alive_active: Vec<usize> = (0..self.active.len())
                .filter(|&k| ledger.alive[self.active[k]])
                .collect();
            if alive_active.is_empty() {
                break;
            }
            let all_active = self.active.iter().copied();
            if solves >= config.max_iterations {
                ledger.drop_budget(
                    all_active,
                    Cause::IterationCap,
                    format!("gave up after {} iterations", config.max_iterations),
                );
                break;
            }
            // Time-driven cuts (not deterministic, but sound).
            if governor.is_cancelled() {
                ledger.drop_budget(all_active, Cause::Cancelled, "cancelled".to_string());
                break;
            }
            if governor.deadline_exceeded() {
                ledger.drop_budget(all_active, Cause::Deadline, "deadline passed".to_string());
                break;
            }
            self.solver
                .set_conflict_budget(per_solve_budget(config, governor));
            let mut assumptions: Vec<Lit> = self
                .hyp
                .iter()
                .filter(|&&(slot, _)| ledger.alive[slot])
                .map(|&(_, l)| l)
                .collect();
            assumptions.push(self.root);
            // Pack each model: decide the alive fail selectors first (phase
            // true), so one counterexample violates as many candidates as
            // the transition relation admits instead of the first one the
            // search trips over. Selectors that cannot be violated under
            // the current hypotheses just get flipped back by conflict
            // analysis.
            let prio: Vec<Lit> = alive_active.iter().map(|&k| self.fail[k]).collect();
            self.solver.prioritize(&prio);
            let t0 = Instant::now();
            let verdict = self.solver.solve_with(&assumptions);
            self.solve_seconds += t0.elapsed().as_secs_f64();
            solves += 1;
            ledger.stats.iterations += 1;
            match verdict {
                // The alive set is inductive: fixpoint.
                SolveResult::Unsat => break,
                SolveResult::Sat => {
                    // Drop every active candidate falsified at frame 1; the
                    // OR-tree (dropped selectors are fixed off by their
                    // units) guarantees the model violates an alive one.
                    let mut units: Vec<Lit> = Vec::new();
                    for &k in &alive_active {
                        let l = self.ind1[k];
                        if self.solver.value(l.var()) != Some(l.is_pos()) {
                            ledger.alive[self.active[k]] = false;
                            ledger.stats.dropped += 1;
                            units.push(!self.fail[k]);
                        }
                    }
                    if units.is_empty() {
                        // Defensive: a model must falsify something; if
                        // not, stop rather than loop forever.
                        ledger.drop_budget(
                            self.active.iter().copied(),
                            Cause::IterationCap,
                            format!("iteration {solves}: model without progress"),
                        );
                        break;
                    }
                    // Counterexample enumeration wants *diverse* models —
                    // phase saving would re-find near-identical states and
                    // shed one candidate at a time. Reseed phases
                    // deterministically per solve so the next model
                    // falsifies a fresh swath. The units come after the
                    // reseed: the first one unwinds the model's trail,
                    // whose saved phases overwrite part of the scramble.
                    self.solver.scramble_phases(solves as u64);
                    for f in units {
                        self.solver.add_clause(&[f]);
                    }
                }
                SolveResult::Unknown => {
                    let all_active = self.active.iter().copied();
                    if governor.is_cancelled() {
                        ledger.drop_budget(
                            all_active,
                            Cause::Cancelled,
                            "query cancelled".to_string(),
                        );
                        break;
                    }
                    if governor.deadline_exceeded() {
                        ledger.drop_budget(
                            all_active,
                            Cause::Deadline,
                            "deadline during query".to_string(),
                        );
                        break;
                    }
                    if governor.remaining_conflicts() == Some(0) {
                        // The global pool (capped by an armed solver
                        // fault) is spent; no retry is possible.
                        ledger.drop_budget(
                            all_active,
                            Cause::ConflictBudget,
                            format!("iteration {solves}: conflict budget exhausted"),
                        );
                        break;
                    }
                    // Per-query budget exhausted: deterministically drop the
                    // upper half of the alive active slice (highest
                    // candidate indices) and retry on the cheaper remainder.
                    let upper = &alive_active[alive_active.len() / 2..];
                    for &k in upper {
                        self.solver.add_clause(&[!self.fail[k]]);
                    }
                    ledger.drop_budget(
                        upper.iter().map(|&k| self.active[k]),
                        Cause::ConflictBudget,
                        format!(
                            "iteration {solves}: per-query budget exhausted, dropped upper half"
                        ),
                    );
                }
            }
        }
    }
}

/// Conflict budget for one query: `config.conflict_budget`, capped by
/// the global conflicts left so one runaway query cannot overdraw the
/// shared pool.
fn per_solve_budget(config: &HoudiniConfig, governor: &Governor) -> Option<u64> {
    match (config.conflict_budget, governor.remaining_conflicts()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Base case: drop every active candidate some reset state allowed by the
/// constraint violates (`Init ∧ C@0 ∧ ¬P_j` satisfiable). One solver over
/// the reset frame; each pass asks for a constrained reset state that
/// violates any unchecked candidate and drops every candidate the model
/// violates, until the query is Unsat. An inconclusive query drops the
/// unchecked rest as a resource cut.
#[allow(clippy::too_many_arguments)]
fn check_base(
    aig: &Aig,
    constraint: AigLit,
    na: &NetlistAig,
    candidates: &[Candidate],
    active: &[usize],
    ledger: &mut Ledger,
    config: &HoudiniConfig,
    governor: &Governor,
) {
    let t0 = Instant::now();
    let mut solver = Solver::new();
    solver.set_governor(governor.clone());
    let enc = FrameEncoder::new(aig, &mut solver);
    let init = enc.initial_state();
    let frame = enc.encode_frame(&mut solver, &init);
    solver.add_clause(&[frame.lit(constraint)]);
    let holds: Vec<Lit> = active
        .iter()
        .map(|&slot| {
            let c = &candidates[ledger.resolvable[slot]];
            holds_lit(&mut solver, na, c, |_, l| frame.lit(l))
        })
        .collect();
    let encode_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut unchecked: Vec<usize> = (0..active.len()).collect();
    while !unchecked.is_empty() {
        // act → some unchecked candidate is violated; retired after the
        // query.
        let act = Lit::pos(solver.new_var());
        let mut violated = vec![!act];
        violated.extend(unchecked.iter().map(|&k| !holds[k]));
        solver.add_clause(&violated);
        solver.set_conflict_budget(per_solve_budget(config, governor));
        let verdict = solver.solve_with(&[act]);
        ledger.stats.iterations += 1;
        match verdict {
            SolveResult::Unsat => break,
            SolveResult::Sat => {
                let (bad, ok): (Vec<usize>, Vec<usize>) = unchecked
                    .iter()
                    .partition(|&&k| solver.value(holds[k].var()) != Some(holds[k].is_pos()));
                if bad.is_empty() {
                    // Defensive: a model must violate something.
                    ledger.drop_budget(
                        ok.iter().map(|&k| active[k]),
                        Cause::IterationCap,
                        "base case: model without progress".to_string(),
                    );
                    break;
                }
                for k in bad {
                    ledger.alive[active[k]] = false;
                    ledger.stats.dropped += 1;
                }
                unchecked = ok;
                solver.add_clause(&[!act]);
            }
            SolveResult::Unknown => {
                let cause = governor.exhausted().unwrap_or(Cause::ConflictBudget);
                ledger.drop_budget(
                    unchecked.iter().map(|&k| active[k]),
                    cause,
                    "base case inconclusive".to_string(),
                );
                break;
            }
        }
    }
    ledger.stats.conflicts += solver.num_conflicts();
    ledger.stats.shard_stats.push(ShardStats {
        clauses_pre: solver.num_clauses(),
        clauses_post: solver.num_clauses(),
        encode_seconds,
        solve_seconds: t1.elapsed().as_secs_f64(),
        preprocess_seconds: 0.0,
    });
}

/// "Candidate holds" literal over `lit`, which maps an AIG literal to its
/// SAT literal in one frame. It must be model-defined in both directions
/// (a Sat model decides which candidates to drop by reading it), so
/// equalities use the full biconditional.
fn holds_lit(
    solver: &mut Solver,
    na: &NetlistAig,
    c: &Candidate,
    mut lit: impl FnMut(&mut Solver, AigLit) -> Lit,
) -> Lit {
    let target = lit(solver, na.net_lit[&c.net]);
    match c.kind {
        CandidateKind::ConstFalse => !target,
        CandidateKind::ConstTrue => target,
        CandidateKind::EqualNet(other) => {
            let o = lit(solver, na.net_lit[&other]);
            // t <-> (target == o)
            let t = Lit::pos(solver.new_var());
            solver.add_clause(&[!t, target, !o]);
            solver.add_clause(&[!t, !target, o]);
            solver.add_clause(&[t, target, o]);
            solver.add_clause(&[t, !target, !o]);
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates_for_netlist;
    use pdat_aig::netlist_to_aig;
    use pdat_netlist::{CellKind, Netlist};

    /// A cold, ungoverned run.
    fn prove(
        na: &NetlistAig,
        cands: &[Candidate],
        config: &HoudiniConfig,
    ) -> (Vec<Candidate>, HoudiniStats) {
        let (proved, stats, _) = houdini_prove_warm_governed(
            &na.aig,
            AigLit::TRUE,
            na,
            cands,
            &[],
            config,
            &Governor::unlimited(),
        );
        (proved, stats)
    }

    #[test]
    fn proves_self_holding_latch() {
        // A latch with D = Q, init 0: provably constant 0 by induction.
        let mut nl = Netlist::new("t");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        nl.add_output("q", q);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![Candidate {
            net: q,
            kind: CandidateKind::ConstFalse,
        }];
        let (proved, stats) = prove(&na, &cands, &HoudiniConfig::default());
        assert_eq!(proved.len(), 1);
        assert_eq!(stats.dropped, 0);
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn drops_candidate_false_at_reset() {
        // A latch with D = Q, init 1: "q == 0" and "q == 1" are each
        // inductive, and together their hypotheses are contradictory, so
        // consecution alone proves both. Only the base case tells them
        // apart.
        let mut nl = Netlist::new("t");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, true, "q");
        nl.assign_alias(fb, q);
        nl.add_output("q", q);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: q,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: q,
                kind: CandidateKind::ConstTrue,
            },
        ];
        let (proved, stats) = prove(&na, &cands, &HoudiniConfig::default());
        assert_eq!(proved, vec![cands[1]], "only q == 1 holds from reset");
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn drops_non_inductive_candidate() {
        // A free input is not provably constant.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::Buf, &[a], "y");
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: y,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: y,
                kind: CandidateKind::EqualNet(a),
            },
        ];
        let (proved, _) = prove(&na, &cands, &HoudiniConfig::default());
        // y==a is combinationally true (proved); y==0 is not.
        assert_eq!(proved.len(), 1);
        assert!(matches!(proved[0].kind, CandidateKind::EqualNet(_)));
    }

    #[test]
    fn mutual_induction_couples_candidates() {
        // Two latches: q1 <= q2, q2 <= q1, both init 0. Individually
        // non-inductive, together inductive.
        let mut nl = Netlist::new("t");
        let fb1 = nl.add_net("fb1");
        let fb2 = nl.add_net("fb2");
        let q1 = nl.add_dff(fb2, false, "q1");
        let q2 = nl.add_dff(fb1, false, "q2");
        nl.assign_alias(fb1, q1);
        nl.assign_alias(fb2, q2);
        nl.add_output("q1", q1);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: q1,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: q2,
                kind: CandidateKind::ConstFalse,
            },
        ];
        let (proved, _) = prove(&na, &cands, &HoudiniConfig::default());
        assert_eq!(proved.len(), 2, "mutual induction proves both");
    }

    #[test]
    fn single_solver_drops_chained_failures() {
        // A shift register fed by a free input: q0' = a, q1' = q0,
        // q2' = q1, all init 0. Under the hypotheses "every stage == 0"
        // only q0 can fail at frame 1; retracting its hypothesis exposes
        // q1, and then q2 — one drop per pass, nothing proved.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q0 = nl.add_dff(a, false, "q0");
        let q1 = nl.add_dff(q0, false, "q1");
        let q2 = nl.add_dff(q1, false, "q2");
        nl.add_output("y", q2);
        let na = netlist_to_aig(&nl, &[]);
        let cands: Vec<Candidate> = [q0, q1, q2]
            .into_iter()
            .map(|net| Candidate {
                net,
                kind: CandidateKind::ConstFalse,
            })
            .collect();
        let (proved, stats) = prove(&na, &cands, &HoudiniConfig::default());
        assert!(proved.is_empty(), "every stage is falsifiable: {proved:?}");
        assert_eq!(stats.dropped, 3);
        // One base-case query, then one consecution pass per stage.
        assert_eq!(stats.iterations, 1 + 3, "each pass exposes one more stage");
    }

    #[test]
    fn unsound_seed_repro_mutually_exclusive_failures() {
        // Regression for the pre-rework engine: q_even' = q_even | a,
        // q_odd' = q_odd | !a, both init 0. Both "constant 0" candidates
        // are falsifiable, but never in the same model (a picks one), and
        // the old solver latched Unsat after the first counterexample's
        // activation clause was retired against model residue — silently
        // proving the survivor. Neither may be proved.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na_inv = nl.add_cell(CellKind::Inv, &[a], "na");
        let fb_e = nl.add_net("fb_e");
        let fb_o = nl.add_net("fb_o");
        let q_even = nl.add_dff(fb_e, false, "q_even");
        let q_odd = nl.add_dff(fb_o, false, "q_odd");
        let d_e = nl.add_cell(CellKind::Or2, &[q_even, a], "d_e");
        let d_o = nl.add_cell(CellKind::Or2, &[q_odd, na_inv], "d_o");
        nl.assign_alias(fb_e, d_e);
        nl.assign_alias(fb_o, d_o);
        nl.add_output("e", q_even);
        nl.add_output("o", q_odd);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: q_even,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: q_odd,
                kind: CandidateKind::ConstFalse,
            },
        ];
        let (proved, stats) = prove(&na, &cands, &HoudiniConfig::default());
        assert!(
            proved.is_empty(),
            "mutually-exclusive failures must all be dropped, got {proved:?}"
        );
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn budget_drops_are_recorded_and_deterministic() {
        // Several coupled candidates under a starvation budget: the Unknown
        // path must fire, and the recorded drop list must be identical on a
        // rerun and consistent with the aggregate counter.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        let y = nl.add_cell(CellKind::And2, &[a, q], "y");
        let z = nl.add_cell(CellKind::Or2, &[y, q], "z");
        nl.add_output("z", z);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let config = HoudiniConfig {
            conflict_budget: Some(0),
            max_iterations: 8,
            prove: ProveConfig::default(),
        };
        let (proved1, stats1) = prove(&na, &cands, &config);
        let (proved2, stats2) = prove(&na, &cands, &config);
        assert_eq!(proved1, proved2, "budget drops must be deterministic");
        assert_eq!(stats1.dropped_candidates, stats2.dropped_candidates);
        assert_eq!(stats1.dropped_by_budget, stats1.dropped_candidates.len());
        let mut sorted = stats1.dropped_candidates.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            stats1.dropped_candidates.len(),
            "no double drops"
        );
        assert!(sorted.iter().all(|&i| i < cands.len()));
    }

    #[test]
    fn unbudgeted_runs_repeat_their_proved_set_and_counters() {
        // A fixed pseudo-random sequential design with state feedback,
        // under an environment that holds one input low. Two unbudgeted
        // runs must prove the same set with the same solver work: the
        // solver's decision order (the heap it rebuilds each query) must
        // not depend on anything but the run's own inputs.
        let mut nl = Netlist::new("t");
        let inputs: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let feedback: Vec<_> = (0..8).map(|i| nl.add_net(format!("fb{i}"))).collect();
        let mut nets = inputs.clone();
        for (i, &fb) in feedback.iter().enumerate() {
            nets.push(nl.add_dff(fb, i % 3 == 0, format!("q{i}")));
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut pick = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for k in 0..120 {
            let (a, b, c) = (
                nets[pick(nets.len())],
                nets[pick(nets.len())],
                nets[pick(nets.len())],
            );
            let (kind, pins) = match pick(6) {
                0 => (CellKind::And2, vec![a, b]),
                1 => (CellKind::Or2, vec![a, b]),
                2 => (CellKind::Xor2, vec![a, b]),
                3 => (CellKind::Mux2, vec![a, b, c]),
                4 => (CellKind::Nand2, vec![a, b]),
                _ => (CellKind::Nor2, vec![a, b]),
            };
            nets.push(nl.add_cell(kind, &pins, format!("n{k}")));
        }
        for (i, &fb) in feedback.iter().enumerate() {
            nl.assign_alias(fb, nets[nets.len() - 1 - 7 * i]);
        }
        for (i, &n) in nets.iter().rev().take(4).enumerate() {
            nl.add_output(format!("o{i}"), n);
        }
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let env = !na.net_lit[&inputs[0]];
        let run = || {
            houdini_prove_warm_governed(
                &na.aig,
                env,
                &na,
                &cands,
                &[],
                &HoudiniConfig::default(),
                &Governor::unlimited(),
            )
        };
        let (proved1, stats1, _) = run();
        let (proved2, stats2, _) = run();
        assert!(
            stats1.conflicts > 0,
            "the design must make the solver search"
        );
        assert_eq!(proved1, proved2, "proved sets differ between runs");
        assert_eq!(stats1.iterations, stats2.iterations);
        assert_eq!(stats1.conflicts, stats2.conflicts);
        let sizes = |s: &HoudiniStats| {
            s.shard_stats
                .iter()
                .map(|x| (x.clauses_pre, x.clauses_post))
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&stats1), sizes(&stats2));
    }

    #[test]
    fn governed_global_budget_drops_all_with_event() {
        use pdat_governor::{Cause, Governor, GovernorConfig, Stage};
        // Provable mutual-induction pair, but the global conflict budget is
        // gone before the first query: everything must be dropped, with the
        // drop attributed to the Prove stage.
        let mut nl = Netlist::new("t");
        let fb1 = nl.add_net("fb1");
        let fb2 = nl.add_net("fb2");
        let q1 = nl.add_dff(fb2, false, "q1");
        let q2 = nl.add_dff(fb1, false, "q2");
        nl.assign_alias(fb1, q1);
        nl.assign_alias(fb2, q2);
        nl.add_output("q1", q1);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: q1,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: q2,
                kind: CandidateKind::ConstFalse,
            },
        ];
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(0),
            ..Default::default()
        });
        let (proved, stats, events) = houdini_prove_warm_governed(
            &na.aig,
            AigLit::TRUE,
            &na,
            &cands,
            &[],
            &HoudiniConfig::default(),
            &g,
        );
        assert!(proved.is_empty());
        assert_eq!(stats.dropped_by_budget, 2);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, Stage::Prove);
        assert_eq!(events[0].cause, Cause::ConflictBudget);
        assert_eq!(events[0].dropped, 2);
        // The ungoverned run proves both — the degraded result is a subset.
        let (full, _) = prove(&na, &cands, &HoudiniConfig::default());
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn governed_run_never_overdraws_the_global_budget() {
        use pdat_governor::{Governor, GovernorConfig};
        // Per-solve budgets are capped by the global conflicts left, so
        // the sum of all charged conflicts can never exceed the global cap.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        let y = nl.add_cell(CellKind::And2, &[a, q], "y");
        let z = nl.add_cell(CellKind::Or2, &[y, q], "z");
        nl.add_output("z", z);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        for cap in [1u64, 3, 50] {
            let g = Governor::new(&GovernorConfig {
                conflict_budget: Some(cap),
                ..Default::default()
            });
            let _ = houdini_prove_warm_governed(
                &na.aig,
                AigLit::TRUE,
                &na,
                &cands,
                &[],
                &HoudiniConfig::default(),
                &g,
            );
            assert!(
                g.conflicts_used() <= cap,
                "cap={cap}: overdrew to {}",
                g.conflicts_used()
            );
        }
    }

    #[test]
    fn warm_start_matches_cold_fixpoint() {
        // Buffer chain with mixed true/false candidates: warm-starting with
        // any subset of the cold proved set must reproduce the cold proved
        // set exactly (same members, same order), with fewer checks.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y0 = nl.add_cell(CellKind::Buf, &[a], "y0");
        let y1 = nl.add_cell(CellKind::Buf, &[y0], "y1");
        let y2 = nl.add_cell(CellKind::Buf, &[y1], "y2");
        nl.add_output("y", y2);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let (cold, _) = prove(&na, &cands, &HoudiniConfig::default());
        assert!(!cold.is_empty());
        // Warm sets of increasing size, including the full cold set.
        for take in [1, cold.len() / 2, cold.len()] {
            let warm: Vec<CandidateId> = cold[..take].iter().map(|c| c.canonical_id()).collect();
            let (hot, stats, events) = houdini_prove_warm_governed(
                &na.aig,
                AigLit::TRUE,
                &na,
                &cands,
                &warm,
                &HoudiniConfig::default(),
                &Governor::unlimited(),
            );
            assert!(events.is_empty());
            assert_eq!(cold, hot, "warm start (|W|={take}) changed the fixpoint");
            assert_eq!(stats.warm_assumed, take);
        }
    }

    #[test]
    fn warm_start_carries_mutual_induction_partner() {
        // q1/q2 coupled pair: warm-starting with q2's proof lets the run
        // prove q1 without ever vetting q2.
        let mut nl = Netlist::new("t");
        let fb1 = nl.add_net("fb1");
        let fb2 = nl.add_net("fb2");
        let q1 = nl.add_dff(fb2, false, "q1");
        let q2 = nl.add_dff(fb1, false, "q2");
        nl.assign_alias(fb1, q1);
        nl.assign_alias(fb2, q2);
        nl.add_output("q1", q1);
        let na = netlist_to_aig(&nl, &[]);
        let cands = vec![
            Candidate {
                net: q1,
                kind: CandidateKind::ConstFalse,
            },
            Candidate {
                net: q2,
                kind: CandidateKind::ConstFalse,
            },
        ];
        let warm = vec![cands[1].canonical_id()];
        let (proved, stats, _) = houdini_prove_warm_governed(
            &na.aig,
            AigLit::TRUE,
            &na,
            &cands,
            &warm,
            &HoudiniConfig::default(),
            &Governor::unlimited(),
        );
        assert_eq!(proved, cands, "warm partner completes the coupled proof");
        assert_eq!(stats.warm_assumed, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn exhausted_governor_keeps_warm_invariants() {
        use pdat_governor::GovernorConfig;
        // A zero conflict budget drops all active candidates but must not
        // un-prove the warm set: those proofs were paid for elsewhere.
        let mut nl = Netlist::new("t");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        let a = nl.add_input("a");
        let y = nl.add_cell(CellKind::And2, &[a, q], "y");
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let warm: Vec<CandidateId> = cands
            .iter()
            .filter(|c| c.net == q && c.kind == CandidateKind::ConstFalse)
            .map(|c| c.canonical_id())
            .collect();
        assert_eq!(warm.len(), 1);
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(0),
            ..Default::default()
        });
        let (proved, stats, events) = houdini_prove_warm_governed(
            &na.aig,
            AigLit::TRUE,
            &na,
            &cands,
            &warm,
            &HoudiniConfig::default(),
            &g,
        );
        assert_eq!(proved.len(), 1, "warm invariant survives exhaustion");
        assert_eq!(proved[0].canonical_id(), warm[0]);
        assert_eq!(stats.warm_assumed, 1);
        assert!(events.iter().all(|e| e.dropped < cands.len()));
    }

    #[test]
    fn budget_exhaustion_drops_not_wrong() {
        // A tiny budget can only reduce the proved set, never prove junk.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, false, "q");
        nl.assign_alias(fb, q);
        let y = nl.add_cell(CellKind::And2, &[a, q], "y");
        nl.add_output("y", y);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        // Honor the precondition: candidates must already hold on simulated
        // executions from reset (base case) before induction runs.
        let (survivors, _, _) = crate::simulate_filter_governed(
            &na,
            AigLit::TRUE,
            &cands,
            &crate::SimFilterConfig {
                cycles: 128,
                ..Default::default()
            },
            &|r, words| {
                for w in words {
                    *w = rand::Rng::gen::<u64>(r);
                }
            },
            17,
            &Governor::unlimited(),
        );
        let (proved, _) = prove(
            &na,
            &survivors,
            &HoudiniConfig {
                conflict_budget: Some(1),
                max_iterations: 4,
                prove: ProveConfig::default(),
            },
        );
        // Whatever survived must actually be true: check by exhaustive
        // 2-frame simulation over all inputs.
        for c in &proved {
            match c.kind {
                CandidateKind::ConstFalse => {
                    assert!(c.net == q || c.net == y, "only stuck-at-0 nets: {c:?}");
                }
                CandidateKind::ConstTrue => panic!("nothing is constant 1 here"),
                CandidateKind::EqualNet(o) => {
                    // y == a is false when q=0? y = a&0 = 0, a free: y==a
                    // fails for a=1. y==q (0==0) holds.
                    assert!(c.net == y && o == q, "only y==q is a valid equality: {c:?}");
                }
            }
        }
    }
}
