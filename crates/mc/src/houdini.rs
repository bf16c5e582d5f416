//! Houdini-style mutual induction over a two-frame SAT encoding —
//! incremental and sharded.
//!
//! # Query shape
//!
//! Each shard owns a deterministic slice of the candidate set but carries a
//! *hypothesis* assumption literal for **every** candidate (frame 0) plus a
//! failure detector for its **own** candidates (frame 1): per own candidate
//! a selector `t_j` with `t_j → ¬holds_j@1`, folded into a balanced OR-tree
//! whose root is assumed on every query. The query "do all alive candidates
//! stay inductive?" is therefore a pure assumption list — hypotheses of the
//! globally-alive set, in ascending candidate order, plus the tree root —
//! and dropping a candidate is an assumption omission plus one unit clause
//! on its fail selector, not a fresh activation variable and an
//! ever-growing activation clause. All encoding clauses have ≤ 3 literals,
//! so propagation stays local (the old single activation clause over
//! thousands of indicator literals caused quadratic watch-list scans).
//!
//! # Cone-of-influence encoding
//!
//! A shard does not encode the full two-frame transition relation. It
//! Tseitin-encodes only the
//! transitive-fanin cones it can ever query: the frame-1 cones of its *own*
//! candidates' nets (through the latches back into frame 0), the
//! environment-constraint cones on both frames, and — lazily, at the first
//! base-assumption build that needs them — the frame-0 cones of the alive
//! hypothesis candidates. A candidate dropped before a shard's first pass
//! never gets its cone built. Shared AIG nodes are structurally hashed per
//! frame, so overlapping cones pay once. The partial encoding is
//! equisatisfiable with the full one for every query the shard issues (the
//! omitted Tseitin definitions are functions of free inputs/state and can
//! always be extended), and Houdini's fixpoint is unique, so the proved set
//! is bit-identical to a plain full-encoding Houdini's — the test-only
//! oracle in `tests/common/` that `tests/parallel_determinism.rs` compares
//! against.
//!
//! # CNF preprocessing
//!
//! Each shard runs [`pdat_sat::Solver::preprocess`] once, right after its first
//! base-assumption build (so every lazily-requested hypothesis cone is
//! already in the CNF): bounded variable elimination plus
//! subsumption/self-subsuming resolution. Everything the prover touches
//! from outside — hypothesis assumption literals, fail selectors, OR-tree
//! selectors and root, frame-1 indicator literals it reads models from,
//! and the frame-0 latch interface — is passed as *frozen* so assumptions,
//! drop-via-`¬fail` units, and model reads keep working. Preprocessing is
//! deterministic and its step count is charged to the governor's separate
//! preprocessing meter, never to the pre-apportioned conflict allowances.
//!
//! # Cross-shard fixpoint
//!
//! A drop in one shard invalidates the hypothesis assumptions other shards
//! made, so shards iterate rounds: every *dirty* shard re-solves against
//! the current global alive snapshot, drops are merged **in shard order**,
//! and a shard becomes dirty again only when a *different* shard dropped
//! something that round. The fixpoint (no shard drops) is the same greatest
//! inductive subset the sequential algorithm computes: Houdini's fixpoint
//! is unique regardless of the order in which refuted candidates are
//! removed, so the partition affects only the path, never the answer
//! (budget cuts excepted — see below).
//!
//! # Determinism
//!
//! The proved set is bit-identical for any thread count: shard partition
//! depends only on `shard_size`, each round pre-apportions the remaining
//! global conflict allowance across dirty shards in shard order (the same
//! fixed-order trick the falsification engine uses for cycle budgets), and
//! a worker consults only its own allowance for drop decisions. The global
//! conflict counter cannot force a stop while a shard still has allowance
//! left (the apportioned shares sum to at most the pool), so budget cuts
//! are allowance-driven and deterministic. Deadline and cancellation cuts
//! are inherently time-driven and therefore *not* thread-deterministic,
//! but remain sound — same caveat as the falsification engine. An armed
//! solver fault trips on the shared counter, so faulted runs force
//! sequential shard execution to stay reproducible.

use crate::candidates::{Candidate, CandidateId, CandidateKind};
use pdat_aig::{Aig, AigLit, ConeEncoder, NetlistAig};
use pdat_governor::{Cause, DegradationEvent, Governor, Stage};
use pdat_sat::{Lit, SolveResult, Solver, Var};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Knobs for the incremental, sharded prover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveConfig {
    /// Worker threads for dirty shards (clamped to ≥ 1; forced to 1 when a
    /// solver fault is armed so injected faults stay reproducible). Never
    /// affects results.
    pub threads: usize,
    /// Candidates per shard; 0 = one shard for everything. The partition —
    /// and under budget cuts the proved set — depends on this value, never
    /// on `threads`.
    pub shard_size: usize,
    /// Learnt-clause retention cap per shard solver (see
    /// [`pdat_sat::Solver::set_clause_db_limit`]).
    pub clause_db_limit: usize,
}

impl Default for ProveConfig {
    fn default() -> Self {
        ProveConfig {
            threads: 4,
            shard_size: 0,
            clause_db_limit: 8192,
        }
    }
}

/// Proof-engine knobs.
#[derive(Debug, Clone)]
pub struct HoudiniConfig {
    /// SAT conflict budget per iteration query (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// Maximum SAT queries per shard before giving up (dropping the rest).
    pub max_iterations: usize,
    /// Sharding / solver-reuse knobs.
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

/// Per-shard solver and timing counters from a [`houdini_prove_warm_governed`] run.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index (candidate-order position of the slice).
    pub shard: usize,
    /// Candidates owned by this shard.
    pub candidates: usize,
    /// Owned candidates proved.
    pub proved: usize,
    /// SAT queries issued by this shard across all rounds.
    pub solves: usize,
    /// SAT conflicts spent by this shard's solver.
    pub conflicts: u64,
    /// Problem clauses before preprocessing (equals `clauses_post` when
    /// preprocessing never ran).
    pub clauses_pre: usize,
    /// Live problem clauses at the end of the run.
    pub clauses_post: usize,
    /// Wall-clock seconds spent building the shard's frame encoding.
    pub encode_seconds: f64,
    /// Wall-clock seconds spent inside SAT queries.
    pub solve_seconds: f64,
    /// Wall-clock seconds spent in CNF preprocessing.
    pub preprocess_seconds: f64,
}

/// Statistics from a [`houdini_prove_warm_governed`] run.
#[derive(Debug, Clone, Default)]
pub struct HoudiniStats {
    /// Total SAT queries across all shards and rounds.
    pub iterations: usize,
    /// Cross-shard fixpoint rounds.
    pub rounds: usize,
    /// Candidates dropped by induction counterexamples.
    pub dropped: usize,
    /// Candidates dropped because of resource exhaustion.
    pub dropped_by_budget: usize,
    /// Original candidate indices dropped by resource exhaustion, in drop
    /// order (within a round, merged in shard order). Budget drops always
    /// discard the **upper half** of a shard's alive slice (the highest,
    /// i.e. latest-generated, indices), so this list is deterministic for
    /// a given candidate sequence, budget, and shard size — reruns drop
    /// the same candidates.
    pub dropped_candidates: Vec<usize>,
    /// SAT conflicts consumed (sum over shards).
    pub conflicts: u64,
    /// Warm-start invariants assumed as pre-proved hypotheses (matched by
    /// canonical id against the candidate set). These count toward the
    /// proved output but are never re-checked, never owned by a shard, and
    /// never droppable.
    pub warm_assumed: usize,
    /// Per-shard breakdown.
    pub shard_stats: Vec<ShardStats>,
}

/// One shard: a private solver holding a cone-of-influence two-frame
/// encoding, with hypothesis literals for every candidate and failure
/// detectors for the owned slice.
struct Shard<'a> {
    index: usize,
    solver: Solver,
    /// Frame-0 "candidate holds" assumption literal, indexed by slot
    /// (position in the resolvable-candidate list). Shared hypothesis
    /// vocabulary: every shard assumes the globally-alive subset of these.
    /// An entry stays `None` until [`Shard::hyp_lit`] first encodes its
    /// frame-0 cone.
    hyp: Vec<Option<Lit>>,
    /// Demand-driven cone encoder.
    enc: ConeEncoder<'a>,
    /// Set once [`Shard::run_preprocess`] has run: the CNF may have
    /// eliminated variables, so no further cones may be encoded.
    preprocessed: bool,
    /// Variables the preprocessor must not eliminate, beyond the hypothesis
    /// literals: fail selectors, OR-tree selectors + root, and frame-1
    /// indicator vars (models are read through them).
    frozen_extra: Vec<Var>,
    /// Problem-clause count taken just before preprocessing.
    clauses_pre: Option<usize>,
    preprocess_seconds: f64,
    /// Owned slots (ascending).
    own: Vec<usize>,
    /// Fail selector per owned candidate (parallel to `own`): assuming the
    /// OR-tree root asks for *some* enabled selector to be true, and
    /// `fail_j → ¬holds_j@1`. Dropping candidate j permanently is the unit
    /// clause `¬fail_j`.
    fail: Vec<Lit>,
    /// Frame-1 "candidate holds" literal per owned candidate (model-defined
    /// in every Sat verdict — equalities use a full biconditional).
    ind1: Vec<Lit>,
    /// Root of the OR-tree over `fail`.
    root: Lit,
    /// Alive flag per owned candidate (parallel to `own`).
    own_alive: Vec<bool>,
    solves: usize,
    encode_seconds: f64,
    solve_seconds: f64,
    /// SAT conflicts this shard spent in its most recent round — the
    /// scheduler's cost signal for longest-first dispatch. `None` until
    /// the shard has run once.
    last_round_conflicts: Option<u64>,
    /// Set after a worker panic: the solver state is untrusted, the owned
    /// candidates are dropped, and the shard never runs again.
    dead: bool,
}

impl<'a> Shard<'a> {
    fn alive_count(&self) -> usize {
        self.own_alive.iter().filter(|&&a| a).count()
    }

    /// Frame-0 hypothesis literal for `slot`, encoding its cone on demand.
    ///
    /// # Panics
    ///
    /// Panics if a cone would have to be encoded after preprocessing (the
    /// CNF may have eliminated the cone's shared variables). This cannot
    /// happen in the current round structure — every slot is alive at the
    /// first base build, which precedes preprocessing — and a violation is
    /// caught by the per-shard panic isolation (sound: the shard is
    /// poisoned and its candidates dropped).
    fn hyp_lit(
        &mut self,
        slot: usize,
        na: &NetlistAig,
        candidates: &[Candidate],
        resolvable: &[usize],
    ) -> Lit {
        if let Some(l) = self.hyp[slot] {
            return l;
        }
        assert!(
            !self.preprocessed,
            "hypothesis cone requested after preprocessing"
        );
        let enc = &mut self.enc;
        let c = &candidates[resolvable[slot]];
        let target = enc.lit(&mut self.solver, 0, na.net_lit[&c.net]);
        let l = match c.kind {
            CandidateKind::ConstFalse => !target,
            CandidateKind::ConstTrue => target,
            CandidateKind::EqualNet(other) => {
                let o = enc.lit(&mut self.solver, 0, na.net_lit[&other]);
                let s = self.solver.new_selector();
                self.solver.add_guarded_clause(s, &[target, !o]);
                self.solver.add_guarded_clause(s, &[!target, o]);
                s
            }
        };
        self.hyp[slot] = Some(l);
        l
    }

    /// One-shot deterministic CNF preprocessing. Runs after the first base
    /// build so every lazily-encoded hypothesis cone is already present;
    /// freezes every literal the round loop assumes, asserts, or reads.
    fn run_preprocess(&mut self) {
        if self.preprocessed {
            return;
        }
        self.preprocessed = true;
        self.clauses_pre = Some(self.solver.num_clauses());
        let mut frozen: Vec<Var> = Vec::new();
        frozen.extend(self.hyp.iter().flatten().map(|l| l.var()));
        frozen.extend(self.frozen_extra.iter().copied());
        frozen.extend(self.enc.state_vars().iter().map(|l| l.var()));
        let t0 = Instant::now();
        self.solver.preprocess(&frozen);
        self.preprocess_seconds += t0.elapsed().as_secs_f64();
    }

    /// Estimated cost of this shard's next round: conflicts spent in its
    /// previous round, falling back to the owned candidate count before
    /// the first round. Only relative order matters — the scheduler starts
    /// expensive shards first so the long pole never runs last.
    fn cost_estimate(&self) -> u64 {
        match self.last_round_conflicts {
            Some(c) => c,
            None => self.own.len() as u64,
        }
    }
}

/// What one shard did in one round.
#[derive(Default)]
struct RoundOutcome {
    /// Slots dropped by genuine induction counterexamples, in drop order.
    dropped_cex: Vec<usize>,
    /// Slots dropped by budget/fault/cap cuts, in drop order.
    dropped_budget: Vec<usize>,
    events: Vec<DegradationEvent>,
}

/// Prove candidates by mutual induction under a shared [`Governor`],
/// warm-started with invariants already proved under a *weaker* (superset)
/// environment (`warm` may be empty for a cold run).
///
/// Precondition: every candidate already holds in the reset state and on
/// all simulated constrained executions (run
/// [`crate::simulate_filter_governed`] first — Houdini itself only checks
/// *consecution*, with the base case discharged by the simulation pass
/// evaluating the reset state).
///
/// Returns the proved subset, run statistics, and degradation events.
///
/// # Governance
///
/// SAT conflicts are charged to the global budget, each round
/// pre-apportions the remaining global allowance across dirty shards, each
/// query's per-solve budget is `min(config.conflict_budget, shard allowance
/// left)`, and global exhaustion (budget, deadline, cancellation, or an
/// armed solver fault) drops *all* still-alive candidates — recorded in the
/// stats and as [`DegradationEvent`]s — instead of proving them. Dropping
/// is sound (paper §VII-C): an unproved candidate is simply not rewired.
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
    let mut stats = HoudiniStats::default();
    let mut events = Vec::new();
    if candidates.is_empty() {
        return (Vec::new(), stats, events);
    }

    // Candidates whose nets have no AIG literal can't be reasoned about;
    // they are excluded up front (neither proved nor counted as dropped),
    // matching the old indicator-construction filter.
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
    if resolvable.is_empty() {
        return (Vec::new(), stats, events);
    }

    // Split slots into the warm slice (pre-proved, assumed forever) and the
    // active slice (everything the fixpoint still has to vet).
    let warm_ids: HashSet<CandidateId> = warm.iter().copied().collect();
    let is_warm: Vec<bool> = resolvable
        .iter()
        .map(|&ci| warm_ids.contains(&candidates[ci].canonical_id()))
        .collect();
    let active: Vec<usize> = (0..resolvable.len()).filter(|&s| !is_warm[s]).collect();
    stats.warm_assumed = resolvable.len() - active.len();

    let warm_proved = |alive: &[bool]| -> Vec<Candidate> {
        (0..resolvable.len())
            .filter(|&slot| alive[slot])
            .map(|slot| candidates[resolvable[slot]])
            .collect()
    };

    // Nothing left globally before any encoding: drop every *active*
    // candidate with one aggregated event (the expensive shard encodings
    // are skipped too). Warm invariants carry proofs from their original
    // run, so exhaustion cannot un-prove them.
    if let Some(cause) = governor.exhausted() {
        stats.dropped_by_budget = active.len();
        stats.dropped_candidates = active.iter().map(|&s| resolvable[s]).collect();
        if !active.is_empty() {
            events.push(DegradationEvent {
                stage: Stage::Prove,
                cause,
                dropped: active.len(),
                detail: "before the first prove round".to_string(),
            });
        }
        let alive: Vec<bool> = is_warm.clone();
        return (warm_proved(&alive), stats, events);
    }

    // Everything already proved upstream: no shards, no solving.
    if active.is_empty() {
        let alive = vec![true; resolvable.len()];
        return (warm_proved(&alive), stats, events);
    }

    let shard_size = if config.prove.shard_size == 0 {
        active.len()
    } else {
        config.prove.shard_size
    };
    let num_shards = active.len().div_ceil(shard_size);
    let mut shards: Vec<Shard> = (0..num_shards)
        .map(|s| {
            let lo = s * shard_size;
            let hi = ((s + 1) * shard_size).min(active.len());
            build_shard(
                s,
                aig,
                constraint,
                na,
                candidates,
                &resolvable,
                &active[lo..hi],
                governor,
                &config.prove,
            )
        })
        .collect();

    // An armed solver fault trips on the *shared* conflict counter: only a
    // fixed shard order keeps the injected failure point reproducible.
    let threads = if governor.fault_plan().solver_unknown_after_conflicts.is_some() {
        1
    } else {
        config.prove.threads.max(1)
    };

    let mut alive: Vec<bool> = vec![true; resolvable.len()];
    let mut dirty: Vec<bool> = vec![true; num_shards];
    loop {
        let run_set: Vec<usize> = (0..num_shards)
            .filter(|&s| dirty[s] && !shards[s].dead && shards[s].alive_count() > 0)
            .collect();
        if run_set.is_empty() {
            break;
        }
        stats.rounds += 1;
        if let Some(cause) = governor.exhausted() {
            // Mid-run global exhaustion between rounds: one aggregated
            // event for everything still alive, across all shards.
            let round = stats.rounds;
            let mut dropped = Vec::new();
            for shard in shards.iter_mut() {
                for (k, &slot) in shard.own.iter().enumerate() {
                    if shard.own_alive[k] {
                        shard.own_alive[k] = false;
                        alive[slot] = false;
                        dropped.push(slot);
                    }
                }
            }
            dropped.sort_unstable();
            stats.dropped_by_budget += dropped.len();
            stats
                .dropped_candidates
                .extend(dropped.iter().map(|&slot| resolvable[slot]));
            events.push(DegradationEvent {
                stage: Stage::Prove,
                cause,
                dropped: dropped.len(),
                detail: format!("before prove round {round}"),
            });
            break;
        }

        // Pre-apportion the remaining global conflict allowance across the
        // dirty shards in shard order (deterministic for a fixed partition;
        // thread scheduling never touches it). The shares sum to at most
        // the pool, so no shard can overdraw the global budget — and the
        // global cap can only coincide with, never precede, a shard's own
        // allowance running out.
        let pool = governor.remaining_conflicts();
        let mut left = pool;
        let allowances: Vec<Option<u64>> = (0..run_set.len())
            .map(|k| match &mut left {
                None => None,
                Some(p) => {
                    let share = *p / (run_set.len() - k) as u64;
                    *p -= share;
                    Some(share)
                }
            })
            .collect();
        debug_assert!(
            pool.is_none()
                || allowances.iter().map(|a| a.unwrap_or(0)).sum::<u64>() <= pool.unwrap_or(0),
            "apportioned shard allowances exceed the global remaining budget"
        );

        // Run the dirty shards. Allowances were already apportioned in
        // shard-index order and outcomes are merged in shard-index order,
        // so the *dispatch* order below is free to chase wall clock: sort
        // dirty shards by descending estimated cost (previous-round
        // conflicts, falling back to candidate count) and assign each to
        // the least-loaded worker (LPT), so the long-pole shard starts
        // first instead of last. Results are identical for any order.
        let mut work: Vec<(usize, &mut Shard, Option<u64>)> = shards
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| run_set.contains(s))
            .zip(allowances)
            .map(|((s, shard), alw)| (s, shard, alw))
            .collect();
        let nthreads = threads.min(work.len()).max(1);
        let mut outcomes: Vec<(usize, RoundOutcome)> = if nthreads == 1 {
            // Sequential (including forced-sequential fault runs): keep
            // shard-index order so injected fault trip points on the shared
            // conflict counter stay where previous releases put them.
            work.drain(..)
                .map(|(s, shard, alw)| {
                    let out = run_shard_round(
                        shard, &alive, alw, config, governor, na, candidates, &resolvable,
                    );
                    (s, out)
                })
                .collect()
        } else {
            work.sort_by(|a, b| {
                b.1.cost_estimate()
                    .cmp(&a.1.cost_estimate())
                    .then(a.0.cmp(&b.0))
            });
            let mut buckets: Vec<Vec<(usize, &mut Shard, Option<u64>)>> =
                (0..nthreads).map(|_| Vec::new()).collect();
            let mut loads = vec![0u64; nthreads];
            for item in work {
                let cost = item.1.cost_estimate();
                let t = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                loads[t] = loads[t].saturating_add(cost.max(1));
                buckets[t].push(item);
            }
            let alive_ref = &alive;
            let resolvable_ref = &resolvable;
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        scope.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(s, shard, alw)| {
                                    let out = run_shard_round(
                                        shard,
                                        alive_ref,
                                        alw,
                                        config,
                                        governor,
                                        na,
                                        candidates,
                                        resolvable_ref,
                                    );
                                    (s, out)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("prover worker panics are caught per shard"))
                    .collect()
            })
        };
        outcomes.sort_by_key(|&(s, _)| s);

        let mut dropped_this_round: Vec<usize> = Vec::new(); // shard index per drop
        for (s, out) in outcomes {
            for &slot in &out.dropped_cex {
                alive[slot] = false;
                stats.dropped += 1;
                dropped_this_round.push(s);
            }
            for &slot in &out.dropped_budget {
                alive[slot] = false;
                stats.dropped_by_budget += 1;
                stats.dropped_candidates.push(resolvable[slot]);
                dropped_this_round.push(s);
            }
            events.extend(out.events);
        }
        if dropped_this_round.is_empty() {
            // Every dirty shard verified its slice against the current
            // global set and nothing changed: fixpoint.
            break;
        }
        // A shard stays verified unless a *different* shard dropped
        // something (its own drops were already reflected in its final
        // query); everything else must re-check its assumptions.
        for s in 0..num_shards {
            dirty[s] = dropped_this_round.iter().any(|&d| d != s);
        }
    }

    for shard in &shards {
        stats.iterations += shard.solves;
        stats.conflicts += shard.solver.num_conflicts();
        let clauses_post = shard.solver.num_clauses();
        stats.shard_stats.push(ShardStats {
            shard: shard.index,
            candidates: shard.own.len(),
            proved: shard.alive_count(),
            solves: shard.solves,
            conflicts: shard.solver.num_conflicts(),
            clauses_pre: shard.clauses_pre.unwrap_or(clauses_post),
            clauses_post,
            encode_seconds: shard.encode_seconds,
            solve_seconds: shard.solve_seconds,
            preprocess_seconds: shard.preprocess_seconds,
        });
    }
    let proved = (0..resolvable.len())
        .filter(|&slot| alive[slot])
        .map(|slot| candidates[resolvable[slot]])
        .collect();
    (proved, stats, events)
}

/// Encode one shard: the two-frame transition relation restricted to the
/// shard's cones of influence, lazy hypothesis literals for every
/// resolvable candidate, failure detectors + OR-tree for the owned slice.
#[allow(clippy::too_many_arguments)]
fn build_shard<'a>(
    index: usize,
    aig: &'a Aig,
    constraint: AigLit,
    na: &NetlistAig,
    candidates: &[Candidate],
    resolvable: &[usize],
    own_slots: &[usize],
    governor: &Governor,
    prove: &ProveConfig,
) -> Shard<'a> {
    let t0 = Instant::now();
    let mut solver = Solver::new();
    solver.set_governor(governor.clone());
    solver.set_clause_db_limit(prove.clause_db_limit);
    let own: Vec<usize> = own_slots.to_vec();

    // Encode only what this shard's queries reach — the environment
    // constraint on both frames and the frame-1 cones of the owned
    // candidates. Hypothesis cones are left to the first base build
    // (`Shard::hyp_lit`).
    let mut enc = ConeEncoder::new(aig, &mut solver);
    let c0 = enc.lit(&mut solver, 0, constraint);
    solver.add_clause(&[c0]);
    let c1 = enc.lit(&mut solver, 1, constraint);
    solver.add_clause(&[c1]);
    let mut fail = Vec::with_capacity(own.len());
    let mut ind1 = Vec::with_capacity(own.len());
    for &slot in &own {
        let c = &candidates[resolvable[slot]];
        let holds = indicator1_cone(&mut solver, &mut enc, na, c);
        let t = solver.new_selector();
        // t_j → candidate j is violated at frame 1.
        solver.add_guarded_clause(t, &[!holds]);
        fail.push(t);
        ind1.push(holds);
    }

    // Everything assumed, asserted as drop units, or read from models must
    // survive preprocessing: fail selectors and the frame-1 indicators the
    // drop logic reads out of Sat models.
    let mut frozen_extra: Vec<Var> = fail.iter().chain(&ind1).map(|l| l.var()).collect();

    // Balanced OR-tree: root → (some fail selector true). One ternary
    // clause per node keeps propagation local regardless of shard size.
    // Every tree selector (interior and root) is frozen: eliminating an
    // interior one would flatten the tree back into the wide activation
    // clause the ≤3-literal encoding exists to avoid.
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

    let own_alive = vec![true; own.len()];
    Shard {
        index,
        solver,
        hyp: vec![None; resolvable.len()],
        enc,
        preprocessed: false,
        frozen_extra,
        clauses_pre: None,
        preprocess_seconds: 0.0,
        own,
        fail,
        ind1,
        root,
        own_alive,
        solves: 0,
        encode_seconds: t0.elapsed().as_secs_f64(),
        solve_seconds: 0.0,
        last_round_conflicts: None,
        dead: false,
    }
}

/// Frame-1 "candidate holds" literal, encoding the frame-1 cone of the
/// candidate's nets on demand. Unlike the one-directional frame-0
/// hypotheses this must be model-defined in both directions (a Sat model
/// decides which candidates to drop by reading it), so equalities use the
/// full biconditional.
fn indicator1_cone(
    solver: &mut Solver,
    enc: &mut ConeEncoder<'_>,
    na: &NetlistAig,
    c: &Candidate,
) -> Lit {
    let target = enc.lit(solver, 1, na.net_lit[&c.net]);
    match c.kind {
        CandidateKind::ConstFalse => !target,
        CandidateKind::ConstTrue => target,
        CandidateKind::EqualNet(other) => {
            let o = enc.lit(solver, 1, na.net_lit[&other]);
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

/// One round of one shard: solve against the global alive snapshot until
/// the owned slice is verified (Unsat), emptied, or cut by a budget.
/// Decisions consult only shard-local state (the allowance) plus the
/// governor's time/cancel/fault signals; see the module docs for why that
/// keeps budget cuts deterministic.
#[allow(clippy::too_many_arguments)]
fn run_shard_round(
    shard: &mut Shard<'_>,
    alive_snapshot: &[bool],
    allowance: Option<u64>,
    config: &HoudiniConfig,
    governor: &Governor,
    na: &NetlistAig,
    candidates: &[Candidate],
    resolvable: &[usize],
) -> RoundOutcome {
    let conflicts_before = shard.solver.num_conflicts();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_shard_round_inner(
            shard,
            alive_snapshot,
            allowance,
            config,
            governor,
            na,
            candidates,
            resolvable,
        )
    }));
    match result {
        Ok(out) => {
            shard.last_round_conflicts =
                Some(shard.solver.num_conflicts().saturating_sub(conflicts_before));
            out
        }
        Err(payload) => {
            // Isolate the panic: poison the shard and drop its unvetted
            // candidates — degraded, never corrupted.
            shard.dead = true;
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "prover worker panicked".to_string());
            let mut out = RoundOutcome::default();
            for k in 0..shard.own.len() {
                if shard.own_alive[k] {
                    shard.own_alive[k] = false;
                    out.dropped_budget.push(shard.own[k]);
                }
            }
            out.events.push(DegradationEvent {
                stage: Stage::Prove,
                cause: Cause::WorkerPanic,
                dropped: out.dropped_budget.len(),
                detail: format!("shard {}: {msg}", shard.index),
            });
            out
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_shard_round_inner(
    shard: &mut Shard<'_>,
    alive_snapshot: &[bool],
    allowance: Option<u64>,
    config: &HoudiniConfig,
    governor: &Governor,
    na: &NetlistAig,
    candidates: &[Candidate],
    resolvable: &[usize],
) -> RoundOutcome {
    let mut out = RoundOutcome::default();
    // Local view: the global snapshot minus this shard's in-round drops.
    let mut alive: Vec<bool> = alive_snapshot.to_vec();
    for (k, &slot) in shard.own.iter().enumerate() {
        alive[slot] = shard.own_alive[k];
    }
    let mut allowance_left = allowance;

    // Drop every still-alive owned candidate (always sound: unproved
    // candidates are not rewired).
    macro_rules! drop_all_own {
        ($cause:expr, $detail:expr) => {{
            let mut n = 0;
            for k in 0..shard.own.len() {
                if shard.own_alive[k] {
                    shard.own_alive[k] = false;
                    alive[shard.own[k]] = false;
                    out.dropped_budget.push(shard.own[k]);
                    n += 1;
                }
            }
            if n > 0 {
                out.events.push(DegradationEvent {
                    stage: Stage::Prove,
                    cause: $cause,
                    dropped: n,
                    detail: $detail,
                });
            }
        }};
    }

    // One solve per pass. A pass assumes the frame-0 hypotheses of every
    // alive candidate (the global snapshot minus this shard's drops so
    // far) and the OR-tree root, which asks for a frame-1 violation of
    // some owned candidate whose fail selector is still enabled. Unsat
    // verifies the owned slice. A model drops every owned candidate it
    // falsifies, and a per-query budget cut drops the upper half of the
    // alive slice. Each drop is committed at once as the unit clause
    // `¬fail`, and the next pass solves against the shrunken hypothesis
    // set: retracting a dropped hypothesis is what exposes *chained*
    // failures (a candidate whose counterexample needs a state violating
    // a dropped hypothesis), so mass drops compound layer by layer.
    loop {
        if shard.alive_count() == 0 {
            break;
        }
        // Hypotheses of every alive candidate in ascending order
        // (encoding their cones on first use).
        let mut assumptions: Vec<Lit> = Vec::with_capacity(alive.len() + 1);
        for (slot, &a) in alive.iter().enumerate() {
            if a {
                assumptions.push(shard.hyp_lit(slot, na, candidates, resolvable));
            }
        }
        // First pass of the shard's lifetime: every hypothesis cone the
        // fixpoint can ever assume is now encoded, so this is the one safe
        // moment to preprocess the CNF.
        shard.run_preprocess();
        if shard.solves >= config.max_iterations {
            drop_all_own!(
                Cause::IterationCap,
                format!(
                    "shard {}: gave up after {} iterations",
                    shard.index, config.max_iterations
                )
            );
            break;
        }
        // Time-driven cuts (not thread-deterministic, but sound).
        if governor.is_cancelled() {
            drop_all_own!(
                Cause::Cancelled,
                format!("shard {}: cancelled", shard.index)
            );
            break;
        }
        if governor.deadline_exceeded() {
            drop_all_own!(
                Cause::Deadline,
                format!("shard {}: deadline passed", shard.index)
            );
            break;
        }
        // Apportion the per-query budget from the shard's own allowance so
        // one runaway query cannot overdraw the shared pool.
        let per_solve = match (config.conflict_budget, allowance_left) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        debug_assert!(
            per_solve.is_none()
                || allowance_left.is_none()
                || per_solve.unwrap() <= allowance_left.unwrap(),
            "per-solve budget exceeds the shard's remaining allowance"
        );
        shard.solver.set_conflict_budget(per_solve);
        assumptions.push(shard.root);
        // Pack each model: decide the alive fail selectors first (phase
        // true), so one counterexample violates as many owned candidates as
        // the transition relation admits instead of the first one the
        // search trips over. Selectors that cannot be violated under the
        // current hypotheses just get flipped back by conflict analysis.
        let prio: Vec<Lit> = (0..shard.own.len())
            .filter(|&k| shard.own_alive[k])
            .map(|k| shard.fail[k])
            .collect();
        shard.solver.prioritize(&prio);
        let t0 = Instant::now();
        let verdict = shard.solver.solve_with(&assumptions);
        shard.solve_seconds += t0.elapsed().as_secs_f64();
        shard.solves += 1;
        if let Some(left) = &mut allowance_left {
            *left = left.saturating_sub(shard.solver.conflicts_last_solve());
        }
        match verdict {
            SolveResult::Unsat => {
                // Inductive relative to the current global set: the owned
                // slice stands (subject to other shards' rounds).
                break;
            }
            SolveResult::Sat => {
                // Drop every owned candidate falsified at frame 1; the
                // OR-tree (dropped selectors are fixed off by their units)
                // guarantees the model violates at least one alive one.
                let mut units: Vec<Lit> = Vec::new();
                for k in 0..shard.own.len() {
                    if !shard.own_alive[k] {
                        continue;
                    }
                    let l = shard.ind1[k];
                    if shard.solver.value(l.var()) != Some(l.is_pos()) {
                        shard.own_alive[k] = false;
                        alive[shard.own[k]] = false;
                        out.dropped_cex.push(shard.own[k]);
                        units.push(!shard.fail[k]);
                    }
                }
                if units.is_empty() {
                    // Defensive: a model must falsify something; if not,
                    // stop rather than loop forever.
                    let solves = shard.solves;
                    drop_all_own!(
                        Cause::IterationCap,
                        format!(
                            "shard {}: iteration {solves}: model without progress",
                            shard.index
                        )
                    );
                    break;
                }
                // Counterexample enumeration wants *diverse* models — phase
                // saving would re-find near-identical states and shed one
                // candidate at a time. Reseed phases deterministically per
                // (shard, solve) so the next model falsifies a fresh swath.
                // The units come after the reseed: the first one unwinds
                // the model's trail, whose saved phases overwrite part of
                // the scramble.
                let seed = ((shard.index as u64) << 32) ^ shard.solves as u64;
                shard.solver.scramble_phases(seed);
                for f in units {
                    shard.solver.add_clause(&[f]);
                }
            }
            SolveResult::Unknown => {
                if governor.is_cancelled() {
                    drop_all_own!(
                        Cause::Cancelled,
                        format!("shard {}: query cancelled", shard.index)
                    );
                    break;
                }
                if governor.deadline_exceeded() {
                    drop_all_own!(
                        Cause::Deadline,
                        format!("shard {}: deadline during query", shard.index)
                    );
                    break;
                }
                if governor
                    .fault_plan()
                    .solver_unknown_after_conflicts
                    .is_some()
                    && governor.solver_should_stop()
                {
                    // An armed fault is simulating solver exhaustion; it
                    // would fire on every retry, so stop here.
                    let solves = shard.solves;
                    drop_all_own!(
                        Cause::ConflictBudget,
                        format!(
                            "shard {}: iteration {solves}: injected solver exhaustion",
                            shard.index
                        )
                    );
                    break;
                }
                if allowance_left == Some(0) {
                    // The shard's share of the global pool is spent; no
                    // retry is possible. Local state only — deterministic.
                    let solves = shard.solves;
                    drop_all_own!(
                        Cause::ConflictBudget,
                        format!(
                            "shard {}: iteration {solves}: conflict allowance exhausted",
                            shard.index
                        )
                    );
                    break;
                }
                // Per-query budget exhausted: deterministically drop the
                // upper half of the owned alive slice (highest candidate
                // indices) and retry on the cheaper remainder.
                let alive_idx: Vec<usize> = (0..shard.own.len())
                    .filter(|&k| shard.own_alive[k])
                    .collect();
                let keep = alive_idx.len() / 2;
                for &k in &alive_idx[keep..] {
                    shard.own_alive[k] = false;
                    alive[shard.own[k]] = false;
                    out.dropped_budget.push(shard.own[k]);
                    shard.solver.add_clause(&[!shard.fail[k]]);
                }
                out.events.push(DegradationEvent {
                    stage: Stage::Prove,
                    cause: Cause::ConflictBudget,
                    dropped: alive_idx.len() - keep,
                    detail: format!(
                        "shard {}: iteration {}: per-query budget exhausted, dropped upper half",
                        shard.index, shard.solves
                    ),
                });
            }
        }
    }
    out
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
        assert_eq!(stats.shard_stats.len(), 1);
        assert_eq!(stats.shard_stats[0].proved, 1);
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
    fn mutual_induction_survives_sharding() {
        // The coupled pair split across *two* shards: each shard must
        // assume the other's hypothesis, and the cross-shard fixpoint must
        // still prove both (a drop-happy partition would break coupling).
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
        for threads in [1, 2] {
            let config = HoudiniConfig {
                prove: ProveConfig {
                    shard_size: 1,
                    threads,
                    ..ProveConfig::default()
                },
                ..HoudiniConfig::default()
            };
            let (proved, stats) = prove(&na, &cands, &config);
            assert_eq!(proved.len(), 2, "sharded mutual induction proves both");
            assert_eq!(stats.shard_stats.len(), 2);
        }
    }

    #[test]
    fn sharded_fixpoint_drops_chained_failures() {
        // a (free input) feeds a buffer chain; "each stage == 0" is false
        // and must fall round by round when each stage sits in its own
    	// shard: dropping y0==0 invalidates nothing, but dropping chained
        // equalities exercises re-dirtying. The proved set must equal the
        // single-shard result.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y0 = nl.add_cell(CellKind::Buf, &[a], "y0");
        let y1 = nl.add_cell(CellKind::Buf, &[y0], "y1");
        let y2 = nl.add_cell(CellKind::Buf, &[y1], "y2");
        nl.add_output("y", y2);
        let na = netlist_to_aig(&nl, &[]);
        let cands = candidates_for_netlist(&nl, &na);
        let single = prove(&na, &cands, &HoudiniConfig::default());
        let sharded = prove(
            &na,
            &cands,
            &HoudiniConfig {
                prove: ProveConfig {
                    shard_size: 1,
                    threads: 2,
                    ..ProveConfig::default()
                },
                ..HoudiniConfig::default()
            },
        );
        assert_eq!(single.0, sharded.0, "partition must not change the fixpoint");
        assert!(sharded.1.rounds >= 1);
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
        assert_eq!(sorted.len(), stats1.dropped_candidates.len(), "no double drops");
        assert!(sorted.iter().all(|&i| i < cands.len()));
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
        // Regression for the apportionment contract: per-solve budgets are
        // carved from pre-apportioned shard allowances, so the sum of all
        // charged conflicts can never exceed the global cap — for any
        // shard count.
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
        for shard_size in [0usize, 1, 2] {
            for cap in [1u64, 3, 50] {
                let g = Governor::new(&GovernorConfig {
                    conflict_budget: Some(cap),
                    ..Default::default()
                });
                let config = HoudiniConfig {
                    prove: ProveConfig {
                        shard_size,
                        ..ProveConfig::default()
                    },
                    ..HoudiniConfig::default()
                };
                let _ = houdini_prove_warm_governed(
                    &na.aig,
                    AigLit::TRUE,
                    &na,
                    &cands,
                    &[],
                    &config,
                    &g,
                );
                assert!(
                    g.conflicts_used() <= cap,
                    "shard_size={shard_size} cap={cap}: overdrew to {}",
                    g.conflicts_used()
                );
            }
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
        // One shard, and one candidate per shard on two threads.
        let sharded = HoudiniConfig {
            prove: ProveConfig {
                threads: 2,
                shard_size: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        for config in [HoudiniConfig::default(), sharded] {
            // Warm sets of increasing size, including the full cold set.
            for take in [1, cold.len() / 2, cold.len()] {
                let warm: Vec<CandidateId> =
                    cold[..take].iter().map(|c| c.canonical_id()).collect();
                let (hot, stats, events) = houdini_prove_warm_governed(
                    &na.aig,
                    AigLit::TRUE,
                    &na,
                    &cands,
                    &warm,
                    &config,
                    &Governor::unlimited(),
                );
                assert!(events.is_empty());
                assert_eq!(cold, hot, "warm start (|W|={take}) changed the fixpoint");
                assert_eq!(stats.warm_assumed, take);
                if config.prove.shard_size == 1 {
                    assert_eq!(stats.shard_stats.len(), cands.len() - take);
                }
            }
        }
    }

    #[test]
    fn warm_start_carries_mutual_induction_partner() {
        // q1/q2 coupled pair: warm-starting with q2's proof lets the run
        // prove q1 without ever owning q2 in a shard.
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
        // Only q1 was sharded.
        assert_eq!(stats.shard_stats.iter().map(|s| s.candidates).sum::<usize>(), 1);
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
                    assert!(
                        c.net == y && o == q,
                        "only y==q is a valid equality: {c:?}"
                    );
                }
            }
        }
    }
}
