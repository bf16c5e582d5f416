//! Resource governance and fault tolerance for the PDAT pipeline.
//!
//! The paper's key safety property (§VII-C) is that an *inconclusive*
//! analysis is never wrong — it only forfeits optimization. This crate
//! makes that property operational across the whole pipeline instead of
//! just the SAT solver: a shared, cooperatively-checked [`Governor`]
//! carries a wall-clock deadline, a global SAT-conflict budget, and a
//! global simulated-cycle budget through every stage. Exhaustion anywhere
//! degrades gracefully — still-unvetted candidates are deterministically
//! dropped (sound: fewer proofs, never wrong ones) and the drop is
//! recorded as a structured [`DegradationEvent`].
//!
//! The governor is also the carrier for the deterministic fault-injection
//! harness ([`FaultPlan`]): a seeded plan can force the solver to report
//! `Unknown` after N conflicts or panic a falsification worker at a given
//! (chunk, cycle). Production code pays one branch per check when no plan
//! is armed.
//!
//! # Soundness contract
//!
//! Every consumer of the governor must uphold one rule: **a budget or
//! fault can only shrink the set of proved invariants, never grow it.**
//! Concretely, a stage that stops early must treat everything it did not
//! finish vetting as *unproved* (dropped), because partial positive
//! evidence ("no counterexample found so far") is not the same as full
//! vetting. Dropping is always sound — an unproved candidate is simply
//! not rewired.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a stage degraded (or would degrade) — both the exhaustion verdict
/// returned by [`Governor`] checks and the cause recorded in a
/// [`DegradationEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The global SAT conflict budget is spent.
    ConflictBudget,
    /// The global simulated-cycle budget is spent.
    CycleBudget,
    /// The run was cancelled from outside.
    Cancelled,
    /// A worker thread panicked and was isolated.
    WorkerPanic,
    /// A stage-local iteration cap was reached.
    IterationCap,
    /// A deterministic injected fault (an armed [`FaultPlan`] arm)
    /// tripped. The service layer uses this to classify an outcome as
    /// retryable: an injected fault is transient by construction, so the
    /// same request re-run under a clean governor can still complete.
    FaultInjected,
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cause::Deadline => "wall-clock deadline exceeded",
            Cause::ConflictBudget => "global SAT conflict budget exhausted",
            Cause::CycleBudget => "global simulated-cycle budget exhausted",
            Cause::Cancelled => "run cancelled",
            Cause::WorkerPanic => "worker panic isolated",
            Cause::IterationCap => "iteration cap reached",
            Cause::FaultInjected => "injected fault tripped",
        };
        f.write_str(s)
    }
}

/// Pipeline stage a [`DegradationEvent`] is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Constrained random simulation (candidate falsification).
    Falsify,
    /// Houdini mutual-induction proof.
    Prove,
    /// Logic resynthesis.
    Resynthesize,
    /// Outside any single stage (e.g. cancelled between stages).
    Pipeline,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Falsify => "falsify",
            Stage::Prove => "prove",
            Stage::Resynthesize => "resynthesize",
            Stage::Pipeline => "pipeline",
        };
        f.write_str(s)
    }
}

/// One graceful-degradation incident: what was cut, where, and why.
///
/// A run that returns a partial result carries these in order of
/// occurrence so callers can tell "proved little because the design is
/// hard" apart from "proved little because the budget ran out".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Stage that degraded.
    pub stage: Stage,
    /// Why it degraded.
    pub cause: Cause,
    /// Candidates dropped (treated as unproved) by this incident.
    pub dropped: usize,
    /// Free-form context (chunk index, iteration number, panic message…).
    pub detail: String,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: dropped {} candidate(s) ({})",
            self.stage, self.cause, self.dropped, self.detail
        )
    }
}

/// A deterministic, seeded fault-injection schedule.
///
/// An armed plan makes the pipeline *pretend* a resource fault or crash
/// happened at an exactly reproducible point, which is what lets the
/// robustness property test state a sharp contract: for any plan, the
/// output is a clean error or a sound partial result. The default plan
/// injects nothing and costs one branch per check site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Force the SAT solver to report `Unknown` once this many conflicts
    /// have been charged to the governor (0 = every solve call fails
    /// immediately).
    pub solver_unknown_after_conflicts: Option<u64>,
    /// Panic the falsification worker running this chunk when it reaches
    /// this cycle, as `(chunk_index, cycle)`.
    pub sim_panic_at: Option<(u64, u64)>,
    /// Fail cache persistence after this many logical write operations
    /// (0 = the very first write fails). Consumed by the cache I/O layer
    /// to simulate a `kill -9`-style interruption mid-save: the torn
    /// temp file is left on disk exactly as a crash would leave it.
    pub io_fail_after_writes: Option<u64>,
    /// Panic the service worker as it picks up the request with this
    /// admission index (first attempt only — the retry runs clean).
    pub worker_panic_on_request: Option<u64>,
    /// Give the request with this admission index an already-expired
    /// per-request deadline (first attempt only), forcing an immediate
    /// deadline degradation.
    pub deadline_fuse: Option<u64>,
}

impl FaultPlan {
    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.solver_unknown_after_conflicts.is_none()
            && self.sim_panic_at.is_none()
            && self.io_fail_after_writes.is_none()
            && self.worker_panic_on_request.is_none()
            && self.deadline_fuse.is_none()
    }

    /// Derive a deterministic plan from a seed (used by the fault-injection
    /// and service chaos tests; the same seed always yields the same plan).
    /// Each arm is armed by its own seed word's low bit, and every armed
    /// value can fire: the sim panic targets chunk 0, the only chunk under
    /// the default `lane_blocks`, and the io fault lands within a save's
    /// first three write operations (every save writes at least a chunk,
    /// the fsync and the rename). A seed keeps the solver arm and the
    /// sim-panic cycle it drew in earlier versions; the sim-panic chunk and
    /// the io value changed.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let c = splitmix64(&mut s);
        let d = splitmix64(&mut s);
        let e = splitmix64(&mut s);
        FaultPlan {
            solver_unknown_after_conflicts: if a & 1 == 1 {
                Some(a >> 1 & 0x3F)
            } else {
                None
            },
            sim_panic_at: if b & 1 == 1 {
                Some((0, b >> 3 & 0x1F))
            } else {
                None
            },
            io_fail_after_writes: if c & 1 == 1 { Some((c >> 1) % 3) } else { None },
            worker_panic_on_request: if d & 1 == 1 { Some(d >> 1 & 0x7) } else { None },
            deadline_fuse: if e & 1 == 1 { Some(e >> 1 & 0x7) } else { None },
        }
    }

    /// Should the service worker picking up request `request` panic?
    pub fn fires_worker_panic(&self, request: u64) -> bool {
        self.worker_panic_on_request == Some(request)
    }

    /// Should request `request` get an already-expired deadline?
    pub fn fires_deadline_fuse(&self, request: u64) -> bool {
        self.deadline_fuse == Some(request)
    }
}

/// SplitMix64 step — the crate is dependency-free, so the tiny mixer is
/// inlined here (the same function the vendored `rand` exposes). Also the
/// service's backoff jitter source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build-time knobs for a [`Governor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Wall-clock budget for the whole run (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Global SAT conflict budget across every solve call (`None` =
    /// unlimited). The proof stage apportions per-query budgets from
    /// what remains.
    pub conflict_budget: Option<u64>,
    /// Global simulated block-cycle budget across every falsification
    /// chunk (`None` = unlimited).
    pub cycle_budget: Option<u64>,
    /// Deterministic fault-injection schedule (testing only; default
    /// injects nothing).
    pub fault_plan: FaultPlan,
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    conflict_cap: Option<u64>,
    cycle_cap: Option<u64>,
    conflicts: AtomicU64,
    cycles: AtomicU64,
    cancelled: AtomicBool,
    fault: FaultPlan,
}

/// Shared, cooperatively-checked resource governor.
///
/// Cloning is cheap (one `Arc`); all clones observe the same budgets and
/// counters, which is what lets one governor span the SAT solver, the
/// falsifier and the resynthesis loop of a run, and lets another thread
/// cancel it. Checks are lock-free atomics: the hot paths (each SAT
/// conflict, each sim chunk cycle boundary) pay a few relaxed atomic
/// operations, plus a clock read when a deadline is armed.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unlimited()
    }
}

impl Governor {
    /// A governor with no deadline, no budgets, and no faults — the
    /// zero-degradation default every legacy entry point uses.
    pub fn unlimited() -> Governor {
        Governor::new(&GovernorConfig::default())
    }

    /// Build a governor; a relative `deadline` is resolved against
    /// `Instant::now()` at construction.
    pub fn new(config: &GovernorConfig) -> Governor {
        Governor {
            inner: Arc::new(Inner {
                deadline: config.deadline.map(|d| Instant::now() + d),
                conflict_cap: config.conflict_budget,
                cycle_cap: config.cycle_budget,
                conflicts: AtomicU64::new(0),
                cycles: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                fault: config.fault_plan.clone(),
            }),
        }
    }

    /// Request cooperative cancellation; every stage treats this like an
    /// exhausted budget (drop what is unvetted, return a partial result).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`Governor::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// True once the wall-clock deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Charge `n` SAT conflicts to the global budget. The solver charges
    /// each conflict as it happens, so a stop decision always reads the
    /// exact count.
    pub fn charge_conflicts(&self, n: u64) {
        if n > 0 {
            self.inner.conflicts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charge `n` simulated block-cycles to the global budget.
    pub fn charge_cycles(&self, n: u64) {
        self.inner.cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// SAT conflicts charged so far.
    pub fn conflicts_used(&self) -> u64 {
        self.inner.conflicts.load(Ordering::Relaxed)
    }

    /// Simulated block-cycles charged so far.
    pub fn cycles_used(&self) -> u64 {
        self.inner.cycles.load(Ordering::Relaxed)
    }

    /// Global conflicts still available (`None` = unlimited).
    pub fn remaining_conflicts(&self) -> Option<u64> {
        self.inner
            .conflict_cap
            .map(|cap| cap.saturating_sub(self.conflicts_used()))
    }

    /// Global block-cycles still available (`None` = unlimited).
    pub fn remaining_cycles(&self) -> Option<u64> {
        self.inner
            .cycle_cap
            .map(|cap| cap.saturating_sub(self.cycles_used()))
    }

    /// The first exhausted resource, if any. Cancellation dominates, then
    /// the deadline (time is the least recoverable), then the budgets.
    pub fn exhausted(&self) -> Option<Cause> {
        if self.is_cancelled() {
            return Some(Cause::Cancelled);
        }
        if self.deadline_exceeded() {
            return Some(Cause::Deadline);
        }
        if self.remaining_conflicts() == Some(0) {
            return Some(Cause::ConflictBudget);
        }
        if self.remaining_cycles() == Some(0) {
            return Some(Cause::CycleBudget);
        }
        None
    }

    /// Cheap per-conflict stop check for the SAT propagation loop:
    /// cancellation, deadline, global conflict budget, or an armed
    /// solver fault.
    pub fn solver_should_stop(&self) -> bool {
        if let Some(n) = self.inner.fault.solver_unknown_after_conflicts {
            if self.conflicts_used() >= n {
                return true;
            }
        }
        self.is_cancelled() || self.remaining_conflicts() == Some(0) || self.deadline_exceeded()
    }

    /// Fault hook: should the falsification worker for `chunk` panic at
    /// `cycle`?
    pub fn fault_sim_panic(&self, chunk: u64, cycle: u64) -> bool {
        self.inner.fault.sim_panic_at == Some((chunk, cycle))
    }

    /// The armed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.inner.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let g = Governor::unlimited();
        g.charge_conflicts(1);
        g.charge_cycles(1_000_000);
        assert_eq!(g.exhausted(), None);
        assert!(!g.solver_should_stop());
        assert_eq!(g.remaining_conflicts(), None);
        assert_eq!(g.remaining_cycles(), None);
    }

    #[test]
    fn budgets_exhaust_and_saturate() {
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(2),
            cycle_budget: Some(3),
            ..Default::default()
        });
        assert_eq!(g.exhausted(), None);
        g.charge_conflicts(1);
        assert_eq!(g.remaining_conflicts(), Some(1));
        g.charge_conflicts(1);
        g.charge_conflicts(1); // over-charge must saturate, not underflow
        assert_eq!(g.remaining_conflicts(), Some(0));
        assert_eq!(g.exhausted(), Some(Cause::ConflictBudget));
        g.charge_cycles(5);
        assert_eq!(g.remaining_cycles(), Some(0));
    }

    #[test]
    fn clones_share_state() {
        let g = Governor::new(&GovernorConfig {
            conflict_budget: Some(1),
            ..Default::default()
        });
        let h = g.clone();
        h.charge_conflicts(1);
        assert_eq!(g.exhausted(), Some(Cause::ConflictBudget));
        g.cancel();
        assert!(h.is_cancelled());
    }

    #[test]
    fn zero_deadline_is_immediately_exceeded() {
        let g = Governor::new(&GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        assert!(g.deadline_exceeded());
        assert_eq!(g.exhausted(), Some(Cause::Deadline));
        assert!(g.solver_should_stop());
    }

    #[test]
    fn fault_plan_from_seed_is_deterministic() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        // The seed space actually exercises every kind of fault.
        assert!((0..64).any(|s| FaultPlan::from_seed(s)
            .solver_unknown_after_conflicts
            .is_some()));
        assert!((0..64).any(|s| FaultPlan::from_seed(s).sim_panic_at.is_some()));
        assert!((0..64).any(|s| FaultPlan::from_seed(s).io_fail_after_writes.is_some()));
        assert!((0..64).any(|s| FaultPlan::from_seed(s).worker_panic_on_request.is_some()));
        assert!((0..64).any(|s| FaultPlan::from_seed(s).deadline_fuse.is_some()));
        assert!((0..64).any(|s| FaultPlan::from_seed(s).is_empty()));
        // Every armed value can fire: chunk 0 always exists, and every
        // save takes at least three write operations.
        for seed in 0..64u64 {
            let plan = FaultPlan::from_seed(seed);
            assert!(plan.sim_panic_at.is_none_or(|(chunk, _)| chunk == 0));
            assert!(plan.io_fail_after_writes.is_none_or(|n| n < 3));
        }
    }

    #[test]
    fn service_arm_helpers_match_request_index() {
        let plan = FaultPlan {
            worker_panic_on_request: Some(3),
            deadline_fuse: Some(5),
            ..Default::default()
        };
        assert!(plan.fires_worker_panic(3));
        assert!(!plan.fires_worker_panic(4));
        assert!(plan.fires_deadline_fuse(5));
        assert!(!plan.fires_deadline_fuse(3));
        assert!(!FaultPlan::default().fires_worker_panic(0));
        assert!(!FaultPlan::default().fires_deadline_fuse(0));
    }

    #[test]
    fn solver_fault_trips_after_threshold() {
        let g = Governor::new(&GovernorConfig {
            fault_plan: FaultPlan {
                solver_unknown_after_conflicts: Some(2),
                ..Default::default()
            },
            ..Default::default()
        });
        assert!(!g.solver_should_stop());
        g.charge_conflicts(1);
        assert!(!g.solver_should_stop());
        g.charge_conflicts(1);
        assert!(g.solver_should_stop());
    }
}
