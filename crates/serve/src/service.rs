//! The supervised, deadline-governed service loop.
//!
//! One [`PdatService`] owns one [`PreparedNetlist`] and one shared
//! [`ProofCache`] and drains a bounded request queue through a small
//! worker pool:
//!
//! * **Prepare once** — the baseline and the analysis model are built by
//!   the first request that needs them and reused for the service's life.
//! * **Admission control** — [`PdatService::submit`] refuses work with a
//!   typed [`SubmitError::Overloaded`] when the queue is at capacity or
//!   the service-wide conflict budget is spent, instead of queueing
//!   unboundedly and timing everyone out.
//! * **Per-request governance** — every attempt runs under its own
//!   [`Governor`] carrying the configured per-request deadline and
//!   budgets, so one pathological subset cannot starve its neighbours.
//! * **Bounded retry** — an attempt that degrades (deadline, budget,
//!   injected fault, worker panic) is retried up to
//!   [`ServeConfig::retry_cap`] times with deterministic exponential
//!   backoff; pipeline-level fault arms are applied on the first attempt
//!   only, so an injected fault looks exactly like a transient one.
//!   A request whose every attempt degrades answers
//!   [`Reply::Exhausted`] — *safely unproved*, never wrongly proved
//!   (paper §VII-C lifted to the service boundary).
//! * **Supervision** — a worker that panics is isolated by
//!   `catch_unwind`, its request is re-queued (front of line), and the
//!   supervisor respawns the worker thread.
//! * **Crash-safe persistence** — the cache boots via
//!   `load_cache_or_quarantine` (a corrupt snapshot is quarantined, the
//!   service starts cold) and a checkpoint thread saves atomically on a
//!   period; a failed checkpoint is counted, never fatal.
//!
//! Everything observable is deterministic per (config, submission
//! order) except wall-clock deadline cuts, exactly as in the underlying
//! pipeline.

use crate::queue::{BoundedQueue, TryPush};
use crate::request::{
    OverloadReason, Reply, ServeRequest, SubmitError, Ticket,
};
use pdat::{run_pdat_batch, BatchRequest, PdatConfig, PdatError, PreparedNetlist, ProofCache};
use pdat_cache::{load_cache_or_quarantine, save_cache_with_faults, LoadOutcome};
use pdat_governor::{Cause, FaultPlan, Governor, GovernorConfig};
use pdat_netlist::Netlist;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Tuning knobs for a [`PdatService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the bounded request queue; a submit against a full
    /// queue is refused with [`SubmitError::Overloaded`].
    pub queue_depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Retries after the first attempt before a degraded request answers
    /// [`Reply::Exhausted`].
    pub retry_cap: u32,
    /// Per-attempt wall-clock deadline (`None` = unlimited). Deadline
    /// cuts are not deterministic across machines, same as the pipeline.
    pub request_deadline: Option<Duration>,
    /// Per-attempt global SAT conflict budget (`None` = unlimited).
    pub request_conflict_budget: Option<u64>,
    /// Per-attempt global simulated-cycle budget (`None` = unlimited).
    pub request_cycle_budget: Option<u64>,
    /// Base of the deterministic exponential retry backoff
    /// (`base * 2^attempt` plus seeded jitter below one base unit).
    pub backoff_base: Duration,
    /// Seed for the backoff jitter (and nothing else — the pipeline has
    /// its own seed in [`ServeConfig::pdat`]).
    pub seed: u64,
    /// Service-wide SAT conflict budget across all requests (`None` =
    /// unlimited). Once spent, further submissions are refused with
    /// [`OverloadReason::BudgetExhausted`].
    pub service_conflict_budget: Option<u64>,
    /// Cache snapshot path. Loaded (or quarantined) at boot, saved
    /// atomically by the checkpointer and at shutdown. `None` disables
    /// persistence.
    pub cache_path: Option<PathBuf>,
    /// Checkpoint period (`None` = only the shutdown checkpoint).
    pub checkpoint_every: Option<Duration>,
    /// Deterministic fault-injection plan. The service arms
    /// (`worker_panic_on_request`, `deadline_fuse`) match against
    /// admission indices; the pipeline arms are applied on first
    /// attempts only; `io_fail_after_writes` arms the first checkpoint.
    pub fault_plan: FaultPlan,
    /// Pipeline configuration shared by every request. Its global
    /// budget/deadline/fault fields are ignored — the service builds a
    /// fresh per-attempt [`Governor`] from the fields above instead.
    pub pdat: PdatConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            workers: 2,
            retry_cap: 2,
            request_deadline: None,
            request_conflict_budget: None,
            request_cycle_budget: None,
            backoff_base: Duration::from_millis(2),
            seed: 0x05E5_71CE,
            service_conflict_budget: None,
            cache_path: None,
            checkpoint_every: None,
            fault_plan: FaultPlan::default(),
            pdat: PdatConfig::default(),
        }
    }
}

/// Monotone service counters, sampled by [`PdatService::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions attempted (admitted or not).
    pub submitted: u64,
    /// Submissions admitted to the queue.
    pub admitted: u64,
    /// Submissions refused because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions refused because the service budget was spent.
    pub rejected_budget: u64,
    /// [`Reply::Done`] replies sent.
    pub replies_done: u64,
    /// [`Reply::Rejected`] replies sent.
    pub replies_rejected: u64,
    /// [`Reply::Exhausted`] replies sent.
    pub replies_exhausted: u64,
    /// [`Reply::ShutDown`] replies sent.
    pub replies_shutdown: u64,
    /// Attempts re-queued after a degradation or panic.
    pub retries: u64,
    /// Worker panics caught (injected or organic).
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub workers_respawned: u64,
    /// Checkpoints that saved cleanly.
    pub checkpoints_ok: u64,
    /// Checkpoints that failed (service keeps running).
    pub checkpoints_failed: u64,
    /// Entries loaded from the cache snapshot at boot.
    pub cache_entries_loaded: u64,
    /// Whether boot quarantined a corrupt snapshot and started cold.
    pub cache_quarantined: bool,
    /// Whether boot hit a non-parse I/O error and started cold.
    pub cache_load_failed: bool,
    /// Queue occupancy at sampling time.
    pub queue_len: usize,
    /// Cached runs at sampling time.
    pub cache_len: usize,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_budget: AtomicU64,
    replies_done: AtomicU64,
    replies_rejected: AtomicU64,
    replies_exhausted: AtomicU64,
    replies_shutdown: AtomicU64,
    retries: AtomicU64,
    worker_panics: AtomicU64,
    workers_respawned: AtomicU64,
    checkpoints_ok: AtomicU64,
    checkpoints_failed: AtomicU64,
    cache_entries_loaded: AtomicU64,
    cache_quarantined: AtomicBool,
    cache_load_failed: AtomicBool,
}

/// One queued unit of work: an admitted request plus its attempt count
/// and reply channel. The job itself survives a worker panic (the panic
/// is caught around a borrow), which is what makes re-queueing possible.
struct Job {
    /// Admission index — the id the fault-plan service arms match.
    id: u64,
    /// 0 on the first attempt.
    attempt: u32,
    req: ServeRequest,
    reply: mpsc::Sender<Reply>,
}

struct Shared {
    netlist: PreparedNetlist<'static>,
    cfg: ServeConfig,
    cache: ProofCache,
    queue: BoundedQueue<Job>,
    /// Carries the service-wide conflict budget; every attempt charges
    /// its conflicts here, and admission checks it.
    service_governor: Governor,
    counters: Counters,
    /// The `io_fail_after_writes` arm fires on the first checkpoint only
    /// (a crash happens once); this latch consumes it.
    io_fault_pending: AtomicBool,
    /// Stop signal for the checkpointer.
    stop: (Mutex<bool>, Condvar),
}

/// A running PDAT service. See the [module docs](self) for semantics.
///
/// Dropping the service shuts it down (close queue, answer leftover
/// tickets with [`Reply::ShutDown`], join threads, final checkpoint);
/// [`PdatService::shutdown`] does the same and returns the final stats.
pub struct PdatService {
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
    checkpointer: Option<thread::JoinHandle<()>>,
    /// Admission lock: holds the next admission index so ids are exactly
    /// the admitted order even under concurrent submitters.
    next_id: Mutex<u64>,
    stopped: bool,
}

impl PdatService {
    /// Boot a service over `netlist`: validate it, load (or quarantine)
    /// the cache snapshot, spawn the worker pool, the supervisor, and —
    /// when persistence is configured — the checkpointer. Nothing else is
    /// built until a request needs it.
    ///
    /// # Errors
    ///
    /// Returns [`PdatError`] if the netlist fails structural validation;
    /// a broken cache snapshot is *not* an error (the service starts
    /// cold and reports it in [`ServiceStats`]).
    pub fn start(netlist: Netlist, cfg: ServeConfig) -> Result<PdatService, PdatError> {
        let netlist = PreparedNetlist::new(Cow::Owned(netlist))?;
        let cache = ProofCache::new();
        let counters = Counters::default();
        if let Some(path) = &cfg.cache_path {
            match load_cache_or_quarantine(&cache, path) {
                Ok(LoadOutcome::Loaded(n)) => {
                    counters.cache_entries_loaded.store(n as u64, Ordering::Relaxed);
                }
                Ok(LoadOutcome::ColdStart) => {}
                Ok(LoadOutcome::Quarantined { .. }) => {
                    counters.cache_quarantined.store(true, Ordering::Relaxed);
                }
                Err(_) => {
                    counters.cache_load_failed.store(true, Ordering::Relaxed);
                }
            }
        }
        let service_governor = Governor::new(&GovernorConfig {
            conflict_budget: cfg.service_conflict_budget,
            ..GovernorConfig::default()
        });
        let io_fault_pending = AtomicBool::new(
            cfg.cache_path.is_some() && cfg.fault_plan.io_fail_after_writes.is_some(),
        );
        let workers = cfg.workers.max(1);
        let queue = BoundedQueue::new(cfg.queue_depth);
        let checkpoint = match (&cfg.cache_path, cfg.checkpoint_every) {
            (Some(path), Some(every)) => Some((path.clone(), every)),
            _ => None,
        };
        let shared = Arc::new(Shared {
            netlist,
            cfg,
            cache,
            queue,
            service_governor,
            counters,
            io_fault_pending,
            stop: (Mutex::new(false), Condvar::new()),
        });
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervisor_loop(&shared, workers))
        };
        let checkpointer = checkpoint.map(|(path, every)| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || checkpoint_loop(&shared, &path, every))
        });
        Ok(PdatService {
            shared,
            supervisor: Some(supervisor),
            checkpointer,
            next_id: Mutex::new(0),
            stopped: false,
        })
    }

    /// Submit a request. Admission control runs here: a full queue or a
    /// spent service budget refuses the request *now*, with a typed
    /// error, rather than admitting work the service cannot finish.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when saturated (resubmit after
    /// backoff), [`SubmitError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, SubmitError> {
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if self.shared.service_governor.exhausted().is_some() {
            self.shared.counters.rejected_budget.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                reason: OverloadReason::BudgetExhausted,
                queue_len: self.shared.queue.len(),
            });
        }
        let mut next = match self.next_id.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: *next,
            attempt: 0,
            req,
            reply: tx,
        };
        match self.shared.queue.try_push_back(job) {
            TryPush::Ok => {
                let id = *next;
                *next += 1;
                self.shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { id, rx })
            }
            TryPush::Full(_) => {
                self.shared.counters.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded {
                    reason: OverloadReason::QueueFull,
                    queue_len: self.shared.queue.len(),
                })
            }
            TryPush::Closed(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// The shared proof cache (e.g. to inspect hit counters).
    pub fn cache(&self) -> &ProofCache {
        &self.shared.cache
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_budget: c.rejected_budget.load(Ordering::Relaxed),
            replies_done: c.replies_done.load(Ordering::Relaxed),
            replies_rejected: c.replies_rejected.load(Ordering::Relaxed),
            replies_exhausted: c.replies_exhausted.load(Ordering::Relaxed),
            replies_shutdown: c.replies_shutdown.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            checkpoints_ok: c.checkpoints_ok.load(Ordering::Relaxed),
            checkpoints_failed: c.checkpoints_failed.load(Ordering::Relaxed),
            cache_entries_loaded: c.cache_entries_loaded.load(Ordering::Relaxed),
            cache_quarantined: c.cache_quarantined.load(Ordering::Relaxed),
            cache_load_failed: c.cache_load_failed.load(Ordering::Relaxed),
            queue_len: self.shared.queue.len(),
            cache_len: self.shared.cache.len(),
        }
    }

    /// Shut down: stop admitting, answer every queued-but-unrun ticket
    /// with [`Reply::ShutDown`], let in-flight attempts finish, join all
    /// threads, take a final checkpoint, and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_threads();
        self.stats()
    }

    fn stop_threads(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for job in self.shared.queue.close_and_drain() {
            send_reply(&self.shared, job, Reply::ShutDown);
        }
        {
            let (lock, cv) = &self.shared.stop;
            let mut stop = match lock.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *stop = true;
            cv.notify_all();
        }
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // Final checkpoint with the pool quiescent. If the injected I/O
        // fault was never consumed (no periodic checkpoint ran), it fires
        // here: the save is torn, the previous snapshot survives intact —
        // exactly the crash the atomic rename protects against.
        if let Some(path) = self.shared.cfg.cache_path.clone() {
            do_checkpoint(&self.shared, &path);
        }
    }
}

impl Drop for PdatService {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Outcome of one in-worker attempt.
enum AttemptOutcome {
    /// Final answer; send it.
    Reply(Box<Reply>),
    /// Degraded; retry or exhaust.
    Retry(Cause),
}

fn send_reply(shared: &Shared, job: Job, reply: Reply) {
    let counter = match &reply {
        Reply::Done(_) => &shared.counters.replies_done,
        Reply::Rejected(_) => &shared.counters.replies_rejected,
        Reply::Exhausted { .. } => &shared.counters.replies_exhausted,
        Reply::ShutDown => &shared.counters.replies_shutdown,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    // A submitter that dropped its ticket makes this a no-op.
    let _ = job.reply.send(reply);
}

/// Deterministic backoff: `base * 2^attempt` plus seeded jitter in
/// `[0, base)`. Pure function of (seed, id, attempt) so chaos tests can
/// replay schedules exactly.
fn backoff_delay(seed: u64, id: u64, attempt: u32, base: Duration) -> Duration {
    let exp = base.saturating_mul(1 << attempt.min(10));
    let mut s = seed ^ id.rotate_left(17) ^ u64::from(attempt).rotate_left(41);
    let base_ns = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let jitter = if base_ns == 0 {
        0
    } else {
        splitmix64(&mut s) % base_ns
    };
    exp.saturating_add(Duration::from_nanos(jitter))
}

/// SplitMix64 (same mixer the governor's `FaultPlan::from_seed` uses;
/// inlined because the service needs no other randomness source).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one attempt of `job` under its own governor.
fn run_attempt(shared: &Shared, job: &Job) -> AttemptOutcome {
    let cfg = &shared.cfg;
    let plan = &cfg.fault_plan;
    let first = job.attempt == 0;
    if first && plan.fires_worker_panic(job.id) {
        // The injected crash: `panic_any` (not the `panic!` macro) so the
        // panic-lint over this file stays meaningful for organic sites.
        std::panic::panic_any("injected fault: worker_panic_on_request");
    }
    let fused = first && plan.fires_deadline_fuse(job.id);
    let deadline = if fused {
        Some(Duration::ZERO)
    } else {
        cfg.request_deadline
    };
    // Pipeline-level fault arms ride along on the first attempt only:
    // an injected fault is transient by construction, so the retry runs
    // clean and can genuinely succeed.
    let attempt_plan = if first {
        FaultPlan {
            solver_unknown_after_conflicts: plan.solver_unknown_after_conflicts,
            sim_panic_at: plan.sim_panic_at,
            ..FaultPlan::default()
        }
    } else {
        FaultPlan::default()
    };
    let faulted = fused || !attempt_plan.is_empty();
    let governor = Governor::new(&GovernorConfig {
        deadline,
        conflict_budget: cfg.request_conflict_budget,
        cycle_budget: cfg.request_cycle_budget,
        fault_plan: attempt_plan,
    });
    let request = [BatchRequest {
        env: job.req.env.as_env(),
        extras: job.req.extras.clone(),
    }];
    let outcome =
        run_pdat_batch(&shared.netlist, &request, &cfg.pdat, &governor, &shared.cache).pop();
    shared
        .service_governor
        .charge_conflicts(governor.conflicts_used());
    match outcome {
        Some(Err(e)) => AttemptOutcome::Reply(Box::new(Reply::Rejected(e))),
        // A batch fills one slot per request; an empty answer would be an
        // internal fault, so it is retried like one.
        None => AttemptOutcome::Retry(Cause::WorkerPanic),
        Some(Ok(report)) => {
            let first_degradation = report
                .result
                .as_ref()
                .and_then(|r| r.degradations.first().map(|d| d.cause));
            match first_degradation {
                // Exact hits (`result` is `None`) answered nothing new
                // and cannot have degraded; they are always clean.
                None => AttemptOutcome::Reply(Box::new(Reply::Done(report))),
                Some(cause) => AttemptOutcome::Retry(if faulted {
                    Cause::FaultInjected
                } else {
                    cause
                }),
            }
        }
    }
}

/// Re-queue a degraded attempt (front of line, after deterministic
/// backoff) or exhaust it with a typed reply.
fn retry_or_exhaust(shared: &Shared, mut job: Job, cause: Cause) {
    if job.attempt >= shared.cfg.retry_cap {
        let attempts = job.attempt.saturating_add(1);
        send_reply(
            shared,
            job,
            Reply::Exhausted {
                attempts,
                last_cause: cause,
            },
        );
        return;
    }
    shared.counters.retries.fetch_add(1, Ordering::Relaxed);
    let delay = backoff_delay(
        shared.cfg.seed,
        job.id,
        job.attempt,
        shared.cfg.backoff_base,
    );
    if !delay.is_zero() {
        thread::sleep(delay);
    }
    job.attempt += 1;
    if let Some(job) = shared.queue.push_front(job) {
        // Shutdown closed the queue between attempts.
        send_reply(shared, job, Reply::ShutDown);
    }
}

/// Drain the queue. Returns `true` if the worker is exiting because it
/// caught a panic (and must be respawned), `false` on a clean drain.
fn worker_loop(shared: &Shared) -> bool {
    while let Some(job) = shared.queue.pop() {
        match catch_unwind(AssertUnwindSafe(|| run_attempt(shared, &job))) {
            Ok(AttemptOutcome::Reply(reply)) => send_reply(shared, job, *reply),
            Ok(AttemptOutcome::Retry(cause)) => retry_or_exhaust(shared, job, cause),
            Err(_) => {
                // The attempt panicked (injected or organic). The job is
                // still ours: classify, re-queue, and die so the
                // supervisor replaces this worker with a fresh thread.
                shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                let cause = if job.attempt == 0
                    && shared.cfg.fault_plan.fires_worker_panic(job.id)
                {
                    Cause::FaultInjected
                } else {
                    Cause::WorkerPanic
                };
                retry_or_exhaust(shared, job, cause);
                return true;
            }
        }
    }
    false
}

enum WorkerExitKind {
    Drained,
    Panicked,
}

struct WorkerExit {
    idx: usize,
    kind: WorkerExitKind,
}

fn spawn_worker(
    shared: &Arc<Shared>,
    idx: usize,
    tx: &mpsc::Sender<WorkerExit>,
) -> thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    thread::spawn(move || {
        let kind = if worker_loop(&shared) {
            WorkerExitKind::Panicked
        } else {
            WorkerExitKind::Drained
        };
        let _ = tx.send(WorkerExit { idx, kind });
    })
}

/// Own the worker pool: spawn it, join exiting workers, and respawn every
/// one that died to a caught panic. During shutdown the replacement finds
/// the closed queue drained and exits at once; respawning anyway keeps
/// `workers_respawned` equal to the panics caught, whatever the timing.
fn supervisor_loop(shared: &Arc<Shared>, workers: usize) {
    let (tx, rx) = mpsc::channel::<WorkerExit>();
    let mut handles: Vec<Option<thread::JoinHandle<()>>> = (0..workers)
        .map(|idx| Some(spawn_worker(shared, idx, &tx)))
        .collect();
    let mut alive = workers;
    while alive > 0 {
        let exit = match rx.recv() {
            Ok(e) => e,
            // Unreachable while we hold `tx`, but a broken channel must
            // not hang the supervisor.
            Err(_) => break,
        };
        if let Some(h) = handles[exit.idx].take() {
            let _ = h.join();
        }
        if matches!(exit.kind, WorkerExitKind::Panicked) {
            shared
                .counters
                .workers_respawned
                .fetch_add(1, Ordering::Relaxed);
            handles[exit.idx] = Some(spawn_worker(shared, exit.idx, &tx));
        } else {
            alive -= 1;
        }
    }
    for h in handles.into_iter().flatten() {
        let _ = h.join();
    }
}

/// Save one checkpoint, consuming the armed I/O fault if it is still
/// pending. A failed save is counted and survived: the atomic rename in
/// the persistence layer guarantees the previous snapshot is intact.
fn do_checkpoint(shared: &Shared, path: &Path) {
    let fault = if shared.io_fault_pending.swap(false, Ordering::Relaxed) {
        shared.cfg.fault_plan.io_fail_after_writes
    } else {
        None
    };
    match save_cache_with_faults(&shared.cache, path, fault) {
        Ok(()) => shared.counters.checkpoints_ok.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared
            .counters
            .checkpoints_failed
            .fetch_add(1, Ordering::Relaxed),
    };
}

/// Periodic checkpointer: sleep `every`, save, repeat — until stopped.
fn checkpoint_loop(shared: &Shared, path: &Path, every: Duration) {
    loop {
        {
            let (lock, cv) = &shared.stop;
            let mut stop = match lock.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if !*stop {
                stop = match cv.wait_timeout(stop, every) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
            if *stop {
                // The shutdown path takes the final checkpoint itself,
                // after the workers have quiesced.
                return;
            }
        }
        do_checkpoint(shared, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{OwnedEnvironment, ServeRequest};
    use pdat_netlist::CellKind;

    /// A few gates and one flop — enough for the pipeline to have real
    /// candidates without making the unit tests slow.
    fn tiny_core() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ab = nl.add_cell(CellKind::And2, &[a, b], "ab");
        let q = nl.add_dff(ab, false, "q");
        let o = nl.add_cell(CellKind::Or2, &[q, ab], "o");
        nl.add_output("out", o);
        nl
    }

    fn fast_pdat() -> PdatConfig {
        PdatConfig {
            sim_cycles: 16,
            lane_blocks: 1,
            sim_threads: 1,
            conflict_budget: Some(10_000),
            max_iterations: 100,
            seed: 1,
            ..Default::default()
        }
    }

    fn unconstrained() -> ServeRequest {
        ServeRequest {
            env: OwnedEnvironment::Unconstrained,
            extras: Vec::new(),
        }
    }

    /// Run `f` with the default panic hook silenced (injected panics
    /// would otherwise spam the test log).
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn answers_requests_and_collapses_duplicates_to_one_cache_entry() {
        let service = PdatService::start(
            tiny_core(),
            ServeConfig {
                workers: 2,
                pdat: fast_pdat(),
                ..Default::default()
            },
        )
        .unwrap();
        let tickets: Vec<_> = (0..3)
            .map(|_| service.submit(unconstrained()).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_done());
        }
        assert_eq!(service.cache().len(), 1, "identical requests share one entry");
        let stats = service.shutdown();
        assert_eq!(stats.replies_done, 3);
        assert_eq!(stats.admitted, 3);
        assert_eq!((stats.retries, stats.worker_panics), (0, 0));
    }

    #[test]
    fn spent_service_budget_refuses_admission() {
        let service = PdatService::start(
            tiny_core(),
            ServeConfig {
                service_conflict_budget: Some(0),
                pdat: fast_pdat(),
                ..Default::default()
            },
        )
        .unwrap();
        match service.submit(unconstrained()) {
            Err(SubmitError::Overloaded { reason, .. }) => {
                assert_eq!(reason, OverloadReason::BudgetExhausted)
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(stats.rejected_budget, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn injected_worker_panic_is_retried_and_the_worker_respawned() {
        quietly(|| {
            let service = PdatService::start(
                tiny_core(),
                ServeConfig {
                    workers: 1,
                    retry_cap: 1,
                    backoff_base: Duration::from_micros(100),
                    fault_plan: FaultPlan {
                        worker_panic_on_request: Some(0),
                        ..Default::default()
                    },
                    pdat: fast_pdat(),
                    ..Default::default()
                },
            )
            .unwrap();
            let t = service.submit(unconstrained()).unwrap();
            assert!(t.wait().is_done(), "clean retry must complete the request");
            let stats = service.shutdown();
            assert_eq!(stats.worker_panics, 1);
            assert_eq!(stats.workers_respawned, 1);
            assert_eq!(stats.retries, 1);
            assert_eq!(stats.replies_done, 1);
        });
    }

    #[test]
    fn deadline_fuse_degrades_first_attempt_then_retry_succeeds() {
        let service = PdatService::start(
            tiny_core(),
            ServeConfig {
                workers: 1,
                retry_cap: 2,
                backoff_base: Duration::from_micros(100),
                fault_plan: FaultPlan {
                    deadline_fuse: Some(0),
                    ..Default::default()
                },
                pdat: fast_pdat(),
                ..Default::default()
            },
        )
        .unwrap();
        let t = service.submit(unconstrained()).unwrap();
        assert!(t.wait().is_done());
        let stats = service.shutdown();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.replies_done, 1);
    }

    #[test]
    fn retry_cap_zero_exhausts_with_the_injected_cause() {
        let service = PdatService::start(
            tiny_core(),
            ServeConfig {
                workers: 1,
                retry_cap: 0,
                fault_plan: FaultPlan {
                    deadline_fuse: Some(0),
                    ..Default::default()
                },
                pdat: fast_pdat(),
                ..Default::default()
            },
        )
        .unwrap();
        let t = service.submit(unconstrained()).unwrap();
        match t.wait() {
            Reply::Exhausted {
                attempts,
                last_cause,
            } => {
                assert_eq!(attempts, 1);
                assert_eq!(last_cause, Cause::FaultInjected);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(stats.replies_exhausted, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_monotone_in_attempts() {
        let base = Duration::from_millis(2);
        let d0 = backoff_delay(7, 3, 0, base);
        let d0_again = backoff_delay(7, 3, 0, base);
        let d1 = backoff_delay(7, 3, 1, base);
        let d2 = backoff_delay(7, 3, 2, base);
        assert_eq!(d0, d0_again);
        assert!(d0 >= base && d0 < base * 2);
        assert!(d1 >= base * 2 && d1 < base * 3);
        assert!(d2 >= base * 4 && d2 < base * 5);
        assert_eq!(backoff_delay(7, 3, 5, Duration::ZERO), Duration::ZERO);
    }
}
