//! The PDAT pipeline (paper Fig. 2): annotate → property-check → rewire →
//! resynthesize.

use crate::constraint::{
    rv_canonical_forms, rv_constraint, thumb_canonical_forms, thumb_constraint, ConstraintMode,
    InstrConstraint,
};
use pdat_aig::{netlist_to_aig, AigLit, NetlistAig};
use pdat_cache::{
    netlist_fingerprint, CacheLookup, CachedRun, CachedSummary, CanonicalEnv, CanonicalExtra,
    EnvMode, ProofCache,
};
use pdat_governor::{DegradationEvent, FaultPlan, Governor, GovernorConfig};
use pdat_isa::{RvSubset, ThumbSubset};
use pdat_mc::{
    candidates_for_netlist, houdini_prove_warm_governed, simulate_filter_governed, Candidate,
    CandidateId, CandidateKind, HoudiniConfig, HoudiniStats, ProveConfig, SimFilterConfig,
    SimFilterStats,
};
use pdat_netlist::{Driver, NetId, Netlist, NetlistStats, ParseNetlistError, ValidateError};
use pdat_synth::resynthesize_governed;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning knobs for a PDAT run.
#[derive(Debug, Clone)]
pub struct PdatConfig {
    /// Simulated falsification cycles per lane block (64 lanes each).
    pub sim_cycles: usize,
    /// Independent 64-lane simulation blocks per falsification run. Part of
    /// the deterministic result identity (together with `seed`).
    pub lane_blocks: usize,
    /// Worker threads for the falsification stage. Never changes results,
    /// only wall time. Work is split into chunks of `SIM_WIDTH` = 4 lane
    /// blocks, so at most `min(sim_threads, ceil(lane_blocks / 4))`
    /// workers run — one at the defaults.
    pub sim_threads: usize,
    /// Restart a lane block from reset when fewer than this many lanes
    /// still satisfy the environment constraint.
    pub restart_threshold: u32,
    /// SAT conflict budget per induction query.
    pub conflict_budget: Option<u64>,
    /// Maximum Houdini iterations.
    pub max_iterations: usize,
    /// Prove-stage knobs. The prover runs on one incremental solver and
    /// reads none of them (`threads` is kept for harnesses that size
    /// their thread pools from it).
    pub prove: ProveConfig,
    /// RNG seed (the whole pipeline is deterministic per seed).
    pub seed: u64,
    /// Wall-clock deadline for the whole run. On expiry the pipeline
    /// degrades gracefully: unproved candidates are dropped and the stages
    /// finish with whatever survived (see `PdatResult::degradations`).
    /// Deadline cuts are *not* deterministic across machines.
    pub deadline: Option<Duration>,
    /// Global SAT conflict budget shared by every induction query in the
    /// run (on top of the per-query `conflict_budget`). Deterministic.
    pub global_conflict_budget: Option<u64>,
    /// Global simulated-cycle budget (cycles × live lanes) for the
    /// falsification stage. Deterministic: apportioned per lane block in
    /// fixed order regardless of thread count.
    pub global_cycle_budget: Option<u64>,
    /// Deterministic fault-injection plan for robustness testing. Empty by
    /// default (no faults).
    pub fault_plan: FaultPlan,
}

impl Default for PdatConfig {
    fn default() -> Self {
        PdatConfig {
            sim_cycles: 384,
            lane_blocks: 4,
            sim_threads: 4,
            restart_threshold: 8,
            conflict_budget: Some(300_000),
            max_iterations: 10_000,
            prove: ProveConfig::default(),
            seed: 0x9DA7,
            deadline: None,
            global_conflict_budget: None,
            global_cycle_budget: None,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Error from a PDAT run. Every input-dependent failure mode surfaces
/// here; the pipeline itself never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdatError {
    /// The input netlist failed structural validation.
    InvalidNetlist(ValidateError),
    /// An environment-constraint net is not a free analysis variable
    /// (PortBased mode requires primary-input nets; CutpointBased requires
    /// the nets listed as cutpoints).
    UnboundConstraintNet {
        /// Name of the offending net.
        net: String,
    },
    /// A netlist file failed to parse (carried through for callers that
    /// feed `parse_netlist` output straight into the pipeline).
    Parse(ParseNetlistError),
    /// An environment or [`ExtraRestriction`] names a net the netlist does
    /// not have.
    UnknownNet {
        /// The offending net id.
        net: NetId,
    },
    /// An [`ExtraRestriction::CodeAt`] lists more address or data nets than
    /// its 32-bit value has bits.
    RestrictionTooWide {
        /// Nets listed.
        nets: usize,
        /// Bits the value has.
        bits: u32,
    },
}

impl fmt::Display for PdatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdatError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            PdatError::UnboundConstraintNet { net } => write!(
                f,
                "constraint net `{net}` is not a free analysis variable; \
                 PortBased mode requires primary-input nets and \
                 CutpointBased requires the nets listed as cutpoints"
            ),
            PdatError::Parse(e) => write!(f, "netlist parse error: {e}"),
            PdatError::UnknownNet { net } => write!(f, "net #{} is not in the netlist", net.0),
            PdatError::RestrictionTooWide { nets, bits } => {
                write!(f, "restriction lists {nets} nets for a {bits}-bit value")
            }
        }
    }
}

impl std::error::Error for PdatError {}

impl From<ValidateError> for PdatError {
    fn from(e: ValidateError) -> Self {
        PdatError::InvalidNetlist(e)
    }
}

impl From<ParseNetlistError> for PdatError {
    fn from(e: ParseNetlistError) -> Self {
        PdatError::Parse(e)
    }
}

/// Outcome of a PDAT run.
#[derive(Debug, Clone)]
pub struct PdatResult {
    /// The transformed (rewired + resynthesized) netlist.
    pub netlist: Netlist,
    /// Statistics of the baseline (the input netlist after plain
    /// resynthesis with no environment restriction — the paper's "Full"
    /// column).
    pub baseline: NetlistStats,
    /// Statistics of the transformed netlist.
    pub optimized: NetlistStats,
    /// Candidate invariants generated (annotation stage).
    pub candidates: usize,
    /// Candidates surviving simulation.
    pub sim_survivors: usize,
    /// Invariants proved (and applied as rewirings).
    pub proved: usize,
    /// The proved invariants themselves, as applied to the netlist.
    pub proved_invariants: Vec<Candidate>,
    /// Stage wall times: (annotate+sim, prove, rewire+resynth).
    pub stage_times: (Duration, Duration, Duration),
    /// Falsification-stage counters (kills, restarts, wasted lanes, …).
    pub sim_stats: SimFilterStats,
    /// Proof-stage counters, including budget-dropped candidate indices.
    pub houdini_stats: HoudiniStats,
    /// Every graceful-degradation event, in pipeline order. Empty on a
    /// fault-free, unbudgeted run. Each event records the stage, the
    /// cause (deadline, budget, cancellation, worker panic), and how many
    /// candidates were conservatively dropped.
    pub degradations: Vec<DegradationEvent>,
}

impl PdatResult {
    /// Gate-count reduction vs the baseline (0.0..=1.0).
    pub fn gate_reduction(&self) -> f64 {
        self.optimized.gate_reduction_vs(&self.baseline)
    }

    /// Area reduction vs the baseline.
    pub fn area_reduction(&self) -> f64 {
        self.optimized.area_reduction_vs(&self.baseline)
    }
}

/// The environment restriction for a run.
pub enum Environment<'a> {
    /// No ISA restriction: all primary inputs free. (Running PDAT like
    /// this still finds sequential invariants — unreachable-state logic —
    /// which is the paper's "Ibex ISA"-style baseline effect when combined
    /// with a full-ISA recognizer, and the obfuscation-key removal on the
    /// Cortex-M0.)
    Unconstrained,
    /// An RV32 subset applied to the given 32 instruction-bit nets.
    Rv {
        /// The allowed subset.
        subset: &'a RvSubset,
        /// Instruction word nets (LSB first), one group per fetch port.
        ports: Vec<Vec<NetId>>,
        /// Port- or cutpoint-based attachment.
        mode: ConstraintMode,
    },
    /// A Thumb subset applied to the given 16 instruction-bit nets.
    Thumb {
        /// The allowed subset.
        subset: &'a ThumbSubset,
        /// Fetch halfword nets (LSB first).
        port: Vec<NetId>,
        /// Port- or cutpoint-based attachment.
        mode: ConstraintMode,
    },
}

/// An additional environment restriction beyond the ISA subset (paper
/// Fig. 3 lists these: I/O protocol restrictions, explicit mapping of code
/// sequences to address regions, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtraRestriction {
    /// Whenever the `addr` nets equal `address`, the `data` nets carry
    /// `word` — e.g. a reset handler or trap vector pinned into the fetch
    /// stream ("explicit mapping of specific code sequences to address
    /// regions").
    CodeAt {
        /// Address-source nets (LSB first; may be outputs of state logic).
        addr: Vec<NetId>,
        /// Data nets constrained when the address matches (primary inputs
        /// or cutpoints).
        data: Vec<NetId>,
        /// The matched address.
        address: u32,
        /// The instruction word pinned at that address.
        word: u32,
    },
    /// The listed input nets are always equal to the constant (e.g. a
    /// strapped configuration pin or a disabled interrupt line).
    PinnedInput {
        /// Input nets (LSB first).
        nets: Vec<NetId>,
        /// Pinned value.
        value: u64,
    },
}

/// Run the full PDAT pipeline on `netlist` under `env`.
///
/// The returned [`PdatResult::netlist`] supports every execution allowed
/// by the environment restriction, with hardware for everything else
/// removed (paper §IV). The baseline for comparison is the same netlist
/// resynthesized without any restriction.
///
/// The run is governed by `config`'s `deadline`, `global_*_budget` and
/// `fault_plan`. When the governor trips mid-run the pipeline degrades
/// gracefully: candidates that could not be fully vetted are
/// conservatively dropped (sound — the proved set only shrinks), and the
/// run completes with whatever was proved, recording each cut in
/// [`PdatResult::degradations`]. Extra restrictions, a proof cache, and a
/// caller-supplied governor go through [`run_pdat_cached`] or
/// [`run_pdat_batch`].
///
/// # Errors
///
/// Returns [`PdatError`] if the input netlist is structurally invalid or
/// a constraint net is not a free analysis variable.
pub fn run_pdat(
    netlist: &Netlist,
    env: &Environment<'_>,
    config: &PdatConfig,
) -> Result<PdatResult, PdatError> {
    let governor = config_governor(config);
    let prepared = PreparedNetlist::new(Cow::Borrowed(netlist))?;
    run_prepared(&prepared, env, &[], &[], config, &governor)
}

/// The governor of a run that brings none: `config`'s deadline, global
/// budgets and fault plan.
fn config_governor(config: &PdatConfig) -> Governor {
    Governor::new(&GovernorConfig {
        deadline: config.deadline,
        conflict_budget: config.global_conflict_budget,
        cycle_budget: config.global_cycle_budget,
        fault_plan: config.fault_plan.clone(),
    })
}

/// A validated netlist plus the work every environment restriction of it
/// shares: fingerprint, baseline statistics and analysis model, each built
/// on first use and then kept. Nothing downstream re-validates.
///
/// The model memo has one slot, keyed by the exact cut-net list (empty for
/// the uncut model): the list's order fixes the AIG's input order, and one
/// slot keeps a long-lived value from growing with every port list it sees.
pub struct PreparedNetlist<'a> {
    netlist: Cow<'a, Netlist>,
    fingerprint: OnceLock<u64>,
    baseline: OnceLock<NetlistStats>,
    model: Mutex<Option<Arc<Model>>>,
}

/// The analysis AIG for one cut-net list, with its candidate invariants.
struct Model {
    cut: Vec<NetId>,
    na: NetlistAig,
    candidates: Vec<Candidate>,
}

impl<'a> PreparedNetlist<'a> {
    /// Validate and wrap `netlist` (borrowed for one run, owned to keep).
    ///
    /// # Errors
    ///
    /// [`PdatError::InvalidNetlist`] if the netlist is structurally invalid.
    pub fn new(netlist: Cow<'a, Netlist>) -> Result<Self, PdatError> {
        netlist.validate()?;
        Ok(PreparedNetlist {
            netlist,
            fingerprint: OnceLock::new(),
            baseline: OnceLock::new(),
            model: Mutex::new(None),
        })
    }

    /// The analysis model with the `cut` nets cut from their drivers, built
    /// under the lock so concurrent requests for one cut build it once. A
    /// panic mid-build leaves the slot as it was, so poison is harmless.
    fn model(&self, cut: &[NetId]) -> Arc<Model> {
        let mut slot = match self.model.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(m) = slot.as_ref().filter(|m| m.cut == cut) {
            return Arc::clone(m);
        }
        let na = netlist_to_aig(&self.netlist, cut);
        let candidates = candidates_for_netlist(&self.netlist, &na);
        Arc::clone(slot.insert(Arc::new(Model {
            cut: cut.to_vec(),
            na,
            candidates,
        })))
    }
}

/// Baseline: plain synthesis, no properties. Ungoverned on purpose: the
/// baseline is the comparison yardstick and must not shift with budget
/// settings.
fn baseline_stats(netlist: &Netlist) -> NetlistStats {
    let (baseline_nl, _, _) = resynthesize_governed(netlist, &Governor::unlimited());
    baseline_nl.stats()
}

/// The nets cut from their drivers for this environment's analysis AIG.
fn cut_nets_for(env: &Environment<'_>) -> Vec<NetId> {
    match env {
        Environment::Rv {
            ports,
            mode: ConstraintMode::CutpointBased,
            ..
        } => ports.iter().flatten().copied().collect(),
        Environment::Thumb {
            port,
            mode: ConstraintMode::CutpointBased,
            ..
        } => port.clone(),
        _ => Vec::new(),
    }
}

/// The pipeline proper, over a prepared netlist. `warm` is a set
/// of invariants already proved under a *superset* environment (every
/// execution allowed here was allowed there): lattice monotonicity makes
/// them invariants here too, so they skip falsification entirely and
/// enter the Houdini fixpoint as permanently-assumed facts (see
/// [`houdini_prove_warm_governed`] for the exactness argument — the
/// unbudgeted warm-started proved set is identical to the cold one).
fn run_prepared(
    prepared: &PreparedNetlist<'_>,
    env: &Environment<'_>,
    extras: &[ExtraRestriction],
    warm: &[CandidateId],
    config: &PdatConfig,
    governor: &Governor,
) -> Result<PdatResult, PdatError> {
    let netlist: &Netlist = &prepared.netlist;
    let baseline = prepared.baseline.get_or_init(|| baseline_stats(netlist));
    let model = prepared.model(&cut_nets_for(env));
    let candidates = &model.candidates;
    // The constraint is added to a copy; the memo keeps the bare model.
    let mut na = model.na.clone();
    let mut degradations: Vec<DegradationEvent> = Vec::new();
    let t0 = Instant::now();

    // --- Stage 0/1: environment restriction onto the analysis model ---
    let (mut constraint, instr_constraints) = build_constraint(&mut na, netlist, env)?;
    for extra in extras {
        let lit = build_extra(&mut na, extra)?;
        constraint = na.aig.and(constraint, lit);
    }
    let constraint = constraint;
    let n_candidates = candidates.len();

    // Warm candidates are known-true invariants: simulation can never
    // kill them, so simulating them is pure waste. Filtering them out
    // does not perturb the survivors of the rest — the stimulus stream
    // depends only on the seed, and falsification is per-candidate
    // independent — so the merged survivor set below is bit-identical
    // to what a cold run computes.
    let warm_ids: HashSet<CandidateId> = warm.iter().copied().collect();
    let sim_input: Vec<Candidate> = candidates
        .iter()
        .filter(|c| !warm_ids.contains(&c.canonical_id()))
        .copied()
        .collect();

    // --- Falsify by constrained random simulation ---
    let constraints_ref = &instr_constraints;
    let stim = move |rng: &mut StdRng, words: &mut [u64]| {
        for w in words.iter_mut() {
            *w = rng.gen();
        }
        for c in constraints_ref {
            c.drive(rng, words);
        }
    };
    let (sim_survivors, sim_stats, sim_events) = simulate_filter_governed(
        &na,
        constraint,
        &sim_input,
        &SimFilterConfig {
            cycles: config.sim_cycles,
            lane_blocks: config.lane_blocks,
            threads: config.sim_threads,
            restart_threshold: config.restart_threshold,
        },
        &stim,
        config.seed,
        governor,
    );
    degradations.extend(sim_events);
    let survivors: Vec<Candidate> = if warm_ids.is_empty() {
        sim_survivors
    } else {
        // Merge in original candidate order so the prover's hypothesis
        // order, and with it every budget-driven drop, stays
        // deterministic in candidate identity.
        let alive: HashSet<Candidate> = sim_survivors.into_iter().collect();
        candidates
            .iter()
            .filter(|c| warm_ids.contains(&c.canonical_id()) || alive.contains(c))
            .copied()
            .collect()
    };
    let n_survivors = survivors.len();
    let t1 = Instant::now();

    // --- Prove by mutual induction (warm invariants pre-assumed) ---
    let (proved, houdini_stats, prove_events) = houdini_prove_warm_governed(
        &na.aig,
        constraint,
        &na,
        &survivors,
        warm,
        &HoudiniConfig {
            conflict_budget: config.conflict_budget,
            max_iterations: config.max_iterations,
            prove: config.prove.clone(),
        },
        governor,
    );
    degradations.extend(prove_events);
    let t2 = Instant::now();

    // --- Rewire (paper §IV-B: assignments only, no cell changes) ---
    let mut rewired = netlist.clone();
    apply_rewirings(&mut rewired, &proved);

    // --- Resynthesize (paper §IV-C) ---
    let (optimized_nl, _, synth_events) = resynthesize_governed(&rewired, governor);
    degradations.extend(synth_events);
    let optimized = optimized_nl.stats();
    let t3 = Instant::now();

    Ok(PdatResult {
        netlist: optimized_nl,
        baseline: baseline.clone(),
        optimized,
        candidates: n_candidates,
        sim_survivors: n_survivors,
        proved: proved.len(),
        proved_invariants: proved,
        stage_times: (t1 - t0, t2 - t1, t3 - t2),
        sim_stats,
        houdini_stats,
        degradations,
    })
}

/// The canonical, content-addressed description of an environment — the
/// constraint half of the proof-cache key. Two (env, extras) pairs that
/// compile to the same recognizer over the same nets canonicalize
/// identically regardless of subset names or list orderings.
pub fn canonical_env(env: &Environment<'_>, extras: &[ExtraRestriction]) -> CanonicalEnv {
    let cextras: Vec<CanonicalExtra> = extras
        .iter()
        .map(|e| match e {
            ExtraRestriction::CodeAt {
                addr,
                data,
                address,
                word,
            } => CanonicalExtra::CodeAt {
                addr: addr.iter().map(|n| n.0).collect(),
                data: data.iter().map(|n| n.0).collect(),
                address: *address,
                word: *word,
            },
            ExtraRestriction::PinnedInput { nets, value } => CanonicalExtra::PinnedInput {
                nets: nets.iter().map(|n| n.0).collect(),
                value: *value,
            },
        })
        .collect();
    let net_groups = |groups: &[Vec<NetId>]| {
        groups
            .iter()
            .map(|p| p.iter().map(|n| n.0).collect())
            .collect()
    };
    match env {
        Environment::Unconstrained => {
            CanonicalEnv::canonicalize(EnvMode::Unconstrained, Vec::new(), Vec::new(), cextras)
        }
        Environment::Rv {
            subset,
            ports,
            mode,
        } => CanonicalEnv::canonicalize(
            match mode {
                ConstraintMode::PortBased => EnvMode::RvPort,
                ConstraintMode::CutpointBased => EnvMode::RvCut,
            },
            net_groups(ports),
            rv_canonical_forms(subset),
            cextras,
        ),
        Environment::Thumb { subset, port, mode } => CanonicalEnv::canonicalize(
            match mode {
                ConstraintMode::PortBased => EnvMode::ThumbPort,
                ConstraintMode::CutpointBased => EnvMode::ThumbCut,
            },
            net_groups(std::slice::from_ref(port)),
            thumb_canonical_forms(subset),
            cextras,
        ),
    }
}

/// How the proof cache answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEffect {
    /// Identical (netlist, environment): nothing was solved at all.
    ExactHit,
    /// A superset environment's proved set warm-started the solve.
    LatticeHit {
        /// Number of warm-start invariants injected.
        warm: usize,
    },
    /// Solved cold.
    Miss,
}

/// Outcome of one cached subset evaluation.
#[derive(Debug)]
pub struct SubsetReport {
    /// Content fingerprint of the input netlist.
    pub netlist_fingerprint: u64,
    /// Fingerprint of the canonicalized environment.
    pub env_fingerprint: u64,
    /// How the cache participated.
    pub cache: CacheEffect,
    /// Canonical ids of every proved invariant, sorted — bit-identical
    /// between cold, warm-started, and exact-hit answers for the same
    /// request (lattice-monotone warm starts preserve the fixpoint).
    pub proved: Vec<CandidateId>,
    /// Resynthesis and stage-count summary.
    pub summary: CachedSummary,
    /// The full pipeline result when something was actually solved
    /// (`None` for exact hits — the cache answers without a netlist).
    pub result: Option<Box<PdatResult>>,
}

/// [`run_pdat`] with additional [`ExtraRestriction`]s, through the proof
/// cache: exact hits skip the whole pipeline, lattice hits (a cached
/// superset environment) warm-start the prover, misses solve cold — and
/// every complete (undegraded) solve is inserted for future reuse. An
/// uncached run passes a fresh [`ProofCache`].
///
/// # Errors
///
/// Returns [`PdatError`] if the input netlist is structurally invalid, a
/// constraint net is not a free analysis variable, or an extra
/// restriction is malformed.
pub fn run_pdat_cached(
    netlist: &Netlist,
    env: &Environment<'_>,
    extras: &[ExtraRestriction],
    config: &PdatConfig,
    cache: &ProofCache,
) -> Result<SubsetReport, PdatError> {
    let governor = config_governor(config);
    let prepared = PreparedNetlist::new(Cow::Borrowed(netlist))?;
    let cenv = canonical_env(env, extras);
    solve_cached(&prepared, &cenv, env, extras, config, &governor, cache)
}

/// One request of a batched multi-subset run.
pub struct BatchRequest<'a> {
    /// The environment restriction to evaluate.
    pub env: Environment<'a>,
    /// Additional restrictions conjoined into the environment.
    pub extras: Vec<ExtraRestriction>,
}

/// Evaluate many environment restrictions of one prepared netlist
/// through the proof cache.
///
/// * The baseline resynthesis and the analysis model come from
///   `prepared`, which builds each at most once for its whole lifetime
///   (the model memo holds the most recent cut-net list).
/// * Requests are *processed* in ascending lattice depth (most
///   permissive first, deterministic tie-break on fingerprint), so a
///   chain `E ⊇ E' ⊇ E''` resolves ancestors first and every descendant
///   warm-starts from the closest cached superset; duplicates collapse
///   to exact hits.
/// * One shared, caller-supplied governor spans the batch: its budgets
///   are drained in that same deterministic order, and it can be cloned
///   to another thread and `cancel()`ed. The `deadline` /
///   `global_*_budget` / `fault_plan` fields of `config` are ignored
///   here; [`run_pdat`] and [`run_pdat_cached`] build their governor from
///   them.
/// * Failures are **per-request**: a malformed request (e.g. a
///   constraint net that is not a free analysis variable) yields an
///   `Err` in its own slot and does not sink its batch-mates.
///
/// Outcomes are returned in the *original request order*, one
/// `Result<SubsetReport, PdatError>` per request.
pub fn run_pdat_batch(
    prepared: &PreparedNetlist<'_>,
    requests: &[BatchRequest<'_>],
    config: &PdatConfig,
    governor: &Governor,
    cache: &ProofCache,
) -> Vec<Result<SubsetReport, PdatError>> {
    let cenvs: Vec<CanonicalEnv> = requests
        .iter()
        .map(|r| canonical_env(&r.env, &r.extras))
        .collect();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (cenvs[i].depth(), cenvs[i].fingerprint(), i));

    let mut out: Vec<Option<Result<SubsetReport, PdatError>>> =
        (0..requests.len()).map(|_| None).collect();
    for i in order {
        let r = &requests[i];
        out[i] = Some(solve_cached(
            prepared, &cenvs[i], &r.env, &r.extras, config, governor, cache,
        ));
    }
    out.into_iter().flatten().collect()
}

/// Shared cached-solve core: consult the cache, solve (warm or cold) on
/// anything short of an exact hit, and insert complete solves back.
/// Exact hits read only the fingerprint, so they build nothing else.
fn solve_cached(
    prepared: &PreparedNetlist<'_>,
    cenv: &CanonicalEnv,
    env: &Environment<'_>,
    extras: &[ExtraRestriction],
    config: &PdatConfig,
    governor: &Governor,
    cache: &ProofCache,
) -> Result<SubsetReport, PdatError> {
    let nl = &prepared.netlist;
    let nfp = *prepared.fingerprint.get_or_init(|| netlist_fingerprint(nl));
    let env_fp = cenv.fingerprint();
    let (warm, effect) = match cache.lookup(nfp, cenv) {
        CacheLookup::Exact(run) => {
            return Ok(SubsetReport {
                netlist_fingerprint: nfp,
                env_fingerprint: env_fp,
                cache: CacheEffect::ExactHit,
                proved: run.proved.clone(),
                summary: run.summary.clone(),
                result: None,
            });
        }
        CacheLookup::Lattice(run) => {
            let warm = run.proved.len();
            (run.proved.clone(), CacheEffect::LatticeHit { warm })
        }
        CacheLookup::Miss => (Vec::new(), CacheEffect::Miss),
    };

    let res = run_prepared(prepared, env, extras, &warm, config, governor)?;
    let mut proved: Vec<CandidateId> = res
        .proved_invariants
        .iter()
        .map(|c| c.canonical_id())
        .collect();
    proved.sort_unstable();
    let summary = CachedSummary {
        candidates: res.candidates,
        sim_survivors: res.sim_survivors,
        baseline: res.baseline.clone(),
        optimized: res.optimized.clone(),
    };
    // Only complete runs are cacheable: a degraded (budget/deadline/
    // fault-cut) proved set is sound but smaller than the true fixpoint,
    // and caching it would silently downgrade later exact hits.
    if res.degradations.is_empty() {
        cache.insert(
            nfp,
            CachedRun {
                env: cenv.clone(),
                proved: proved.clone(),
                summary: summary.clone(),
            },
        );
    }
    Ok(SubsetReport {
        netlist_fingerprint: nfp,
        env_fingerprint: env_fp,
        cache: effect,
        proved,
        summary,
        result: Some(Box::new(res)),
    })
}

fn build_extra(na: &mut NetlistAig, extra: &ExtraRestriction) -> Result<AigLit, PdatError> {
    // "nets == value", bit i of `value` on net i; bits past its width read
    // as 0.
    fn equals(na: &mut NetlistAig, nets: &[NetId], value: u64) -> Result<AigLit, PdatError> {
        let terms = nets
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let l = *na.net_lit.get(n).ok_or(PdatError::UnknownNet { net: *n })?;
                let want = i < 64 && value >> i & 1 == 1;
                Ok(if want { l } else { !l })
            })
            .collect::<Result<Vec<AigLit>, PdatError>>()?;
        Ok(na.aig.and_many(&terms))
    }
    match extra {
        ExtraRestriction::CodeAt {
            addr,
            data,
            address,
            word,
        } => {
            if let Some(nets) = [addr.len(), data.len()].into_iter().find(|&n| n > 32) {
                return Err(PdatError::RestrictionTooWide { nets, bits: 32 });
            }
            // match := (addr == address); lit := match -> (data == word)
            let m = equals(na, addr, u64::from(*address))?;
            let d = equals(na, data, u64::from(*word))?;
            Ok(na.aig.implies(m, d))
        }
        ExtraRestriction::PinnedInput { nets, value } => equals(na, nets, *value),
    }
}

fn build_constraint(
    na: &mut NetlistAig,
    netlist: &Netlist,
    env: &Environment<'_>,
) -> Result<(AigLit, Vec<InstrConstraint>), PdatError> {
    let index_of: HashMap<_, _> = na
        .aig
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &n)| (pdat_aig::AigLit::of(n), i))
        .collect();
    let lits_and_indices =
        |na: &NetlistAig, nets: &[NetId]| -> Result<(Vec<AigLit>, Vec<usize>), PdatError> {
            let lits: Vec<AigLit> =
                nets.iter()
                    .map(|n| {
                        if n.index() >= netlist.num_nets() {
                            return Err(PdatError::UnknownNet { net: *n });
                        }
                        na.input_lit.get(n).copied().ok_or_else(|| {
                            PdatError::UnboundConstraintNet {
                                net: netlist.net(*n).name.clone(),
                            }
                        })
                    })
                    .collect::<Result<_, _>>()?;
            let idx: Vec<usize> = lits.iter().map(|l| index_of[l]).collect();
            Ok((lits, idx))
        };
    Ok(match env {
        Environment::Unconstrained => (AigLit::TRUE, Vec::new()),
        Environment::Rv { subset, ports, .. } => {
            let mut all = Vec::new();
            let mut lit = AigLit::TRUE;
            for port in ports {
                let (lits, idx) = lits_and_indices(na, port)?;
                let (l, c) = rv_constraint(&mut na.aig, &lits, idx, subset);
                lit = na.aig.and(lit, l);
                all.push(c);
            }
            (lit, all)
        }
        Environment::Thumb { subset, port, .. } => {
            let (lits, idx) = lits_and_indices(na, port)?;
            let (l, c) = thumb_constraint(&mut na.aig, &lits, idx, subset);
            (l, vec![c])
        }
    })
}

/// Apply proved invariants as rewirings: constants first, then aliases
/// (cycle-safe, one rewiring per net).
fn apply_rewirings(nl: &mut Netlist, proved: &[Candidate]) {
    let mut done: HashSet<NetId> = HashSet::new();
    for c in proved {
        match c.kind {
            CandidateKind::ConstFalse => {
                if done.insert(c.net) {
                    nl.assign_const(c.net, false);
                }
            }
            CandidateKind::ConstTrue => {
                if done.insert(c.net) {
                    nl.assign_const(c.net, true);
                }
            }
            CandidateKind::EqualNet(_) => {}
        }
    }
    for c in proved {
        if let CandidateKind::EqualNet(src) = c.kind {
            if done.contains(&c.net) {
                continue;
            }
            // Reject aliases that would close a loop through existing
            // alias chains.
            let mut cur = src;
            let mut hops = 0;
            let mut cycle = false;
            loop {
                if cur == c.net {
                    cycle = true;
                    break;
                }
                match nl.driver(cur) {
                    Driver::Alias(next) => {
                        cur = next;
                        hops += 1;
                        if hops > nl.num_nets() {
                            cycle = true;
                            break;
                        }
                    }
                    _ => break,
                }
            }
            if !cycle {
                done.insert(c.net);
                nl.assign_alias(c.net, src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdat_netlist::CellKind;

    /// A toy "decoder + execute" design: 4-bit opcode input; op==0xF drives
    /// an expensive unit. Restricting the environment to op != 0xF must
    /// remove that unit.
    fn toy_core() -> (Netlist, Vec<NetId>) {
        let mut nl = Netlist::new("toy");
        let op: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("op[{i}]"))).collect();
        let d: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("d[{i}]"))).collect();
        // sel = op == 0xF
        let a01 = nl.add_cell(CellKind::And2, &[op[0], op[1]], "a01");
        let a23 = nl.add_cell(CellKind::And2, &[op[2], op[3]], "a23");
        let sel = nl.add_cell(CellKind::And2, &[a01, a23], "sel");
        // "expensive unit": a 4-bit register pipeline enabled by sel.
        let mut prev = d.clone();
        for stage in 0..3 {
            let mut next = Vec::new();
            for (i, &p) in prev.iter().enumerate() {
                let gated = nl.add_cell(CellKind::And2, &[p, sel], format!("g{stage}_{i}"));
                next.push(nl.add_dff(gated, false, format!("q{stage}_{i}")));
            }
            prev = next;
        }
        // Result mixes the unit output with a cheap path.
        let cheap = nl.add_cell(CellKind::Xor2, &[d[0], d[1]], "cheap");
        let mix = nl.add_cell(CellKind::Or2, &[prev[0], cheap], "mix");
        nl.add_output("y", mix);
        for (i, &p) in prev.iter().enumerate() {
            nl.add_output(format!("u[{i}]"), p);
        }
        (nl, op)
    }

    #[test]
    fn restricting_opcode_removes_gated_unit() {
        let (nl, op) = toy_core();
        // Build a fake "RV-like" constraint by hand: op != 0xF, via the
        // Unconstrained + manual environment is not expressive enough, so
        // use the generic engine pieces directly through a 1-form subset.
        // Simpler: use Environment::Unconstrained as control...
        let base = run_pdat(&nl, &Environment::Unconstrained, &PdatConfig::default())
            .expect("valid netlist");
        // Unconstrained: sel can be 1, unit stays.
        assert!(base.optimized.dff_count > 0, "unit survives unconstrained");

        // Constrain op[3] == 0 by cutting it? Emulate with a wrapper design
        // where op[3] is tied low — here we exercise the pipeline stages on
        // the unconstrained path; subset-based environments are tested end
        // to end on the real cores in the integration suite.
        let mut tied = nl.clone();
        tied.assign_const(op[3], false);
        let res = run_pdat(&tied, &Environment::Unconstrained, &PdatConfig::default())
            .expect("valid netlist");
        assert_eq!(res.optimized.dff_count, 0, "gated unit removed");
        // With the tie being combinational, plain resynthesis already
        // removes everything PDAT can — the PDAT result must never be
        // *worse* than the baseline.
        assert!(res.optimized.gate_count <= res.baseline.gate_count);
    }

    /// The key-locked toy: a key DFF stuck at 1 selects the real function
    /// `t = a & b` over a decoy. Returns the netlist and input `a`.
    fn locked_core() -> (Netlist, NetId) {
        let mut nl = Netlist::new("locked");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let fb = nl.add_net("fb");
        let key = nl.add_dff(fb, true, "key");
        nl.assign_alias(fb, key);
        let t = nl.add_cell(CellKind::And2, &[a, b], "t");
        let decoy = nl.add_cell(CellKind::Xor2, &[a, b], "decoy");
        let out = nl.add_cell(CellKind::Mux2, &[decoy, t, key], "out");
        nl.add_output("y", out);
        (nl, a)
    }

    #[test]
    fn cached_runs_hit_exact_and_lattice() {
        let (nl, a) = locked_core();
        let cache = ProofCache::new();
        let cfg = PdatConfig::default();

        let r1 = run_pdat_cached(&nl, &Environment::Unconstrained, &[], &cfg, &cache)
            .expect("valid netlist");
        assert_eq!(r1.cache, CacheEffect::Miss, "first solve is cold");
        assert!(!r1.proved.is_empty());

        let r2 = run_pdat_cached(&nl, &Environment::Unconstrained, &[], &cfg, &cache)
            .expect("valid netlist");
        assert_eq!(r2.cache, CacheEffect::ExactHit);
        assert!(r2.result.is_none(), "exact hit solves nothing");
        assert_eq!(r1.proved, r2.proved, "identical answer from cache");
        assert_eq!(r1.summary, r2.summary);

        // A descendant environment (extra restriction) warm-starts from
        // the unconstrained ancestor...
        let extras = vec![ExtraRestriction::PinnedInput {
            nets: vec![a],
            value: 0,
        }];
        let r3 = run_pdat_cached(&nl, &Environment::Unconstrained, &extras, &cfg, &cache)
            .expect("valid netlist");
        assert_eq!(
            r3.cache,
            CacheEffect::LatticeHit {
                warm: r1.proved.len()
            }
        );
        for id in &r1.proved {
            assert!(r3.proved.contains(id), "monotone: ancestor proofs kept");
        }
        // ...and the warm-started answer is bit-identical to a cold one.
        let cold_cache = ProofCache::new();
        let cold = run_pdat_cached(&nl, &Environment::Unconstrained, &extras, &cfg, &cold_cache)
            .expect("valid netlist");
        assert_eq!(cold.cache, CacheEffect::Miss);
        assert_eq!(cold.proved, r3.proved, "warm == cold proved set");
        assert_eq!(cold.summary.optimized, r3.summary.optimized);
    }

    #[test]
    fn batch_resolves_ancestors_first_and_replies_in_request_order() {
        let (nl, a) = locked_core();
        let cache = ProofCache::new();
        let cfg = PdatConfig::default();
        // Deliberately out of lattice order: the descendant first, then
        // the (duplicated) unconstrained ancestor.
        let requests = vec![
            BatchRequest {
                env: Environment::Unconstrained,
                extras: vec![ExtraRestriction::PinnedInput {
                    nets: vec![a],
                    value: 0,
                }],
            },
            BatchRequest {
                env: Environment::Unconstrained,
                extras: vec![],
            },
            BatchRequest {
                env: Environment::Unconstrained,
                extras: vec![],
            },
        ];
        let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
        let outcomes = run_pdat_batch(&prepared, &requests, &cfg, &Governor::unlimited(), &cache);
        assert_eq!(outcomes.len(), 3);
        let reports: Vec<&SubsetReport> = outcomes
            .iter()
            .map(|r| r.as_ref().expect("valid request"))
            .collect();
        // The ancestor solved cold (once), its duplicate was an exact
        // hit, and the descendant warm-started — despite arriving first.
        assert_eq!(reports[1].cache, CacheEffect::Miss);
        assert_eq!(reports[2].cache, CacheEffect::ExactHit);
        assert_eq!(
            reports[0].cache,
            CacheEffect::LatticeHit {
                warm: reports[1].proved.len()
            }
        );
        assert_eq!(reports[1].proved, reports[2].proved);
        let s = cache.stats();
        assert_eq!((s.exact_hits, s.lattice_hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn batch_isolates_malformed_requests() {
        // Attaching an RV constraint to the internal net `t` is the
        // malformed case (`UnboundConstraintNet`).
        let (nl, _) = locked_core();
        let t = nl.find_net("t").expect("fixture net");

        let subset = RvSubset::rv32i();
        let cache = ProofCache::new();
        let requests = vec![
            BatchRequest {
                env: Environment::Unconstrained,
                extras: vec![],
            },
            BatchRequest {
                env: Environment::Rv {
                    subset: &subset,
                    ports: vec![vec![t; 32]],
                    mode: ConstraintMode::PortBased,
                },
                extras: vec![],
            },
            BatchRequest {
                env: Environment::Unconstrained,
                extras: vec![],
            },
        ];
        let prepared = PreparedNetlist::new(Cow::Borrowed(&nl)).expect("valid netlist");
        let outcomes = run_pdat_batch(
            &prepared,
            &requests,
            &PdatConfig::default(),
            &Governor::unlimited(),
            &cache,
        );
        assert_eq!(outcomes.len(), 3);
        assert!(
            matches!(outcomes[1], Err(PdatError::UnboundConstraintNet { .. })),
            "the malformed request fails in its own slot: {:?}",
            outcomes[1].as_ref().map(|_| ())
        );
        let good: Vec<&SubsetReport> = [&outcomes[0], &outcomes[2]]
            .into_iter()
            .map(|r| r.as_ref().expect("well-formed batch-mate survives"))
            .collect();
        assert!(!good[0].proved.is_empty());
        assert_eq!(good[0].proved, good[1].proved);
        assert_eq!(good[1].cache, CacheEffect::ExactHit);
    }

    #[test]
    fn unfalsified_run_checks_the_base_case() {
        // With no simulation every candidate reaches the prover. A latch
        // that holds its reset value 1 makes "q == 0" and "q == 1" each
        // inductive and together contradictory, so consecution alone would
        // prove every candidate; the base case must drop the false ones.
        let mut nl = Netlist::new("held");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let q = nl.add_dff(fb, true, "q");
        nl.assign_alias(fb, q);
        let y = nl.add_cell(CellKind::And2, &[q, a], "y");
        nl.add_output("y", y);
        let cfg = PdatConfig {
            sim_cycles: 0,
            ..PdatConfig::default()
        };
        let res = run_pdat(&nl, &Environment::Unconstrained, &cfg).expect("valid netlist");
        // Every reachable state has q = 1 and any input: each proved
        // invariant must hold for both values of `a`.
        for a_value in [false, true] {
            let mut sim = pdat_netlist::Simulator::new(&nl);
            sim.set_input(a, a_value);
            for c in &res.proved_invariants {
                let holds = match c.kind {
                    CandidateKind::ConstFalse => !sim.value(c.net),
                    CandidateKind::ConstTrue => sim.value(c.net),
                    CandidateKind::EqualNet(o) => sim.value(c.net) == sim.value(o),
                };
                assert!(holds, "a={a_value}: proved a false invariant: {c:?}");
            }
        }
        assert!(res.proved_invariants.contains(&Candidate {
            net: q,
            kind: CandidateKind::ConstTrue,
        }));
    }

    #[test]
    fn unconstrained_run_is_sound_on_sequential_keys() {
        // Key latch gating logic: PDAT proves the key constant and strips
        // the mux; plain resynthesis cannot.
        let (nl, _) = locked_core();
        let res = run_pdat(&nl, &Environment::Unconstrained, &PdatConfig::default())
            .expect("valid netlist");
        assert!(res.proved >= 1, "key invariant proved");
        assert_eq!(res.optimized.dff_count, 0, "key latch removed");
        assert!(
            res.optimized.gate_count < res.baseline.gate_count,
            "locking overhead stripped: {} -> {}",
            res.baseline.gate_count,
            res.optimized.gate_count
        );
    }
}
