//! # PDAT — Property-Driven Automatic Transformation
//!
//! A from-scratch reproduction of *"Property-driven Automatic Generation
//! of Reduced-ISA Hardware"* (Bleier, Sartori, Kumar — DAC 2021).
//!
//! PDAT takes a gate-level netlist (a soft/firm IP, possibly obfuscated),
//! binds invariant properties to every gate, restricts the execution
//! environment to a reduced ISA, formally proves which gate invariants
//! hold on all allowed executions, rewires the proved gates, and
//! resynthesizes — producing a smaller core that still executes every
//! program written against the reduced ISA.
//!
//! ## Pipeline (paper Fig. 2)
//!
//! 1. **Annotate** — the Property Library ([`pdat_mc::candidates_for_netlist`])
//!    attaches constant and equality properties to every cell.
//! 2. **Environment restriction** — an ISA subset ([`pdat_isa::RvSubset`] /
//!    [`pdat_isa::ThumbSubset`]) compiles into a recognizer circuit bound
//!    to the instruction port ([`ConstraintMode::PortBased`]) or to the
//!    fetch-decode pipeline register via cutpoints
//!    ([`ConstraintMode::CutpointBased`], paper Fig. 4).
//! 3. **Property checking** — constrained random simulation falsifies,
//!    Houdini-style mutual induction proves ([`pdat_mc`]).
//! 4. **Rewiring** — proved invariants become `assign` statements; no cell
//!    is added or removed.
//! 5. **Logic resynthesis** — [`pdat_synth::resynthesize`] removes the
//!    dead logic and reports gate count and area.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pdat::{run_pdat, Environment, ConstraintMode, PdatConfig};
//! use pdat_cores::build_ibex;
//! use pdat_isa::RvSubset;
//!
//! let core = build_ibex();
//! let subset = RvSubset::rv32i();
//! let result = run_pdat(
//!     &core.netlist,
//!     &Environment::Rv {
//!         subset: &subset,
//!         ports: vec![core.cut_fetch.clone()],
//!         mode: ConstraintMode::CutpointBased,
//!     },
//!     &PdatConfig::default(),
//! )
//! .expect("valid input netlist");
//! println!(
//!     "gates {} -> {} ({:.1}% reduction)",
//!     result.baseline.gate_count,
//!     result.optimized.gate_count,
//!     100.0 * result.gate_reduction()
//! );
//! ```

mod constraint;
mod pipeline;

pub use constraint::{
    rv_canonical_forms, rv_constraint, thumb_canonical_forms, thumb_constraint, ConstraintMode,
    InstrConstraint,
};
pub use pdat_cache::{
    load_cache, load_cache_or_quarantine, netlist_fingerprint, save_cache, save_cache_with_faults,
    CacheIoError, CacheLookup, CacheStats, CachedRun, CachedSummary, CanonicalEnv, CanonicalExtra,
    CanonicalForm, EnvMode, LoadOutcome, ProofCache,
};
pub use pdat_governor::{
    Cause, DegradationEvent, FaultPlan, Governor, GovernorConfig, Stage,
};
pub use pdat_mc::{
    Candidate, CandidateId, CandidateKind, HoudiniStats, ProveConfig, ShardStats, SimFilterStats,
};
pub use pipeline::{
    canonical_env, run_pdat, run_pdat_batch, run_pdat_cached, BatchRequest, CacheEffect,
    Environment, ExtraRestriction, PdatConfig, PdatError, PdatResult, PreparedNetlist,
    SubsetReport,
};
