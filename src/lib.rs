//! Umbrella crate for the PDAT reproduction workspace: re-exports the
//! public API of every subsystem so examples and integration tests can use
//! a single dependency.
//!
//! See the [`pdat`] crate for the pipeline itself and DESIGN.md for the
//! system inventory.

pub use pdat::{
    canonical_env, load_cache, load_cache_or_quarantine, netlist_fingerprint, run_pdat,
    run_pdat_cached, run_pdat_prepared, rv_canonical_forms, rv_constraint, save_cache,
    save_cache_with_faults, thumb_canonical_forms, thumb_constraint, CacheEffect, Candidate,
    CandidateId, CandidateKind, CanonicalEnv, CanonicalForm, Cause, ConstraintMode,
    DegradationEvent, EnvMode, Environment, ExtraRestriction, FaultPlan, Governor, GovernorConfig,
    InstrConstraint, LoadOutcome, PdatConfig, PdatError, PdatResult, PreparedNetlist, ProofCache,
    ProveConfig, Stage, SubsetReport,
};
pub use pdat_aig as aig;
pub use pdat_cache as cache;
pub use pdat_cores as cores;
pub use pdat_governor as governor;
pub use pdat_isa as isa;
pub use pdat_mc as mc;
pub use pdat_netlist as netlist;
pub use pdat_rtl as rtl;
pub use pdat_sat as sat;
pub use pdat_serve as serve;
pub use pdat_serve::{
    OverloadReason, OwnedEnvironment, PdatService, Reply, ServeConfig, ServeRequest, ServiceStats,
    SubmitError, Ticket,
};
pub use pdat_synth as synth;
pub use pdat_workloads as workloads;
