//! # pdat-serve — a resident, deadline-governed PDAT service
//!
//! `pdat::run_pdat_prepared` answers one request of a prepared netlist
//! through a proof cache; this crate keeps a PDAT instance *resident*: one
//! long-running service owns one `pdat::PreparedNetlist` and one shared
//! proof cache, sends each admitted request through that entry, and
//! answers subset requests over time, surviving panicking attempts,
//! per-request deadline blowouts, and interrupted cache saves.
//!
//! The dependency-free service loop is three pieces:
//!
//! * a bounded, admission-controlled MPSC work queue (private; its
//!   behaviour surfaces as [`SubmitError::Overloaded`]),
//! * [`PdatService`] — the worker pool and the checkpointer (its module
//!   docs spell out the full fault model),
//! * [`Reply`] — the typed outcome lattice. The service-level soundness
//!   contract mirrors the pipeline's (paper §VII-C): a [`Reply::Done`]
//!   is bit-identical to an unfaulted oracle run; every fault path ends
//!   in a clean typed outcome that claims nothing.
//!
//! ```no_run
//! use pdat_serve::{OwnedEnvironment, PdatService, ServeConfig, ServeRequest};
//! use pdat::ConstraintMode;
//! use pdat_isa::RvSubset;
//!
//! # fn demo(netlist: pdat_netlist::Netlist, port: Vec<pdat_netlist::NetId>) {
//! let service = PdatService::start(netlist, ServeConfig::default()).expect("valid netlist");
//! let ticket = service
//!     .submit(ServeRequest {
//!         env: OwnedEnvironment::Rv {
//!             subset: RvSubset::rv32i(),
//!             ports: vec![port],
//!             mode: ConstraintMode::PortBased,
//!         },
//!         extras: Vec::new(),
//!     })
//!     .expect("admitted");
//! let reply = ticket.wait();
//! assert!(reply.is_done());
//! # }
//! ```

mod queue;
mod request;
mod service;

pub use request::{OverloadReason, OwnedEnvironment, Reply, ServeRequest, SubmitError, Ticket};
pub use service::{PdatService, ServeConfig, ServiceStats};
