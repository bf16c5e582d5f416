//! Processor-core netlist generators for the PDAT reproduction.
//!
//! Three embedded-class cores mirror the paper's Table II:
//!
//! * [`build_ibex`] — 2-stage in-order RV32IMC+Zicsr (Ibex-class);
//! * a 3-stage ARMv6-M core (Cortex-M0-class) with an obfuscation pass;
//! * a 2-way out-of-order RV32IM core at the ~100k-gate scale
//!   (RIDECORE-class).
//!
//! [`CoreHarness`] executes the Ibex-class and Cortex-M0-class netlists
//! against in-memory program images for lockstep validation, through the
//! [`CorePorts`] both cores expose.

mod cortexm0;
mod expander;
mod harness;
mod ibex;
mod obfuscate;
mod ridecore;
mod spec;

pub use cortexm0::{build_cortexm0, rebind_cortexm0, CortexM0Core};
pub use expander::build_expander;
pub use harness::{CoreHarness, CorePorts, GateCore};
pub use ibex::{build_ibex, rebind_ibex, IbexCore};
pub use obfuscate::{obfuscate, ObfuscateConfig};
pub use ridecore::{build_ridecore, RideCore};
pub use spec::{core_specs, CoreSpec};
