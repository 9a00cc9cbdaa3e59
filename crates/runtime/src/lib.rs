//! # byzreg-runtime
//!
//! Shared-memory substrate for the `byzreg` workspace — the model of §3 of
//! *"You can lie but not deny: SWMR registers with signature properties in
//! systems with Byzantine processes"* (Hu & Toueg, PODC 2025) made
//! executable:
//!
//! * [`register`] — atomic SWMR/SWSR base registers whose *write ports* are
//!   structurally restricted to their owner (the Remark of §1),
//! * [`gate`] — pluggable schedulers for shared-memory steps, including a
//!   deterministic seeded lockstep scheduler,
//! * [`system`] — `n` processes with background `Help()` engines and
//!   Byzantine adversary actors,
//! * [`history`] — global recording of operation histories (`H|correct`),
//!   the input to the Byzantine linearizability checkers in `byzreg-spec`.
//!
//! # Example
//!
//! ```
//! use byzreg_runtime::{register, ProcessId, Scheduling, System};
//!
//! let system = System::builder(4).scheduling(Scheduling::Lockstep(7)).build();
//! let env = system.env();
//! let (w, r) = register::swmr(env.gate(), ProcessId::new(1), "R*", 0u64);
//! env.run_as(ProcessId::new(1), || w.write(41));
//! env.run_as(ProcessId::new(2), || assert_eq!(r.read(), 41));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod factory;
pub mod gate;
pub mod history;
pub mod pid;
pub mod register;
pub mod system;

pub use error::{Error, Result};
pub use factory::{LocalFactory, RegisterFactory};
pub use gate::{FreeGate, LockstepGate, Participation, StepGate};
pub use history::{Clock, CompleteOp, Event, EventKind, HistoryLog, OpToken};
pub use pid::{ProcessId, Roles};
pub use register::{custom_swmr, swmr, CellBackend, ReadPort, WritePort};
pub use system::{
    AskGuard, ByzantineBehavior, Env, HelpDemand, HelpDemandGuard, HelpShard, HelpTask, Scheduling,
    System, SystemBuilder,
};

/// Marker trait for values storable in the implemented registers.
///
/// Blanket-implemented for every type with the required bounds; exists only
/// to keep signatures readable.
pub trait Value:
    Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static
{
}

impl<T: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static> Value for T {}
