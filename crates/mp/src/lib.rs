//! # byzreg-mp
//!
//! Message-passing substrate for the `byzreg` reproduction:
//!
//! * [`net`] — a simulated asynchronous network with reliable FIFO
//!   authenticated channels and a **seeded virtual-time delivery
//!   schedule**: jitter decides the *order* messages are handed to
//!   receivers, never wall-clock sleeps, so the whole schedule replays
//!   from the seed;
//! * [`adversary`] — seeded **adversarial delivery schedules** layered
//!   over the virtual-time heap: targeted per-link delay distributions,
//!   bounded reordering, temporary partitions that heal, and
//!   hold-back-until-quorum pens — deterministic, FIFO-preserving, and
//!   composable into [`MpConfig`](swmr::MpConfig) or
//!   [`MpFactory::adversarial`](backend::MpFactory::adversarial);
//! * [`reactor`] — a fixed pool of worker threads multiplexing any number
//!   of event-driven tasks; quiet tasks cost nothing (workers park, no
//!   polling). It drains only traffic that Byzantine endpoints inject:
//!   client operations drain their register on the calling thread;
//! * [`swmr`] — a signature-free emulation of an atomic SWMR register for
//!   Byzantine systems with `n > 3f`, in the style of
//!   Mostéfaoui–Petrolia–Raynal–Jard (the paper's citation [11]);
//! * [`backend`] — an [`MpFactory`](backend::MpFactory) that lets
//!   Algorithms 1–3 of `byzreg-core` run **unchanged** over the emulation,
//!   executing the paper's message-passing corollary (experiment E6).
//!
//! # The state-machine/tick model
//!
//! [11] frames each protocol participant as a *message-driven state
//! machine*: a node's entire behavior is a transition function applied to
//! delivered messages. This crate takes that framing literally.
//! [`swmr::NodeStateMachine`] has exactly two entry points —
//! `on_message(from, msg)` for a delivered protocol message and
//! `on_tick()` for housekeeping (an idle node starting its next queued
//! client command) — and neither may block. All correct nodes of one
//! register form a single task that pops the register's virtual event
//! queue in `(delivery instant, send sequence)` order and feeds each event
//! to the destination node, running the cascade (echo, validate, ack,
//! state refresh) to quiescence — on the thread of the client whose
//! command it carries.
//!
//! This is how experiment E6 maps onto the paper: every *shared-memory
//! step* taken by Algorithms 1–3 against an [`MpFactory`](backend::MpFactory)
//! register becomes one client command, which becomes a full quorum
//! exchange (`Write`/`Echo`/`Valid`/`Ack` or `Read`/`State`) executed as a
//! deterministic burst of state-machine transitions — and because nodes
//! are data, not threads, a keyed store can hold *thousands* of emulated
//! registers with no thread of their own, where an earlier design spent
//! `n` OS threads per register.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod backend;
pub mod net;
pub mod reactor;
pub mod swmr;

pub use adversary::{AdversaryPolicy, LinkSet, Tactic};
pub use backend::MpFactory;
pub use net::{adversarial_network, network, DeliverySchedule, Endpoint, NetConfig};
pub use reactor::{Reactor, ReactorTask, TaskId};
pub use swmr::{MpClient, MpConfig, MpRegister, Msg, NodeStateMachine, RegisterGroup};
