//! History recording: a global total order of invocation/response events.
//!
//! The correctness notion of the paper — Byzantine linearizability
//! (Definitions 6–9) — is a property of *histories*. The operation handles
//! of an object built with one of its inherent constructors (e.g.
//! `VerifiableRegister::install`) record their invocations and responses
//! into a [`HistoryLog`], stamped by a [`Clock`] shared across all objects
//! of a system, so that the real-time precedence relation between
//! operations (Definition 1) is captured exactly. A register installed
//! through the generic `SignatureRegister` trait, as the keyed store
//! installs its keys, cannot hand its history to anyone and gets
//! [`HistoryLog::off`]: it records nothing and never ticks the clock.
//!
//! Only the steps of *correct* processes are recorded through operation
//! handles, so a recorded history is `H|correct` in the paper's notation
//! (Definition 6) — precisely the projection that the Byzantine
//! linearizability checker in `byzreg-spec` consumes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pid::ProcessId;

/// A monotone global event clock.
///
/// `tick()` returns strictly increasing values whose order is consistent
/// with real time (it is a single atomic `fetch_add`).
#[derive(Clone, Debug, Default)]
pub struct Clock(Arc<AtomicU64>);

impl Clock {
    /// Creates a clock starting at time `1`.
    #[must_use]
    pub fn new() -> Self {
        Clock(Arc::new(AtomicU64::new(1)))
    }

    /// Returns the next timestamp.
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }

    /// The current time (next timestamp to be issued).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Identifier of one recorded operation within a log.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct OpToken(u64);

impl OpToken {
    /// Creates a token with an explicit id (useful for synthesizing
    /// operations, e.g. the writer-op augmentation of the Byzantine
    /// linearizability checker).
    #[must_use]
    pub fn synthetic(id: u64) -> Self {
        OpToken(id)
    }
}

/// A single invocation or response event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<I, R> {
    /// Global timestamp from the shared [`Clock`].
    pub time: u64,
    /// The process performing the event.
    pub pid: ProcessId,
    /// Operation id linking invocations to responses.
    pub op: OpToken,
    /// Payload.
    pub kind: EventKind<I, R>,
}

/// Payload of an [`Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<I, R> {
    /// An operation was invoked.
    Invoke(I),
    /// An operation returned.
    Respond(R),
}

/// A matched invocation/response pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompleteOp<I, R> {
    /// Operation id.
    pub op: OpToken,
    /// The invoking process.
    pub pid: ProcessId,
    /// Invocation time (global clock).
    pub invoked_at: u64,
    /// Response time (global clock).
    pub responded_at: u64,
    /// What was invoked.
    pub invocation: I,
    /// What it returned.
    pub response: R,
}

impl<I, R> CompleteOp<I, R> {
    /// `true` if this operation's response precedes `other`'s invocation
    /// (Definition 1: `o` precedes `o'`).
    #[must_use]
    pub fn precedes(&self, other: &CompleteOp<I, R>) -> bool {
        self.responded_at < other.invoked_at
    }
}

struct LogInner<I, R> {
    clock: Clock,
    events: Vec<Event<I, R>>,
    next_op: u64,
}

/// An append-only log of operation events for one implemented object, or
/// a log that records nothing ([`HistoryLog::off`]).
///
/// # Examples
///
/// ```
/// use byzreg_runtime::{Clock, HistoryLog, ProcessId};
///
/// let clock = Clock::new();
/// let log: HistoryLog<&str, bool> = HistoryLog::new(clock);
/// let op = log.invoke(ProcessId::new(2), "verify(v)");
/// log.respond(op, ProcessId::new(2), true);
/// let ops = log.complete_ops();
/// assert_eq!(ops.len(), 1);
/// assert_eq!(ops[0].response, true);
/// ```
pub struct HistoryLog<I, R> {
    /// `None` for a log that records nothing.
    rec: Option<Arc<Mutex<LogInner<I, R>>>>,
}

impl<I, R> Clone for HistoryLog<I, R> {
    fn clone(&self) -> Self {
        HistoryLog { rec: self.rec.clone() }
    }
}

impl<I: Clone, R: Clone> HistoryLog<I, R> {
    /// Creates a log stamped by `clock`.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        HistoryLog {
            rec: Some(Arc::new(Mutex::new(LogInner { clock, events: Vec::new(), next_op: 1 }))),
        }
    }

    /// Creates a log that records nothing and ticks no clock: for objects
    /// whose history nobody can read.
    #[must_use]
    pub fn off() -> Self {
        HistoryLog { rec: None }
    }

    /// Records an invocation and returns its token.
    pub fn invoke(&self, pid: ProcessId, invocation: I) -> OpToken {
        let Some(inner) = &self.rec else { return OpToken::default() };
        let mut inner = inner.lock();
        let op = OpToken(inner.next_op);
        inner.next_op += 1;
        let time = inner.clock.tick();
        inner.events.push(Event { time, pid, op, kind: EventKind::Invoke(invocation) });
        op
    }

    /// Records the response of a previously invoked operation.
    pub fn respond(&self, op: OpToken, pid: ProcessId, response: R) {
        let Some(inner) = &self.rec else { return };
        let mut inner = inner.lock();
        let time = inner.clock.tick();
        inner.events.push(Event { time, pid, op, kind: EventKind::Respond(response) });
    }

    /// All recorded events in timestamp order.
    #[must_use]
    pub fn events(&self) -> Vec<Event<I, R>> {
        let Some(inner) = &self.rec else { return Vec::new() };
        let mut ev = inner.lock().events.clone();
        ev.sort_by_key(|e| e.time);
        ev
    }

    /// All *complete* operations (invocation matched with response), sorted
    /// by invocation time. Incomplete operations — e.g. aborted by shutdown —
    /// are dropped, which Definition 2 permits for a completion of a history.
    #[must_use]
    pub fn complete_ops(&self) -> Vec<CompleteOp<I, R>> {
        let Some(inner) = &self.rec else { return Vec::new() };
        let inner = inner.lock();
        let mut pending: std::collections::HashMap<OpToken, (&Event<I, R>, &I)> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for e in &inner.events {
            match &e.kind {
                EventKind::Invoke(i) => {
                    pending.insert(e.op, (e, i));
                }
                EventKind::Respond(r) => {
                    if let Some((inv_event, inv)) = pending.remove(&e.op) {
                        out.push(CompleteOp {
                            op: e.op,
                            pid: inv_event.pid,
                            invoked_at: inv_event.time,
                            responded_at: e.time,
                            invocation: inv.clone(),
                            response: r.clone(),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|o| o.invoked_at);
        out
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rec.as_ref().map_or(0, |inner| inner.lock().events.len())
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_strictly_increasing() {
        let c = Clock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert!(c.now() > b);
    }

    #[test]
    fn complete_ops_pairs_invocations_with_responses() {
        let log: HistoryLog<u32, u32> = HistoryLog::new(Clock::new());
        let p = ProcessId::new(2);
        let a = log.invoke(p, 1);
        let b = log.invoke(ProcessId::new(3), 2);
        log.respond(b, ProcessId::new(3), 20);
        log.respond(a, p, 10);
        let ops = log.complete_ops();
        assert_eq!(ops.len(), 2);
        // Sorted by invocation time: a was invoked first.
        assert_eq!(ops[0].invocation, 1);
        assert_eq!(ops[0].response, 10);
        assert_eq!(ops[1].response, 20);
        // b responded before a responded, and after a invoked => concurrent.
        assert!(!ops[0].precedes(&ops[1]));
        assert!(!ops[1].precedes(&ops[0]));
    }

    #[test]
    fn incomplete_ops_are_dropped() {
        let log: HistoryLog<&str, ()> = HistoryLog::new(Clock::new());
        let _dangling = log.invoke(ProcessId::new(2), "never returns");
        let done = log.invoke(ProcessId::new(3), "returns");
        log.respond(done, ProcessId::new(3), ());
        assert_eq!(log.complete_ops().len(), 1);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn precedence_matches_definition_1() {
        let log: HistoryLog<&str, ()> = HistoryLog::new(Clock::new());
        let a = log.invoke(ProcessId::new(2), "a");
        log.respond(a, ProcessId::new(2), ());
        let b = log.invoke(ProcessId::new(2), "b");
        log.respond(b, ProcessId::new(2), ());
        let ops = log.complete_ops();
        assert!(ops[0].precedes(&ops[1]));
        assert!(!ops[1].precedes(&ops[0]));
    }

    #[test]
    fn an_off_log_records_nothing_and_never_ticks() {
        let clock = Clock::new();
        let log: HistoryLog<&str, ()> = HistoryLog::off();
        let before = clock.now();
        let op = log.invoke(ProcessId::new(2), "unrecorded");
        log.respond(op, ProcessId::new(2), ());
        assert_eq!(log.len(), 0);
        assert!(log.is_empty() && log.events().is_empty() && log.complete_ops().is_empty());
        assert_eq!(clock.now(), before, "an off log leaves the clock alone");
    }

    #[test]
    fn logs_share_a_clock_for_cross_object_order() {
        let clock = Clock::new();
        let log1: HistoryLog<&str, ()> = HistoryLog::new(clock.clone());
        let log2: HistoryLog<&str, ()> = HistoryLog::new(clock);
        let a = log1.invoke(ProcessId::new(2), "on object 1");
        log1.respond(a, ProcessId::new(2), ());
        let b = log2.invoke(ProcessId::new(2), "on object 2");
        log2.respond(b, ProcessId::new(2), ());
        let o1 = &log1.complete_ops()[0];
        let o2 = &log2.complete_ops()[0];
        assert!(o1.responded_at < o2.invoked_at, "cross-object real-time order is preserved");
    }
}
