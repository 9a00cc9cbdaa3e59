//! Step gates: pluggable schedulers for shared-memory steps.
//!
//! Every access to a shared register (see [`crate::register`]) is one *step*
//! in the sense of the paper's model (§3.3). A [`StepGate`] decides when the
//! calling thread may perform its next step:
//!
//! * [`FreeGate`] lets threads run at full speed (wall-clock concurrency) —
//!   used by benchmarks and examples. An optional *chaos* mode injects seeded
//!   yields/sleeps to shake out interleavings under real parallelism.
//! * [`LockstepGate`] serializes all steps: at any instant exactly one
//!   registered participant runs, chosen uniformly at random with a seeded
//!   RNG once every participant is parked at the gate. Executions are
//!   deterministic for a given seed, and the uniform choice is fair with
//!   probability 1, matching the paper's assumption that correct processes
//!   take infinitely many steps.
//!
//! Threads that perform steps must *participate* in the gate for the duration
//! of their activity (see [`Participation`]); non-participating threads pass
//! through without gating, so registers remain usable from plain test code.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pid::ProcessId;

/// Global source of unique gate ids, used to match thread-local
/// participations to gate instances.
static GATE_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The participation of the current thread, if any.
    static CURRENT: RefCell<Option<(u64 /* gate id */, ProcessId, u64 /* token */)>> =
        const { RefCell::new(None) };
}

/// A scheduler for shared-memory steps.
///
/// Implementations must be fair: every participant that keeps requesting
/// turns is granted infinitely many of them in an infinite execution.
pub trait StepGate: Send + Sync + 'static {
    /// Unique id of this gate instance.
    fn id(&self) -> u64;

    /// Registers the calling thread as a participant acting for `pid`, and
    /// returns an opaque token identifying the thread within the gate.
    fn register(&self, pid: ProcessId) -> u64;

    /// Removes a participant. Must be called exactly once per `register`.
    fn deregister(&self, token: u64);

    /// Blocks until the participant identified by `token` may take a step.
    ///
    /// After the step's shared-memory access completes the caller must invoke
    /// [`StepGate::release_turn`]. Returns immediately once shutdown has been
    /// requested.
    fn wait_turn(&self, token: u64);

    /// Signals that the step started by [`StepGate::wait_turn`] finished.
    fn release_turn(&self, token: u64);

    /// Requests shutdown: all parked participants are released and further
    /// steps pass through ungated.
    fn request_shutdown(&self);

    /// Returns `true` once shutdown has been requested.
    fn is_shutdown(&self) -> bool;

    /// Total number of steps granted so far (ungated steps included).
    fn steps(&self) -> u64;
}

/// RAII participation of the current thread in a gate.
///
/// Created by [`Participation::enter`]; restores the previous participation
/// (if any) when dropped, so nested operations of the same process can share
/// a thread.
pub struct Participation {
    gate: Arc<dyn StepGate>,
    token: Option<u64>,
    prev: Option<(u64, ProcessId, u64)>,
}

impl Participation {
    /// Registers the current thread with `gate` as process `pid`.
    ///
    /// If the thread already participates in the *same* gate (nested
    /// operation), the existing registration is reused and no second
    /// participant is added.
    pub fn enter(gate: Arc<dyn StepGate>, pid: ProcessId) -> Participation {
        let prev = CURRENT.with(|c| *c.borrow());
        if let Some((gid, _, _)) = prev {
            if gid == gate.id() {
                // Nested: keep the outer registration.
                return Participation { gate, token: None, prev: None };
            }
        }
        let token = gate.register(pid);
        CURRENT.with(|c| *c.borrow_mut() = Some((gate.id(), pid, token)));
        Participation { gate, token: Some(token), prev }
    }

    /// The process this thread is acting for, if it participates anywhere.
    pub fn current_pid() -> Option<ProcessId> {
        CURRENT.with(|c| c.borrow().map(|(_, pid, _)| pid))
    }
}

impl Drop for Participation {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            self.gate.deregister(token);
            CURRENT.with(|c| *c.borrow_mut() = self.prev);
        }
    }
}

/// Runs `f` as one gated step against `gate`.
///
/// If the current thread participates in `gate`, the call blocks until the
/// scheduler grants a turn and releases it afterwards (also on panic).
/// Non-participating threads run `f` immediately.
pub fn step<R>(gate: &Arc<dyn StepGate>, f: impl FnOnce() -> R) -> R {
    let token = CURRENT
        .with(|c| c.borrow().and_then(|(gid, _, token)| (gid == gate.id()).then_some(token)));
    match token {
        Some(token) => {
            struct Release<'a>(&'a dyn StepGate, u64);
            impl Drop for Release<'_> {
                fn drop(&mut self) {
                    self.0.release_turn(self.1);
                }
            }
            gate.wait_turn(token);
            let _release = Release(&**gate, token);
            f()
        }
        None => f(),
    }
}

/// Performs an idle step: parks at the gate without touching shared memory.
///
/// Background loops (help engines, adversaries) call this once per iteration
/// so that, under a [`LockstepGate`], they count as parked while they have
/// nothing to do, keeping the lockstep dispatch condition satisfiable.
pub fn idle_step(gate: &Arc<dyn StepGate>) {
    step(gate, || {});
}

// ---------------------------------------------------------------------------
// FreeGate
// ---------------------------------------------------------------------------

/// A pass-through gate: steps run immediately with no scheduling.
///
/// With [`FreeGate::chaotic`], seeded pseudo-random yields and micro-sleeps
/// are injected to diversify thread interleavings under real concurrency.
pub struct FreeGate {
    id: u64,
    steps: AtomicU64,
    shutdown: std::sync::atomic::AtomicBool,
    chaos_seed: Option<u64>,
    participants: AtomicU64,
}

impl FreeGate {
    /// Creates a gate that never blocks or yields.
    #[must_use]
    pub fn new() -> Self {
        FreeGate {
            id: GATE_IDS.fetch_add(1, Ordering::Relaxed),
            steps: AtomicU64::new(0),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            chaos_seed: None,
            participants: AtomicU64::new(0),
        }
    }

    /// Creates a gate that injects seeded scheduling noise.
    #[must_use]
    pub fn chaotic(seed: u64) -> Self {
        FreeGate { chaos_seed: Some(seed), ..FreeGate::new() }
    }
}

impl Default for FreeGate {
    fn default() -> Self {
        Self::new()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl StepGate for FreeGate {
    fn id(&self) -> u64 {
        self.id
    }

    fn register(&self, _pid: ProcessId) -> u64 {
        self.participants.fetch_add(1, Ordering::Relaxed)
    }

    fn deregister(&self, _token: u64) {}

    fn wait_turn(&self, token: u64) {
        let n = self.steps.fetch_add(1, Ordering::Relaxed);
        if let Some(seed) = self.chaos_seed {
            let h = splitmix64(seed ^ n ^ token.rotate_left(32));
            if h % 7 == 0 {
                std::thread::yield_now();
            }
            if h % 611 == 0 {
                std::thread::sleep(Duration::from_micros(h % 97));
            }
        }
    }

    fn release_turn(&self, _token: u64) {}

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// LockstepGate
// ---------------------------------------------------------------------------

struct LockstepState {
    participants: HashMap<u64, ProcessId>,
    /// Tokens parked at the gate. A sorted set makes the seeded pick depend
    /// only on *which* participants are parked, not on their racy arrival
    /// order, so executions are reproducible whenever participant identities
    /// are (tokens are derived from `(pid, per-pid sequence)`).
    waiting: std::collections::BTreeSet<u64>,
    granted: Option<u64>,
    rng: StdRng,
    shutdown: bool,
    steps: u64,
    per_pid_seq: HashMap<ProcessId, u64>,
}

impl LockstepState {
    /// Grants the next step if every live participant is parked.
    fn maybe_dispatch(&mut self) -> bool {
        if self.shutdown || self.granted.is_some() || self.waiting.is_empty() {
            return false;
        }
        if self.waiting.len() < self.participants.len() {
            return false;
        }
        let idx = self.rng.random_range(0..self.waiting.len());
        let token = *self.waiting.iter().nth(idx).expect("non-empty");
        self.waiting.remove(&token);
        self.granted = Some(token);
        self.steps += 1;
        true
    }
}

/// A deterministic serial scheduler.
///
/// At most one participant performs a shared-memory step at any time. The
/// next participant is drawn uniformly (seeded) from the parked set once
/// *all* participants are parked, so for a fixed seed and deterministic
/// participant code the whole execution is reproducible.
///
/// A wall-clock watchdog (default 20 s) detects harness deadlocks: if no step
/// is granted for the budget while a thread waits, the gate shuts down and
/// the waiting threads panic with a state dump.
pub struct LockstepGate {
    id: u64,
    state: Mutex<LockstepState>,
    /// Every notify follows a change to `state` made under its lock, and
    /// every waiter tests `state` under it, so a notify that finds no
    /// waiter may skip the wake (see `parking_lot::Condvar`).
    cv: Condvar,
    watchdog: Duration,
}

impl LockstepGate {
    /// Creates a lockstep gate with the given scheduling seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        LockstepGate::with_watchdog(seed, Duration::from_secs(20))
    }

    /// Creates a lockstep gate with a custom watchdog budget.
    #[must_use]
    pub fn with_watchdog(seed: u64, watchdog: Duration) -> Self {
        LockstepGate {
            id: GATE_IDS.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(LockstepState {
                participants: HashMap::new(),
                waiting: std::collections::BTreeSet::new(),
                granted: None,
                rng: StdRng::seed_from_u64(seed),
                shutdown: false,
                steps: 0,
                per_pid_seq: HashMap::new(),
            }),
            cv: Condvar::new(),
            watchdog,
        }
    }
}

impl StepGate for LockstepGate {
    fn id(&self) -> u64 {
        self.id
    }

    fn register(&self, pid: ProcessId) -> u64 {
        let mut s = self.state.lock();
        let seq = s.per_pid_seq.entry(pid).or_insert(0);
        *seq += 1;
        // Stable token: depends only on the pid and how many threads of that
        // pid have registered so far, not on cross-pid timing.
        let token = (pid.index() as u64) << 32 | *seq;
        s.participants.insert(token, pid);
        token
    }

    fn deregister(&self, token: u64) {
        let mut s = self.state.lock();
        s.participants.remove(&token);
        s.waiting.remove(&token);
        if s.granted == Some(token) {
            s.granted = None;
        }
        if s.maybe_dispatch() {
            self.cv.notify_all();
        }
    }

    fn wait_turn(&self, token: u64) {
        let mut s = self.state.lock();
        if s.shutdown {
            return;
        }
        s.waiting.insert(token);
        loop {
            if s.maybe_dispatch() {
                self.cv.notify_all();
            }
            if s.granted == Some(token) {
                return;
            }
            if s.shutdown {
                s.waiting.remove(&token);
                return;
            }
            let before = s.steps;
            let timed_out = self.cv.wait_for(&mut s, self.watchdog).timed_out();
            if timed_out && s.steps == before && !s.shutdown {
                let dump = format!(
                    "lockstep watchdog: no step for {:?}; participants={:?} waiting={:?} granted={:?}",
                    self.watchdog,
                    s.participants,
                    s.waiting,
                    s.granted
                );
                s.shutdown = true;
                self.cv.notify_all();
                drop(s);
                panic!("{dump}");
            }
        }
    }

    fn release_turn(&self, token: u64) {
        let mut s = self.state.lock();
        if s.granted == Some(token) {
            s.granted = None;
        }
        if s.maybe_dispatch() {
            self.cv.notify_all();
        }
    }

    fn request_shutdown(&self) {
        let mut s = self.state.lock();
        s.shutdown = true;
        self.cv.notify_all();
    }

    fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    fn steps(&self) -> u64 {
        self.state.lock().steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn free_gate_counts_steps() {
        let gate: Arc<dyn StepGate> = Arc::new(FreeGate::new());
        let p = Participation::enter(Arc::clone(&gate), ProcessId::new(1));
        for _ in 0..10 {
            step(&gate, || {});
        }
        drop(p);
        assert_eq!(gate.steps(), 10);
    }

    #[test]
    fn non_participant_passes_through() {
        let gate: Arc<dyn StepGate> = Arc::new(LockstepGate::new(7));
        // No participation: must not block even though nobody schedules us.
        let out = step(&gate, || 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn lockstep_serializes_steps() {
        let gate: Arc<dyn StepGate> = Arc::new(LockstepGate::new(42));
        let in_step = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 1..=4 {
            let gate = Arc::clone(&gate);
            let in_step = Arc::clone(&in_step);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                let _p = Participation::enter(Arc::clone(&gate), ProcessId::new(i));
                for _ in 0..200 {
                    step(&gate, || {
                        let now = in_step.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        in_step.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "steps must never overlap");
        assert_eq!(gate.steps(), 800);
    }

    #[test]
    fn lockstep_is_deterministic_for_a_seed() {
        // Record the order in which four threads' steps are granted, twice,
        // and require identical sequences. All threads register before the
        // first step (barrier): determinism is guaranteed for synchronized
        // participant sets.
        fn run(seed: u64) -> Vec<usize> {
            let gate: Arc<dyn StepGate> = Arc::new(LockstepGate::new(seed));
            let order = Arc::new(Mutex::new(Vec::new()));
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let mut handles = Vec::new();
            for i in 1..=4 {
                let gate = Arc::clone(&gate);
                let order = Arc::clone(&order);
                let barrier = Arc::clone(&barrier);
                handles.push(std::thread::spawn(move || {
                    let _p = Participation::enter(Arc::clone(&gate), ProcessId::new(i));
                    barrier.wait();
                    for _ in 0..50 {
                        step(&gate, || order.lock().push(i));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let v = order.lock().clone();
            v
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn shutdown_releases_parked_threads() {
        let gate: Arc<dyn StepGate> = Arc::new(LockstepGate::new(1));
        let g2 = Arc::clone(&gate);
        let h = std::thread::spawn(move || {
            let _p = Participation::enter(Arc::clone(&g2), ProcessId::new(1));
            // Two participants are needed for dispatch, but only one exists
            // in a waiting state forever -> would block without shutdown.
            let g3 = Arc::clone(&g2);
            let _blocker = Participation::enter(g3, ProcessId::new(1));
            // Spawn a second registered-but-never-stepping participant to
            // prevent dispatch.
            let token = g2.register(ProcessId::new(2));
            let waiter = std::thread::spawn({
                let g = Arc::clone(&g2);
                move || {
                    g.wait_turn(token); // granted first (both parked)
                    g.release_turn(token);
                    // Never steps again; still registered => blocks others.
                    std::thread::sleep(Duration::from_millis(100));
                    g.deregister(token);
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            // This would deadlock if shutdown did not release us, because the
            // other participant never parks again.
            g2.request_shutdown();
            step(&g2, || {});
            waiter.join().unwrap();
        });
        h.join().unwrap();
        assert!(gate.is_shutdown());
    }

    #[test]
    fn participation_nests_within_one_gate() {
        let gate: Arc<dyn StepGate> = Arc::new(FreeGate::new());
        let outer = Participation::enter(Arc::clone(&gate), ProcessId::new(3));
        assert_eq!(Participation::current_pid(), Some(ProcessId::new(3)));
        {
            let _inner = Participation::enter(Arc::clone(&gate), ProcessId::new(3));
            assert_eq!(Participation::current_pid(), Some(ProcessId::new(3)));
        }
        // Outer participation survives the inner drop.
        assert_eq!(Participation::current_pid(), Some(ProcessId::new(3)));
        drop(outer);
        assert_eq!(Participation::current_pid(), None);
    }
}
