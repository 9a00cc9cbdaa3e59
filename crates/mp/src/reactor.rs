//! The event-loop backend of the message-passing emulation: one small
//! fixed pool of worker threads that can drive *every* emulated register
//! registered with it.
//!
//! The unit of scheduling is a [`ReactorTask`] — for the SWMR emulation,
//! one task per standalone [`MpRegister`](crate::swmr::MpRegister), or one
//! per [`RegisterGroup`](crate::swmr::RegisterGroup), each draining its
//! registers' node state machines and virtual-time networks. A task is
//! *scheduled* when input arrives that no client drain will consume; a
//! worker then runs it to quiescence, draining everything that is ready
//! without ever blocking.
//!
//! Client operations do not come through here: a client drains its own
//! register on the calling thread (see [`crate::swmr`]), and the sends its
//! nodes make inside that drain wake no one. What is left for the reactor
//! is traffic that Byzantine endpoints inject from outside any drain. A
//! register's task is guarded by one mutex whichever thread runs it, so a
//! register stays single-threaded with respect to itself while thousands
//! of registers need no thread of their own — the property that lets an
//! MP-backed store hold thousands of keys where the old thread-per-node
//! design needed `keys × n` threads.
//!
//! A quiet reactor **parks**: workers sleep on a condition variable and
//! the dispatch counter stands still (see
//! [`Reactor::dispatches`] and the `quiet_reactor_parks_instead_of_spinning`
//! test). There is no polling interval anywhere — wake-ups are edge-
//! triggered by [`Reactor::schedule`].
//!
//! # Scheduling invariants (and what the adversary may touch)
//!
//! The reactor makes exactly three guarantees, and deliberately **no**
//! ordering guarantee beyond them:
//!
//! 1. **Task mutual exclusion** — a task's `run` never overlaps itself
//!    (the per-slot mutex), and a register task shares its own mutex with
//!    the clients that drain it, so a register's node state machines are
//!    single-threaded with respect to each other.
//! 2. **No lost wake-ups** — the per-task `queued` dedup flag is cleared
//!    *before* `run` executes, so input arriving mid-run re-queues the
//!    task rather than racing the drain.
//! 3. **Run-to-quiescence** — each dispatch drains everything ready at
//!    that moment; a task left with pending input is necessarily also
//!    left queued.
//!
//! *Delivery order is not the reactor's concern.* The order messages reach
//! protocol nodes is decided entirely by the virtual-time heap in
//! [`crate::net`] — its per-link FIFO floor and `(deliver_at, seq)`
//! tiebreak (see the net module docs) hold whichever worker happens to run
//! the task, which is why an [`crate::adversary::AdversaryPolicy`] plugs
//! into the *network* and never into this scheduler: reordering dispatches
//! here could not change what `next_event` hands out, and a policy that
//! respected the heap invariants there needs nothing from the reactor to
//! stay deterministic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// A unit of event-driven work hosted on a [`Reactor`].
///
/// `run` must drain all currently-available input and return without
/// blocking; it is called again after every [`Reactor::schedule`] of the
/// task. The reactor guarantees `run` is never executed concurrently with
/// itself for the same task.
pub trait ReactorTask: Send {
    /// Processes everything that is ready; must not block.
    fn run(&mut self);
}

/// Identifies a task registered with a [`Reactor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskId(usize);

struct Slot {
    /// `None` once the task was removed (its owner shut down).
    task: Arc<Mutex<Option<Box<dyn ReactorTask>>>>,
    /// `true` while the task sits in the ready queue (dedup flag).
    queued: Arc<AtomicBool>,
}

struct Shared {
    ready: Mutex<VecDeque<usize>>,
    /// Workers park here. `schedule` pushes under the `ready` lock and
    /// `shutdown` locks it after setting its flag, and workers test both
    /// under that lock, so a notify that finds no waiter may skip the wake
    /// (see `parking_lot::Condvar`).
    cv: Condvar,
    slots: Mutex<Vec<Slot>>,
    shutdown: AtomicBool,
    idle: AtomicUsize,
    dispatches: AtomicU64,
}

impl Shared {
    fn schedule(&self, id: usize) {
        let queued = {
            let slots = self.slots.lock();
            match slots.get(id) {
                Some(slot) => Arc::clone(&slot.queued),
                None => return,
            }
        };
        if !queued.swap(true, Ordering::AcqRel) {
            self.ready.lock().push_back(id);
            self.cv.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut ready = shared.ready.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = ready.pop_front() {
                    break id;
                }
                shared.idle.fetch_add(1, Ordering::SeqCst);
                shared.cv.wait(&mut ready);
                shared.idle.fetch_sub(1, Ordering::SeqCst);
            }
        };
        shared.dispatches.fetch_add(1, Ordering::Relaxed);
        let (task, queued) = {
            let slots = shared.slots.lock();
            let slot = &slots[id];
            (Arc::clone(&slot.task), Arc::clone(&slot.queued))
        };
        // Clear the dedup flag *before* running: input arriving mid-run
        // re-queues the task, so nothing is ever lost between the final
        // drain and the flag reset.
        queued.store(false, Ordering::Release);
        let mut guard = task.lock();
        if let Some(task) = guard.as_mut() {
            task.run();
        }
    }
}

/// A fixed pool of worker threads multiplexing [`ReactorTask`]s.
///
/// Shared behind an `Arc` by everything that must wake tasks (network
/// endpoints, client handles, the owning factory).
pub struct Reactor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Reactor {
    /// Starts a reactor with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a reactor needs at least one worker");
        let shared = Arc::new(Shared {
            ready: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            slots: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            idle: AtomicUsize::new(0),
            dispatches: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mp-reactor-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn reactor worker")
            })
            .collect();
        Reactor { shared, workers: Mutex::new(handles) }
    }

    /// Registers `task` and returns its id. The task is not scheduled until
    /// the first [`Reactor::schedule`].
    pub fn register(&self, task: Box<dyn ReactorTask>) -> TaskId {
        let mut slots = self.shared.slots.lock();
        slots.push(Slot {
            task: Arc::new(Mutex::new(Some(task))),
            queued: Arc::new(AtomicBool::new(false)),
        });
        TaskId(slots.len() - 1)
    }

    /// Marks `id` ready; a worker will run it (idempotent while queued).
    pub fn schedule(&self, id: TaskId) {
        self.shared.schedule(id.0);
    }

    /// A cheap clonable hook that schedules `id` — handed to network wake
    /// callbacks and client handles. Holds only a weak reference, so a
    /// dropped reactor turns the hook into a no-op instead of a leak cycle.
    #[must_use]
    pub fn waker(&self, id: TaskId) -> Arc<dyn Fn() + Send + Sync> {
        let weak: Weak<Shared> = Arc::downgrade(&self.shared);
        Arc::new(move || {
            if let Some(shared) = weak.upgrade() {
                shared.schedule(id.0);
            }
        })
    }

    /// Removes (and drops) task `id`; its next dispatch, if already
    /// queued, finds the slot empty and does nothing.
    pub fn remove(&self, id: TaskId) {
        let task = {
            let slots = self.shared.slots.lock();
            slots.get(id.0).map(|slot| Arc::clone(&slot.task))
        };
        if let Some(task) = task {
            task.lock().take();
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Number of workers currently parked on the ready-queue condvar.
    #[must_use]
    pub fn idle_workers(&self) -> usize {
        self.shared.idle.load(Ordering::SeqCst)
    }

    /// Total task dispatches so far. Constant while the reactor is quiet —
    /// the observable behind the "parks instead of spinning" guarantee.
    #[must_use]
    pub fn dispatches(&self) -> u64 {
        self.shared.dispatches.load(Ordering::Relaxed)
    }

    /// Stops the workers and drops every task. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Notify under the ready lock: a worker checks the flag and parks
        // while holding it, so the notify cannot fall between the two.
        drop(self.shared.ready.lock());
        self.shared.cv.notify_all();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        for slot in self.shared.slots.lock().iter() {
            slot.task.lock().take();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("workers", &self.worker_count())
            .field("tasks", &self.shared.slots.lock().len())
            .field("dispatches", &self.dispatches())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Counter(Arc<AtomicU64>);

    impl ReactorTask for Counter {
        fn run(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn scheduled_tasks_run() {
        let reactor = Reactor::new(2);
        let count = Arc::new(AtomicU64::new(0));
        let id = reactor.register(Box::new(Counter(Arc::clone(&count))));
        reactor.schedule(id);
        wait_until("first run", || count.load(Ordering::SeqCst) >= 1);
        reactor.schedule(id);
        wait_until("second run", || count.load(Ordering::SeqCst) >= 2);
        reactor.shutdown();
    }

    #[test]
    fn quiet_reactor_parks_instead_of_spinning() {
        // The satellite guarantee replacing the old idle poll backoff: with
        // no input, every worker parks on the condvar and the dispatch
        // counter stands still — no polling interval, no wake-ups.
        let reactor = Reactor::new(3);
        let count = Arc::new(AtomicU64::new(0));
        let id = reactor.register(Box::new(Counter(Arc::clone(&count))));
        reactor.schedule(id);
        wait_until("task ran", || count.load(Ordering::SeqCst) >= 1);
        wait_until("all workers parked", || reactor.idle_workers() == 3);
        let before = reactor.dispatches();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(reactor.dispatches(), before, "a quiet reactor must not spin");
        assert_eq!(reactor.idle_workers(), 3, "workers stay parked until scheduled");
        reactor.shutdown();
    }

    #[test]
    fn removed_tasks_never_run_again() {
        let reactor = Reactor::new(1);
        let count = Arc::new(AtomicU64::new(0));
        let id = reactor.register(Box::new(Counter(Arc::clone(&count))));
        reactor.schedule(id);
        wait_until("ran once", || count.load(Ordering::SeqCst) == 1);
        reactor.remove(id);
        let before = reactor.dispatches();
        reactor.schedule(id);
        wait_until("dispatch consumed", || reactor.dispatches() > before);
        assert_eq!(count.load(Ordering::SeqCst), 1, "a removed task must not run");
        reactor.shutdown();
    }

    #[test]
    fn waker_survives_reactor_drop_as_noop() {
        let reactor = Reactor::new(1);
        let id = reactor.register(Box::new(Counter(Arc::new(AtomicU64::new(0)))));
        let wake = reactor.waker(id);
        drop(reactor);
        wake(); // must not panic or deadlock
    }

    #[test]
    fn many_tasks_share_few_workers() {
        let reactor = Reactor::new(2);
        let count = Arc::new(AtomicU64::new(0));
        let ids: Vec<TaskId> =
            (0..64).map(|_| reactor.register(Box::new(Counter(Arc::clone(&count))))).collect();
        for id in &ids {
            reactor.schedule(*id);
        }
        wait_until("all 64 ran", || count.load(Ordering::SeqCst) >= 64);
        assert_eq!(reactor.worker_count(), 2);
        reactor.shutdown();
    }
}
