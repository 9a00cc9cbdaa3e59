//! The system: `n` processes, at most `f` of them Byzantine, a step gate, a
//! global clock, background help engines, and adversary actors.
//!
//! A [`System`] hosts any number of implemented objects (register instances,
//! broadcast objects, …). Object constructors take the system's [`Env`] to
//! create base registers and to attach per-process [`HelpTask`]s.
//!
//! There is one help substrate: **demand-driven help shards**
//! ([`System::new_help_shard`] + [`System::add_sharded_help_task`]). Tasks
//! are partitioned into help shards, each served by one engine thread that
//! ticks an instance's tasks only while an asker awaits a reply, one
//! answering helper per sweep (or on every sweep while a
//! [`HelpDemand::begin`] guard is held), and **parks** on a wake counter
//! once nothing is pending (edge-triggered, like the MP reactor's dedup
//! flags). An instance's tasks live with its demand, and a demand going
//! from 0 to pending puts the instance on its shard's ready list, so an
//! engine sweep visits only the instances with pending demand: it costs
//! O(pending), not O(installed). A keyed store registers each key's help
//! tasks under the key's shard, so background helping cost scales with
//! the *active* keys of the touched shards, not with every instantiated
//! key; a standalone object gets a fresh shard of its own. The paper's
//! continuous-`Help()` requirement (§5.2: each process executes `Help()`
//! "even when it is not currently performing any operation on the
//! implemented register") is preserved per shard: a `Help()` round with no
//! pending asker is a no-op (Alg. 1 line 29, Alg. 2 line 28, Alg. 3 line
//! 33), and every operation whose termination depends on helpers holds a
//! demand guard for its whole duration, so the shard's engine keeps
//! running exactly while helping can matter. A task that must run with no
//! asker at all holds a guard for its object's lifetime.
//!
//! Byzantine processes do **not** run help tasks; instead an adversary
//! behavior can be installed with [`System::spawn_byzantine`], which may
//! write arbitrary values — but only through write ports that the faulty
//! process legitimately owns.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::gate::{self, FreeGate, LockstepGate, Participation, StepGate};
use crate::history::Clock;
use crate::pid::ProcessId;

/// One unit of background helping work.
///
/// `tick` performs a *bounded* amount of work — typically one iteration of
/// the algorithm's `Help()` while-loop — and returns. The shard engine calls
/// it repeatedly while the task's demand is pending.
pub trait HelpTask: Send + 'static {
    /// Performs one iteration of the help procedure. Returns `true` iff it
    /// answered some asker's round (wrote a reply): the engine then moves on
    /// to the next instance (see [`HelpDemand::ask`]).
    fn tick(&mut self) -> bool;
}

/// A closure task answers no asker.
impl<F: FnMut() + Send + 'static> HelpTask for F {
    fn tick(&mut self) -> bool {
        self();
        false
    }
}

/// The state one help shard's engine shares with every demand handle of
/// the shard: the **ready list** of instances whose demand went from 0 to
/// pending, plus a monotone wake epoch and the condvar the engine parks on
/// while the shard is quiet.
struct ShardCore {
    ready: Mutex<Vec<Arc<DemandState>>>,
    epoch: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// The longest the engine's active list has been after a refill (see
    /// [`System::help_active_high_water`]). Written by the engine only.
    active_high_water: AtomicUsize,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            ready: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            active_high_water: AtomicUsize::new(0),
        }
    }

    /// Advances the epoch and wakes the shard's engine. The lock is taken
    /// so a bump can never slip between the engine's epoch re-check and its
    /// condvar wait (no lost wake-ups). For the same reason a bump that
    /// finds the engine not parked costs no wake (see `parking_lot::Condvar`):
    /// the engine's next re-check, under this lock, sees the new epoch.
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }
}

/// One object instance hosted on a help shard: its demand counts, its help
/// tasks, and whether it is on the shard's ready or active list.
struct DemandState {
    /// Guards held, of both kinds: the instance stays listed while this is
    /// above 0.
    pending: AtomicUsize,
    /// [`HelpDemand::begin`] guards held: while above 0, every task ticks on
    /// every sweep.
    steady: AtomicUsize,
    /// Asker rounds whose `C_k` was bumped and whose fresh reply was not yet
    /// harvested (see [`AskGuard`]).
    awaiting: AtomicUsize,
    /// The task the next asker-gated sweep starts at: one past the last
    /// task that answered. Only the engine touches it.
    next: AtomicUsize,
    /// `true` while the instance is on the shard's ready list or the
    /// engine's active list. Whoever flips it from `false` to `true` lists
    /// the instance, so it is listed at most once.
    queued: AtomicBool,
    /// The instance's tasks, each ticked as its process.
    tasks: Mutex<Vec<(ProcessId, Box<dyn HelpTask>)>>,
    /// The shard. Weak: a shard with no engine has nothing to serve, and
    /// the ready list must not keep its own core alive.
    shard: Weak<ShardCore>,
}

impl DemandState {
    /// Counts one guard in; the 0→pending transition lists the instance.
    fn list(self: &Arc<Self>) {
        if self.pending.fetch_add(1, Ordering::SeqCst) == 0 {
            self.enqueue();
        }
    }

    /// Puts the instance on its shard's ready list unless it is listed
    /// already, and wakes the engine.
    fn enqueue(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(core) = self.shard.upgrade() {
            core.ready.lock().push(Arc::clone(self));
            core.bump();
        }
    }

    /// The engine read this instance's count as 0: clears `queued` so the
    /// next `begin` enqueues it again. Returns `true` if the engine must
    /// keep the instance after all, because a `begin` landed after that
    /// read but found `queued` still set (so it did not enqueue). If the
    /// flag was taken back already, that `begin` enqueued it afresh.
    fn unlist(&self) -> bool {
        self.queued.store(false, Ordering::SeqCst);
        self.pending.load(Ordering::SeqCst) > 0 && !self.queued.swap(true, Ordering::SeqCst)
    }
}

/// The demand handle of one object instance hosted on a help shard.
///
/// Operations whose termination depends on background helping hold a guard
/// for their duration, and the whole shard parks once no instance holds
/// one. This is sound because a `Help()` round with no pending asker takes
/// no protocol-visible action (the early returns of Alg. 1 line 29 / Alg. 2
/// line 28 / Alg. 3 line 33): parking is indistinguishable from the engine
/// ticking no-ops. There are two kinds of guard:
///
/// * [`HelpDemand::ask`], held by a §5.1 quorum run: the instance's tasks
///   tick only while an asker awaits a reply, one answering helper per
///   sweep ([`AskGuard`]);
/// * [`HelpDemand::begin`], held by waits that need every helper's steps
///   whether or not anyone asks (the sticky writer's `n − f` witness wait,
///   an object's lifetime): every task ticks on every sweep.
#[derive(Clone)]
pub struct HelpDemand {
    state: Arc<DemandState>,
}

impl HelpDemand {
    /// Marks a helper-dependent operation as in flight until the returned
    /// guard drops: every task of the instance ticks on every sweep. The
    /// 0→pending transition puts the instance on its shard's ready list and
    /// wakes the shard's engine.
    #[must_use]
    pub fn begin(&self) -> HelpDemandGuard {
        self.state.steady.fetch_add(1, Ordering::SeqCst);
        self.state.list();
        HelpDemandGuard { state: Arc::clone(&self.state) }
    }

    /// Marks a quorum run as in flight until the returned guard drops. The
    /// instance is listed as by [`HelpDemand::begin`], so the engine keeps
    /// spinning between the run's rounds and never parks, but its tasks
    /// tick only while some asker awaits a reply ([`AskGuard::await_reply`]).
    /// Such a sweep ticks the tasks from a rotating start and moves on to
    /// the next instance right after the first tick that answered an asker;
    /// the next sweep starts after that task. The asker uses one fresh reply
    /// per round, so the other helpers' answers to it would be thrown away.
    ///
    /// Safety: any schedule of `Help()` steps is valid; a task not ticked is
    /// a slow helper, which samples `C_k` later and answers a later round.
    /// Liveness: while an asker waits, every sweep ticks one run of
    /// consecutive tasks that ends at the first answer (or covers them all),
    /// and the next sweep's run starts where it ended, so every task ticks
    /// within as many sweeps as the instance has tasks; every correct helper
    /// thus answers the current round, which is all the paper's termination
    /// argument needs. [`HelpDemand::begin`] guards are never gated.
    #[must_use]
    pub fn ask(&self) -> AskGuard {
        self.state.list();
        AskGuard { state: Arc::clone(&self.state), waiting: false }
    }

    /// `true` while at least one guard of either kind is held.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.state.pending.load(Ordering::Acquire) > 0
    }

    /// The number of asker rounds awaiting a reply (see
    /// [`AskGuard::await_reply`]).
    #[must_use]
    pub fn awaiting(&self) -> usize {
        self.state.awaiting.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for HelpDemand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HelpDemand(pending = {})", self.state.pending.load(Ordering::Acquire))
    }
}

/// RAII span of one helper-dependent operation (see [`HelpDemand::begin`]).
/// Dropping it only decrements: the engine drops an instance from its
/// active list on the first sweep that reads its count as 0.
pub struct HelpDemandGuard {
    state: Arc<DemandState>,
}

impl Drop for HelpDemandGuard {
    fn drop(&mut self) {
        self.state.steady.fetch_sub(1, Ordering::SeqCst);
        self.state.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII span of one quorum run on one instance (see [`HelpDemand::ask`]).
/// While the run awaits a reply it counts in the instance's `awaiting`;
/// dropping the guard, on any exit path, takes back both counts.
pub struct AskGuard {
    state: Arc<DemandState>,
    waiting: bool,
}

impl AskGuard {
    /// The asker bumped its `C_k` and now awaits a fresh reply: the
    /// instance's tasks tick until [`AskGuard::replied`].
    pub fn await_reply(&mut self) {
        if !std::mem::replace(&mut self.waiting, true) {
            self.state.awaiting.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The asker harvested its fresh reply for the current round.
    pub fn replied(&mut self) {
        if std::mem::replace(&mut self.waiting, false) {
            self.state.awaiting.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for AskGuard {
    fn drop(&mut self) {
        self.replied();
        self.state.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle to one help shard of a [`System`].
///
/// Created with [`System::new_help_shard`]; cheap to clone. Object
/// installers derive per-instance [`HelpDemand`]s from the shard and attach
/// help tasks with [`System::add_sharded_help_task`]. All tasks of a shard
/// share one engine thread, so the engine-thread budget of a keyed store
/// is its shard count — independent of how many keys are instantiated.
#[derive(Clone)]
pub struct HelpShard {
    id: usize,
    core: Arc<ShardCore>,
}

impl HelpShard {
    /// The shard's system-wide id (also usable as a backend co-scheduling
    /// label, cf. `RegisterFactory::open_group`).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Creates a demand handle for one object instance hosted on this
    /// shard.
    #[must_use]
    pub fn new_demand(&self) -> HelpDemand {
        HelpDemand {
            state: Arc::new(DemandState {
                pending: AtomicUsize::new(0),
                steady: AtomicUsize::new(0),
                awaiting: AtomicUsize::new(0),
                next: AtomicUsize::new(0),
                queued: AtomicBool::new(false),
                tasks: Mutex::new(Vec::new()),
                shard: Arc::downgrade(&self.core),
            }),
        }
    }
}

impl std::fmt::Debug for HelpShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HelpShard({})", self.id)
    }
}

/// An adversary behavior for a Byzantine process.
///
/// `tick` is called repeatedly (each call should perform a bounded number of
/// steps); return `false` to stop the adversary thread.
pub trait ByzantineBehavior: Send + 'static {
    /// Performs one chunk of adversarial activity.
    fn tick(&mut self) -> bool;
}

impl<F: FnMut() -> bool + Send + 'static> ByzantineBehavior for F {
    fn tick(&mut self) -> bool {
        self()
    }
}

struct EnvInner {
    n: usize,
    f: usize,
    gate: Arc<dyn StepGate>,
    clock: Clock,
    faulty: HashSet<ProcessId>,
}

/// A cheap handle to the system's shared environment.
///
/// Object constructors and operation handles keep an `Env` to create base
/// registers, enter the step gate, stamp history events, and observe
/// shutdown.
#[derive(Clone)]
pub struct Env {
    inner: Arc<EnvInner>,
}

impl Env {
    /// Number of processes `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// Resilience parameter `f` (maximum number of tolerated Byzantine
    /// processes; thresholds such as `n - f` are computed from it).
    #[must_use]
    pub fn f(&self) -> usize {
        self.inner.f
    }

    /// The quorum size `n - f`.
    #[must_use]
    pub fn n_minus_f(&self) -> usize {
        self.inner.n - self.inner.f
    }

    /// The step gate shared by all registers of this system.
    #[must_use]
    pub fn gate(&self) -> Arc<dyn StepGate> {
        Arc::clone(&self.inner.gate)
    }

    /// The global history clock.
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.inner.clock.clone()
    }

    /// `true` if `pid` was declared Byzantine at build time.
    #[must_use]
    pub fn is_faulty(&self, pid: ProcessId) -> bool {
        self.inner.faulty.contains(&pid)
    }

    /// The declared-faulty set.
    #[must_use]
    pub fn faulty(&self) -> Vec<ProcessId> {
        let mut v: Vec<_> = self.inner.faulty.iter().copied().collect();
        v.sort();
        v
    }

    /// The correct processes (all processes minus the declared-faulty set).
    #[must_use]
    pub fn correct(&self) -> Vec<ProcessId> {
        ProcessId::all(self.inner.n).filter(|p| !self.is_faulty(*p)).collect()
    }

    /// `true` once system shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.inner.gate.is_shutdown()
    }

    /// Returns `Err(Error::Shutdown)` if the system is shutting down.
    ///
    /// Blocking loops inside operations call this once per iteration so that
    /// finite test executions can always be wound down.
    pub fn check_running(&self) -> Result<()> {
        if self.is_shutdown() {
            Err(Error::Shutdown)
        } else {
            Ok(())
        }
    }

    /// Runs `f` with the current thread participating in the step gate as
    /// process `pid`. Nested calls on the same thread reuse the outer
    /// participation.
    pub fn run_as<R>(&self, pid: ProcessId, f: impl FnOnce() -> R) -> R {
        let _participation = Participation::enter(self.gate(), pid);
        f()
    }

    /// Validates `n > 3f` (the paper's fault-tolerance requirement for
    /// Algorithms 1–3). Object constructors that require it call this.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    pub fn require_n_gt_3f(&self) {
        assert!(
            self.inner.n > 3 * self.inner.f,
            "this algorithm requires n > 3f (n = {}, f = {}); Theorem 31 proves \
             it cannot be implemented otherwise",
            self.inner.n,
            self.inner.f
        );
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("n", &self.inner.n)
            .field("f", &self.inner.f)
            .field("faulty", &self.faulty())
            .finish()
    }
}

/// Which scheduler a [`System`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// Full-speed concurrency (benchmarks, examples).
    Free,
    /// Full-speed concurrency with seeded scheduling noise (stress tests).
    Chaotic(u64),
    /// Deterministic seeded lockstep (model-checking style tests).
    Lockstep(u64),
}

/// Builder for [`System`].
///
/// # Examples
///
/// ```
/// use byzreg_runtime::{System, Scheduling, ProcessId};
///
/// let system = System::builder(4)
///     .scheduling(Scheduling::Lockstep(42))
///     .byzantine(ProcessId::new(3))
///     .build();
/// assert_eq!(system.env().n(), 4);
/// assert_eq!(system.env().f(), 1);
/// assert!(system.env().is_faulty(ProcessId::new(3)));
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    n: usize,
    f: Option<usize>,
    scheduling: Scheduling,
    faulty: HashSet<ProcessId>,
}

impl SystemBuilder {
    /// Starts building a system of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        SystemBuilder { n, f: None, scheduling: Scheduling::Free, faulty: HashSet::new() }
    }

    /// Sets the resilience parameter `f`. Defaults to `⌊(n − 1) / 3⌋`.
    ///
    /// Note that the builder deliberately does *not* reject `n <= 3f`; the
    /// impossibility experiments (Theorem 29) run exactly in that regime.
    #[must_use]
    pub fn resilience(mut self, f: usize) -> Self {
        self.f = Some(f);
        self
    }

    /// Selects the scheduler.
    #[must_use]
    pub fn scheduling(mut self, s: Scheduling) -> Self {
        self.scheduling = s;
        self
    }

    /// Declares `pid` Byzantine: the system will not run help tasks for it,
    /// and the declared-faulty set is what history checkers treat as
    /// `correct`'s complement.
    #[must_use]
    pub fn byzantine(mut self, pid: ProcessId) -> Self {
        assert!(pid.index() <= self.n, "{pid} out of range for n = {}", self.n);
        self.faulty.insert(pid);
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn build(self) -> System {
        assert!(self.n >= 2, "a SWMR register needs a writer and at least one reader");
        let f = self.f.unwrap_or_else(|| self.n.saturating_sub(1) / 3);
        let gate: Arc<dyn StepGate> = match self.scheduling {
            Scheduling::Free => Arc::new(FreeGate::new()),
            Scheduling::Chaotic(seed) => Arc::new(FreeGate::chaotic(seed)),
            Scheduling::Lockstep(seed) => Arc::new(LockstepGate::new(seed)),
        };
        let env = Env {
            inner: Arc::new(EnvInner {
                n: self.n,
                f,
                gate,
                clock: Clock::new(),
                faulty: self.faulty,
            }),
        };
        System {
            env,
            shard_engines: Mutex::new(HashMap::new()),
            next_shard: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }
}

struct ShardEngine {
    core: Arc<ShardCore>,
    handle: Option<JoinHandle<()>>,
}

/// A running system of `n` processes.
///
/// Dropping the system requests shutdown and joins all background threads.
pub struct System {
    env: Env,
    shard_engines: Mutex<HashMap<usize, ShardEngine>>,
    next_shard: AtomicUsize,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl System {
    /// Starts building a system of `n` processes.
    #[must_use]
    pub fn builder(n: usize) -> SystemBuilder {
        SystemBuilder::new(n)
    }

    /// The shared environment handle.
    #[must_use]
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Allocates a fresh help shard (see [`HelpShard`]).
    ///
    /// The shard's engine thread is spawned lazily on the first
    /// [`System::add_sharded_help_task`]; a shard whose tasks were all
    /// dropped (Byzantine pids) costs nothing.
    #[must_use]
    pub fn new_help_shard(&self) -> HelpShard {
        HelpShard {
            id: self.next_shard.fetch_add(1, Ordering::Relaxed),
            core: Arc::new(ShardCore::new()),
        }
    }

    /// Attaches a demand-gated background help task of process `pid` to
    /// `shard`.
    ///
    /// The task lives with `demand` (which must come from `shard`): the
    /// shard's engine ticks it only while `demand` is pending, and while
    /// only [`HelpDemand::ask`] guards are held, only while an asker awaits
    /// a reply (see [`HelpDemand`]); with nothing pending anywhere in the
    /// shard, the engine parks. Tasks attached to a declared-Byzantine
    /// process are silently dropped: faulty processes do not execute the
    /// protocol (an adversary may be installed instead with
    /// [`System::spawn_byzantine`]).
    pub fn add_sharded_help_task(
        &self,
        shard: &HelpShard,
        pid: ProcessId,
        demand: &HelpDemand,
        task: Box<dyn HelpTask>,
    ) {
        debug_assert!(
            std::ptr::eq(demand.state.shard.as_ptr(), Arc::as_ptr(&shard.core)),
            "the demand must come from this shard"
        );
        if self.env.is_faulty(pid) {
            return;
        }
        // A demand already pending is on the ready or active list, so the
        // engine picks the task up on its next sweep of the instance.
        demand.state.tasks.lock().push((pid, task));
        self.shard_engines.lock().entry(shard.id).or_insert_with(|| {
            let env = self.env.clone();
            let core = Arc::clone(&shard.core);
            let loop_core = Arc::clone(&core);
            let handle = std::thread::Builder::new()
                .name(format!("help-s{}", shard.id))
                .spawn(move || shard_help_loop(&env, &loop_core))
                .expect("spawn shard help engine");
            ShardEngine { core, handle: Some(handle) }
        });
    }

    /// Number of live help-engine threads, one per shard with a task. A
    /// keyed store's budget is its shard count, independent of how many
    /// keys it instantiated.
    #[must_use]
    pub fn help_engine_threads(&self) -> usize {
        self.shard_engines.lock().len()
    }

    /// The most instances any one help engine has kept on its active list
    /// so far (measured after each sweep's refill and drop of idle
    /// instances). An instance stays listed only while its demand is
    /// pending, so this follows the helper-dependent operations in flight
    /// on one shard, not the instances installed there.
    #[must_use]
    pub fn help_active_high_water(&self) -> usize {
        let engines = self.shard_engines.lock();
        engines
            .values()
            .map(|e| e.core.active_high_water.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Spawns an adversary thread acting as the Byzantine process `pid`.
    /// The thread calls `behavior.tick()` until it returns `false` or the
    /// system shuts down, taking an idle step and yielding its core after
    /// each tick.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not declared Byzantine at build time — correct
    /// processes may not behave adversarially.
    pub fn spawn_byzantine(&self, pid: ProcessId, mut behavior: impl ByzantineBehavior) {
        assert!(
            self.env.is_faulty(pid),
            "{pid} is declared correct; declare it with SystemBuilder::byzantine first"
        );
        let env = self.env.clone();
        let handle = std::thread::Builder::new()
            .name(format!("byz-{pid}"))
            .spawn(move || {
                let _p = Participation::enter(env.gate(), pid);
                while !env.is_shutdown() {
                    if !behavior.tick() {
                        break;
                    }
                    gate::idle_step(&env.gate());
                    // An attack loop never blocks: without a yield it holds
                    // its core for a whole scheduler slice, starving the
                    // correct threads it attacks.
                    std::thread::yield_now();
                }
            })
            .expect("spawn byzantine actor");
        self.threads.lock().push(handle);
    }

    /// Spawns an auxiliary participant thread (used by tests and drivers to
    /// run concurrent operations of a *correct* process).
    pub fn spawn(&self, pid: ProcessId, f: impl FnOnce() + Send + 'static) {
        let env = self.env.clone();
        let handle = std::thread::Builder::new()
            .name(format!("proc-{pid}"))
            .spawn(move || {
                env.run_as(pid, f);
            })
            .expect("spawn process thread");
        self.threads.lock().push(handle);
    }

    /// Requests shutdown and joins every background thread.
    ///
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.env.gate().request_shutdown();
        let mut shard_engines = self.shard_engines.lock();
        for engine in shard_engines.values_mut() {
            // Parked engines wait on the shard condvar, not the gate: bump
            // so they re-check `is_shutdown` immediately.
            engine.core.bump();
            if let Some(h) = engine.handle.take() {
                let _ = h.join();
            }
        }
        drop(shard_engines);
        let mut threads = self.threads.lock();
        for h in threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System").field("env", &self.env).finish()
    }
}

/// The demand-driven engine of one help shard.
///
/// The engine keeps an *active* list of instances with pending demand,
/// refilled from the shard's ready list, so a sweep costs O(pending
/// instances), not O(installed tasks). Each tick enters the step gate as
/// the task's process (so lockstep scheduling and the paper's process
/// identities are preserved even though many processes' tasks share the
/// thread). Per active instance, a sweep ticks:
///
/// * every task, while a [`HelpDemand::begin`] guard is held;
/// * otherwise, while some asker awaits a reply, the tasks from the
///   instance's rotating start up to and including the first tick that
///   answered an asker, and the next sweep starts after that task (see
///   [`HelpDemand::ask`] for why this is safe and live);
/// * otherwise nothing: the instance's askers are between rounds.
///
/// An instance whose count reads 0 leaves the list
/// ([`DemandState::unlist`]): a guard taken while the drop races either
/// re-enqueues the instance itself or is seen there and keeps it. With
/// nothing active and nothing ready the engine parks until the epoch moves
/// (every enqueue bumps it), so it never sleeps through work and never
/// spins while quiet.
fn shard_help_loop(env: &Env, core: &ShardCore) {
    let mut active: Vec<Arc<DemandState>> = Vec::new();
    while !env.is_shutdown() {
        let seen = core.epoch.load(Ordering::Acquire);
        active.append(&mut core.ready.lock());
        active.retain(|state| state.pending.load(Ordering::SeqCst) > 0 || state.unlist());
        if active.len() > core.active_high_water.load(Ordering::Relaxed) {
            core.active_high_water.store(active.len(), Ordering::Relaxed);
        }
        if active.is_empty() {
            // Quiet: no participation is held here, so lockstep systems
            // keep dispatching among the remaining participants while we
            // park.
            let mut guard = core.lock.lock();
            while core.epoch.load(Ordering::Acquire) == seen && !env.is_shutdown() {
                // The timeout is belt-and-braces against a missed shutdown
                // bump; every enqueue bumps the epoch, so real work never
                // waits on it.
                core.cv.wait_for(&mut guard, Duration::from_millis(25));
            }
            continue;
        }
        for state in &active {
            let steady = state.steady.load(Ordering::SeqCst) > 0;
            if !steady && state.awaiting.load(Ordering::SeqCst) == 0 {
                continue;
            }
            // Take the tasks out for the ticks so a concurrent attach is
            // not blocked (ticks perform gated steps that can block).
            let mut tasks = std::mem::take(&mut *state.tasks.lock());
            let start = state.next.load(Ordering::Relaxed);
            for i in 0..tasks.len() {
                if env.is_shutdown() {
                    return;
                }
                let at = (start + i) % tasks.len();
                let (pid, task) = &mut tasks[at];
                let answered = env.run_as(*pid, || {
                    let answered = task.tick();
                    // Park at the gate once per tick: idle shard engines
                    // are deregistered entirely, busy ones yield fairly.
                    gate::idle_step(&env.gate());
                    answered
                });
                if answered && !steady {
                    state.next.store(at + 1, Ordering::Relaxed);
                    break;
                }
            }
            let mut slot = state.tasks.lock();
            tasks.append(&mut slot);
            *slot = tasks;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builder_defaults_f_to_floor_n_minus_1_over_3() {
        assert_eq!(System::builder(4).build().env().f(), 1);
        assert_eq!(System::builder(7).build().env().f(), 2);
        assert_eq!(System::builder(3).build().env().f(), 0);
        assert_eq!(System::builder(10).build().env().f(), 3);
    }

    #[test]
    fn quorums_match_the_paper() {
        let s = System::builder(7).build();
        assert_eq!(s.env().n_minus_f(), 5);
        assert_eq!(s.env().f() + 1, 3);
    }

    /// Attaches `task` as `pid`'s on a fresh shard and holds that shard's
    /// demand for the returned guard's lifetime: the always-on helping of
    /// an object whose task has no asker.
    fn always_on(s: &System, pid: ProcessId, task: Box<dyn HelpTask>) -> HelpDemandGuard {
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        s.add_sharded_help_task(&shard, pid, &demand, task);
        demand.begin()
    }

    #[test]
    fn help_tasks_run_until_shutdown() {
        let s = System::builder(4).build();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let _held = always_on(
            &s,
            ProcessId::new(2),
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 10 {
            assert!(std::time::Instant::now() < deadline, "help task did not run");
            std::thread::yield_now();
        }
        s.shutdown();
        let after = count.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), after, "tasks must stop after shutdown");
    }

    #[test]
    #[should_panic(expected = "declared correct")]
    fn correct_processes_cannot_be_adversaries() {
        let s = System::builder(4).build();
        s.spawn_byzantine(ProcessId::new(2), || true);
    }

    #[test]
    fn byzantine_behavior_can_stop_itself() {
        let s = System::builder(4).byzantine(ProcessId::new(3)).build();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        s.spawn_byzantine(ProcessId::new(3), move || c.fetch_add(1, Ordering::SeqCst) < 4);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 5 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(count.load(Ordering::SeqCst), 5);
        s.shutdown();
    }

    #[test]
    fn lockstep_system_runs_help_and_ops_together() {
        // A helper whose demand is held throughout keeps ticking under the
        // deterministic scheduler alongside a process's operations.
        let s = System::builder(4).scheduling(Scheduling::Lockstep(5)).build();
        let env = s.env().clone();
        let (w, r) = crate::register::swmr(env.gate(), ProcessId::new(1), "R", 0u32);
        // Help task of p2 copies R into a counter.
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let r2 = r.clone();
        let _held = always_on(
            &s,
            ProcessId::new(2),
            Box::new(move || {
                seen2.store(r2.read() as usize, Ordering::SeqCst);
            }),
        );
        env.run_as(ProcessId::new(1), || {
            w.write(9);
            // Spin (as a participant) until the helper observes the write.
            while seen.load(Ordering::SeqCst) != 9 {
                let _ = r.read();
                if env.is_shutdown() {
                    break;
                }
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 9);
        s.shutdown();
    }

    #[test]
    fn quiet_shard_parks_while_busy_shard_progresses() {
        // The demand-driven guarantee: a shard with no pending quorum round
        // does not tick its tasks at all, while a shard with demand makes
        // continuous progress.
        let s = System::builder(4).build();
        let quiet = s.new_help_shard();
        let busy = s.new_help_shard();
        let quiet_demand = quiet.new_demand();
        let busy_demand = busy.new_demand();
        let quiet_ticks = Arc::new(AtomicUsize::new(0));
        let busy_ticks = Arc::new(AtomicUsize::new(0));
        let (qc, bc) = (Arc::clone(&quiet_ticks), Arc::clone(&busy_ticks));
        s.add_sharded_help_task(
            &quiet,
            ProcessId::new(2),
            &quiet_demand,
            Box::new(move || {
                qc.fetch_add(1, Ordering::SeqCst);
            }),
        );
        s.add_sharded_help_task(
            &busy,
            ProcessId::new(3),
            &busy_demand,
            Box::new(move || {
                bc.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let _op = busy_demand.begin();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while busy_ticks.load(Ordering::SeqCst) < 20 {
            assert!(std::time::Instant::now() < deadline, "busy shard made no progress");
            std::thread::yield_now();
        }
        assert_eq!(quiet_ticks.load(Ordering::SeqCst), 0, "a quiet shard must not tick");
        assert_eq!(s.help_engine_threads(), 2);
        s.shutdown();
    }

    #[test]
    fn sharded_tasks_stop_ticking_once_demand_ends() {
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let ticks = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&ticks);
        s.add_sharded_help_task(
            &shard,
            ProcessId::new(2),
            &demand,
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let guard = demand.begin();
        assert!(demand.is_pending());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while ticks.load(Ordering::SeqCst) < 5 {
            assert!(std::time::Instant::now() < deadline, "pending demand must be served");
            std::thread::yield_now();
        }
        drop(guard);
        assert!(!demand.is_pending());
        // Let the engine observe the drop and park; ticks must then stop.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after = ticks.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(ticks.load(Ordering::SeqCst), after, "engine must park once demand ends");
        s.shutdown();
    }

    #[test]
    fn byzantine_processes_get_no_help_tasks() {
        let s = System::builder(4).byzantine(ProcessId::new(2)).build();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        s.add_sharded_help_task(
            &shard,
            ProcessId::new(2),
            &demand,
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let _op = demand.begin();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(s.help_engine_threads(), 0, "a shard of dropped tasks spawns no engine");
        s.shutdown();
    }

    #[test]
    fn one_shard_engine_serves_many_tasks_of_many_processes() {
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let count = Arc::new(AtomicUsize::new(0));
        for i in 1..=4 {
            let c = Arc::clone(&count);
            s.add_sharded_help_task(
                &shard,
                ProcessId::new(i),
                &demand,
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        assert_eq!(s.help_engine_threads(), 1, "one engine thread per shard, not per process");
        let _op = demand.begin();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 8 {
            assert!(std::time::Instant::now() < deadline, "all four tasks must tick");
            std::thread::yield_now();
        }
        s.shutdown();
    }

    #[test]
    fn lockstep_system_supports_sharded_helping() {
        // A demand-gated helper under the deterministic scheduler: the
        // engine registers with the gate only while ticking, so a parked
        // shard never blocks lockstep dispatch.
        let s = System::builder(4).scheduling(Scheduling::Lockstep(9)).build();
        let env = s.env().clone();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let (w, r) = crate::register::swmr(env.gate(), ProcessId::new(1), "R", 0u32);
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let r2 = r.clone();
        s.add_sharded_help_task(
            &shard,
            ProcessId::new(2),
            &demand,
            Box::new(move || {
                seen2.store(r2.read() as usize, Ordering::SeqCst);
            }),
        );
        env.run_as(ProcessId::new(1), || {
            w.write(9);
            let _op = demand.begin();
            while seen.load(Ordering::SeqCst) != 9 {
                let _ = r.read();
                if env.is_shutdown() {
                    break;
                }
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 9);
        s.shutdown();
    }

    /// A task counting its ticks into `count`.
    fn counter(count: &Arc<AtomicUsize>) -> Box<dyn HelpTask> {
        let c = Arc::clone(count);
        Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// Waits until `count` exceeds `above`.
    fn await_ticks(count: &AtomicUsize, above: usize, what: &str) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while count.load(Ordering::SeqCst) <= above {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn demand_begun_before_its_tasks_are_attached_is_served() {
        // Once on a shard whose engine already runs, once on a shard whose
        // engine the attach spawns.
        let s = System::builder(4).build();
        let running = s.new_help_shard();
        let other = running.new_demand();
        s.add_sharded_help_task(&running, ProcessId::new(2), &other, Box::new(|| {}));
        for shard in [running, s.new_help_shard()] {
            let demand = shard.new_demand();
            let _op = demand.begin();
            std::thread::sleep(std::time::Duration::from_millis(5));
            let count = Arc::new(AtomicUsize::new(0));
            s.add_sharded_help_task(&shard, ProcessId::new(3), &demand, counter(&count));
            await_ticks(&count, 0, "a task attached under pending demand must tick");
        }
        s.shutdown();
    }

    #[test]
    fn the_active_high_water_follows_demand_not_installed_instances() {
        // 32 instances on one shard, served one at a time: the engine never
        // keeps more than the one in flight plus one whose demand ended
        // mid-sweep. Then all 32 at once: every one is listed.
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let instances: Vec<_> = (0..32)
            .map(|_| {
                let demand = shard.new_demand();
                let count = Arc::new(AtomicUsize::new(0));
                s.add_sharded_help_task(&shard, ProcessId::new(2), &demand, counter(&count));
                (demand, count)
            })
            .collect();
        for (demand, count) in &instances {
            let _op = demand.begin();
            let seen = count.load(Ordering::SeqCst);
            await_ticks(count, seen, "a begun demand must be served");
        }
        let one_at_a_time = s.help_active_high_water();
        assert!((1..=2).contains(&one_at_a_time), "high water {one_at_a_time}");
        let ops: Vec<_> = instances.iter().map(|(demand, _)| demand.begin()).collect();
        for (_, count) in &instances {
            let seen = count.load(Ordering::SeqCst);
            await_ticks(count, seen, "every begun demand must be served");
        }
        assert_eq!(s.help_active_high_water(), 32, "32 pending instances are all active");
        drop(ops);
        s.shutdown();
    }

    #[test]
    fn demand_re_begun_while_being_dropped_is_served() {
        // End the demand and begin it again at once, many times: whichever
        // side of the engine's drop the new `begin` lands on, the instance
        // must be ticked again.
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let count = Arc::new(AtomicUsize::new(0));
        s.add_sharded_help_task(&shard, ProcessId::new(2), &demand, counter(&count));
        let mut op = demand.begin();
        for _ in 0..1000 {
            let seen = count.load(Ordering::SeqCst);
            await_ticks(&count, seen, "a re-begun demand must be served");
            drop(op);
            op = demand.begin();
        }
        drop(op);
        s.shutdown();
    }

    #[test]
    fn unlisting_keeps_an_instance_re_begun_after_its_zero_read() {
        // The engine's side of the race, step by step, on a shard with no
        // engine: nothing but this test touches the lists.
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let demand = shard.new_demand();
        let ready = || shard.core.ready.lock().len();
        drop(demand.begin());
        assert_eq!(ready(), 1, "0 -> 1 enqueues");
        // The engine reads the count as 0; then a `begin` lands while
        // `queued` is still set, so it does not enqueue.
        let op = demand.begin();
        assert_eq!(ready(), 1);
        assert!(demand.state.unlist(), "the engine must keep a re-begun instance");
        assert!(demand.state.queued.load(Ordering::SeqCst));
        // With the count still 0 at the re-read the instance is dropped,
        // and the next `begin` enqueues it afresh.
        drop(op);
        assert!(!demand.state.unlist());
        let _op = demand.begin();
        assert_eq!(ready(), 2);
        s.shutdown();
    }

    #[test]
    fn idle_instances_are_never_visited() {
        // 1000 installed instances with no demand and 1 busy one on the
        // same shard: the idle tasks tick 0 times.
        let s = System::builder(4).build();
        let shard = s.new_help_shard();
        let idle = Arc::new(AtomicUsize::new(0));
        let idle_demands: Vec<HelpDemand> = (0..1000)
            .map(|_| {
                let demand = shard.new_demand();
                s.add_sharded_help_task(&shard, ProcessId::new(2), &demand, counter(&idle));
                demand
            })
            .collect();
        let busy_demand = shard.new_demand();
        let busy = Arc::new(AtomicUsize::new(0));
        s.add_sharded_help_task(&shard, ProcessId::new(3), &busy_demand, counter(&busy));
        let _op = busy_demand.begin();
        await_ticks(&busy, 1000, "the busy instance must make progress");
        assert_eq!(idle.load(Ordering::SeqCst), 0, "idle instances must not tick");
        assert!(idle_demands.iter().all(|d| !d.is_pending()));
        s.shutdown();
    }

    /// A task that logs `id` into `log` on every tick and reports `answers`
    /// as whether the tick answered an asker.
    struct Logged {
        log: Arc<Mutex<Vec<usize>>>,
        id: usize,
        answers: bool,
    }

    impl HelpTask for Logged {
        fn tick(&mut self) -> bool {
            self.log.lock().push(self.id);
            self.answers
        }
    }

    /// One shard whose first instance, held by `begin`, has a single task
    /// logging 0 once per sweep, and whose second instance has tasks of
    /// `p1`, `p2`, `p3` logging 1, 2, 3 and answering as `answers` says.
    /// Returns the second instance's demand and the log.
    fn swept(
        s: &System,
        answers: [bool; 3],
    ) -> (HelpDemand, HelpDemandGuard, Arc<Mutex<Vec<usize>>>) {
        let shard = s.new_help_shard();
        let log = Arc::new(Mutex::new(Vec::new()));
        let marker = shard.new_demand();
        let task = Logged { log: Arc::clone(&log), id: 0, answers: false };
        s.add_sharded_help_task(&shard, ProcessId::new(4), &marker, Box::new(task));
        let demand = shard.new_demand();
        for (id, answers) in (1..).zip(answers) {
            let task = Logged { log: Arc::clone(&log), id, answers };
            s.add_sharded_help_task(&shard, ProcessId::new(id), &demand, Box::new(task));
        }
        (demand, marker.begin(), log)
    }

    /// Waits until the log records a tick of the instance, then clears it:
    /// the instance is on the engine's active list from then on, so every
    /// sweep whose marker the cleared log records already reads the guards
    /// held now.
    fn settle(log: &Mutex<Vec<usize>>) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !log.lock().iter().any(|&id| id != 0) {
            assert!(std::time::Instant::now() < deadline, "the instance never ticked");
            std::thread::yield_now();
        }
        log.lock().clear();
    }

    /// The instance's ticks of each whole sweep the log records: the runs
    /// between consecutive markers.
    fn sweeps(log: &Mutex<Vec<usize>>, at_least: usize) -> Vec<Vec<usize>> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let log = log.lock().clone();
            let mut runs: Vec<Vec<usize>> = log.split(|&id| id == 0).map(<[_]>::to_vec).collect();
            if runs.len() >= at_least + 2 {
                runs.pop();
                runs.remove(0);
                return runs;
            }
            assert!(std::time::Instant::now() < deadline, "the engine made too few sweeps");
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_asked_instance_ticks_only_while_an_asker_awaits_a_reply() {
        let s = System::builder(4).build();
        let (demand, _marker, log) = swept(&s, [true; 3]);
        let mut ask = demand.ask();
        assert!(demand.is_pending(), "the asked instance is listed");
        assert!(sweeps(&log, 50).iter().all(Vec::is_empty), "nobody awaits: no tick");
        ask.await_reply();
        assert_eq!(demand.awaiting(), 1);
        settle(&log);
        let ticked = sweeps(&log, 50);
        assert!(ticked.iter().all(|run| run.len() == 1), "one answering tick per sweep");
        ask.replied();
        assert_eq!(demand.awaiting(), 0);
        // Each sweep logs its marker before it reads `awaiting`.
        log.lock().clear();
        assert!(sweeps(&log, 50).iter().all(Vec::is_empty), "the reply came: no tick");
        s.shutdown();
    }

    #[test]
    fn begun_demand_ticks_every_task_on_every_sweep() {
        // The sticky writer's witness wait: nobody asks, and every helper
        // must still run its echo and witness stages.
        let s = System::builder(4).build();
        let (demand, _marker, log) = swept(&s, [true; 3]);
        let _wait = demand.begin();
        settle(&log);
        assert_eq!(demand.awaiting(), 0);
        for run in sweeps(&log, 50) {
            assert_eq!(run, vec![1, 2, 3]);
        }
        s.shutdown();
    }

    #[test]
    fn answering_helpers_take_turns_one_per_sweep() {
        let s = System::builder(4).build();
        let (demand, _marker, log) = swept(&s, [true; 3]);
        let mut ask = demand.ask();
        ask.await_reply();
        settle(&log);
        let runs = sweeps(&log, 30);
        assert!(runs.iter().all(|run| run.len() == 1), "one tick per sweep: {runs:?}");
        let ticked = runs.concat();
        let first = ticked[0];
        for (i, id) in ticked.iter().enumerate() {
            assert_eq!(*id, (first - 1 + i) % 3 + 1, "p1, p2, p3 in turn: {ticked:?}");
        }
        drop(ask);
        s.shutdown();
    }

    #[test]
    fn a_tick_that_answers_nothing_does_not_end_the_sweep() {
        // p1 never answers: a sweep starting at p1 goes on to p2.
        let s = System::builder(4).build();
        let (demand, _marker, log) = swept(&s, [false, true, true]);
        let mut ask = demand.ask();
        ask.await_reply();
        settle(&log);
        let runs = sweeps(&log, 30);
        for run in &runs {
            assert!(run == &[1, 2] || run == &[3], "sweep {run:?} of {runs:?}");
        }
        drop(ask);
        s.shutdown();
    }

    #[test]
    fn dropping_an_ask_guard_takes_back_its_counts() {
        let s = System::builder(4).build();
        let demand = s.new_help_shard().new_demand();
        let mut ask = demand.ask();
        ask.await_reply();
        ask.await_reply();
        assert_eq!((demand.awaiting(), demand.is_pending()), (1, true), "one wait per guard");
        let _other = demand.ask();
        drop(ask);
        assert_eq!((demand.awaiting(), demand.is_pending()), (0, true));
        s.shutdown();
    }

    #[test]
    fn check_running_reports_shutdown() {
        let s = System::builder(4).build();
        assert!(s.env().check_running().is_ok());
        s.shutdown();
        assert_eq!(s.env().check_running(), Err(Error::Shutdown));
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn require_n_gt_3f_rejects_small_systems() {
        let s = System::builder(3).resilience(1).build();
        s.env().require_n_gt_3f();
    }
}
