//! Running the shared-memory register algorithms **over message passing**.
//!
//! [`MpFactory`] is a [`RegisterFactory`] whose base registers are
//! [`MpRegister`] emulations: every base-register access performed by
//! Algorithms 1–3 becomes a quorum protocol over the simulated network.
//! This executes the paper's §1 corollary — the three register types exist
//! in signature-free Byzantine message-passing systems with `n > 3f` —
//! rather than merely citing it (experiment E6).
//!
//! Every register spawned through one factory shares the factory's single
//! [`Reactor`] (default `min(8, parallelism)` worker threads), where the
//! old design spawned `n` dedicated threads *per register*. A base-register
//! access is one [`MpClient`] call: it locks its emulated register, drains
//! it on the calling thread and takes its result from its node, with no
//! channel or wake, so it costs its protocol messages and little more. The
//! reactor carries only Byzantine-endpoint traffic; with no endpoint taken,
//! as for every register this factory makes, its workers stay parked.
//!
//! An owner's own accesses skip the read protocol: `load` by a thread
//! participating as the owner, and the read half of the owner's `rmw`, are
//! served from the owner's last written value (the soundness argument is
//! on `MpCell::owner_last`).
//!
//! Process identity is threaded through automatically: a register access by
//! a thread participating as `p_k` is served by `p_k`'s protocol node.
//! Declared-Byzantine processes get no protocol client; adversaries attack
//! at the message level via [`MpRegister::byzantine_endpoint`].

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use byzreg_runtime::{
    custom_swmr, CellBackend, Env, Participation, ProcessId, ReadPort, RegisterFactory, Value,
    WritePort,
};

use crate::adversary::AdversaryPolicy;
use crate::net::NetConfig;
use crate::reactor::Reactor;
use crate::swmr::{MpClient, MpConfig, MpRegister, RegisterGroup};

thread_local! {
    /// The co-scheduling group label opened on this thread via
    /// `RegisterFactory::open_group`, if any. Thread-local because group
    /// scopes are lexical in the caller (the store opens one around each
    /// key install, under that key's shard lock).
    static CURRENT_GROUP: Cell<Option<u64>> = const { Cell::new(None) };
}

struct MpCell<T: Value> {
    owner: ProcessId,
    clients: Vec<Option<MpClient<T>>>,
    /// The owner's last written value (the initial value before any
    /// write). The lock serializes the owner's operations, restoring the
    /// paper's sequential-process semantics for owner RMW (cf. `register`
    /// docs), and it lets the owner read its own register locally.
    ///
    /// Why a local read is sound: only the owner writes, and every owner
    /// write runs under this lock and stores its value here once the write
    /// protocol returns. So while the lock is held no write is in flight,
    /// and the last completed write is exactly this value. A protocol read
    /// issued at that moment returns the value of the last completed write:
    /// `n − f` acks leave `f + 1` correct nodes at its `sn`, and no larger
    /// `sn` exists that `f + 1` nodes could vouch for. So the read would
    /// return exactly this value, and reading it under the lock is that
    /// read, linearized at the moment the lock is held.
    owner_last: Mutex<T>,
}

impl<T: Value> MpCell<T> {
    /// Routes an access to the protocol client of the process the current
    /// thread participates as.
    ///
    /// The fallback rules are deterministic and narrow:
    ///
    /// * a thread with **no** participation (plain test code) uses the
    ///   owner's client, or — when the owner is declared Byzantine and has
    ///   none — the lowest-pid correct client;
    /// * a thread **participating** as a pid with no client is a
    ///   participation bug (a declared-Byzantine process executing
    ///   correct-process code; adversaries must attack at the message
    ///   level instead). Debug builds assert on it rather than silently
    ///   borrowing another process's client and masking the bug; release
    ///   builds degrade to the same lowest-pid fallback.
    fn client_for_current_thread(&self) -> &MpClient<T> {
        let participant = Participation::current_pid();
        let pid = participant.unwrap_or(self.owner);
        if let Some(client) = self.clients[pid.zero_based()].as_ref() {
            return client;
        }
        debug_assert!(
            participant.is_none(),
            "thread participating as {pid} has no protocol client: declared-Byzantine \
             processes must attack at the message level, not run correct-process code"
        );
        self.clients.iter().flatten().next().expect("at least one correct client")
    }

    fn owner_client(&self) -> &MpClient<T> {
        self.clients[self.owner.zero_based()]
            .as_ref()
            .expect("the owner is Byzantine: attack at the message level instead")
    }
}

impl<T: Value> CellBackend<T> for MpCell<T> {
    /// A thread participating as a correct owner reads its own last write
    /// (see [`MpCell::owner_last`]); every other reader runs the read
    /// protocol. A Byzantine owner writes only at the message level, past
    /// this cell, so its register is always read through the protocol.
    fn load(&self) -> T {
        let correct_owner = self.clients[self.owner.zero_based()].is_some();
        if correct_owner && Participation::current_pid() == Some(self.owner) {
            return self.owner_last.lock().clone();
        }
        self.client_for_current_thread().read().1
    }

    fn store(&self, v: T) {
        let mut last = self.owner_last.lock();
        self.owner_client().write(v.clone());
        *last = v;
    }

    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T {
        let mut last = self.owner_last.lock();
        let mut v = last.clone();
        f(&mut v);
        self.owner_client().write(v.clone());
        last.clone_from(&v);
        v
    }
}

/// A [`RegisterFactory`] backed by per-register message-passing emulations,
/// all multiplexed onto one shared [`Reactor`].
///
/// Keeps every spawned [`MpRegister`] alive; dropping the factory removes
/// their tasks and stops the reactor's workers.
pub struct MpFactory {
    net: NetConfig,
    /// The adversarial delivery schedule every spawned register's network
    /// runs under (inert by default; see [`MpFactory::adversarial`]).
    adversary: AdversaryPolicy,
    reactor: Arc<Reactor>,
    registers: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    /// Co-scheduling groups by label (see `RegisterFactory::open_group`):
    /// all registers created under one label share one [`RegisterGroup`]
    /// host task, so their wake-ups coalesce.
    groups: Mutex<HashMap<u64, RegisterGroup>>,
}

impl MpFactory {
    /// Creates a factory with the given simulated-network behavior and the
    /// default worker pool: `min(8, available parallelism)` threads,
    /// regardless of how many registers are spawned.
    #[must_use]
    pub fn new(net: NetConfig) -> Self {
        let parallelism = std::thread::available_parallelism().map_or(4, usize::from);
        MpFactory::with_workers(net, parallelism.min(8))
    }

    /// Creates a factory whose reactor runs exactly `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn with_workers(net: NetConfig, workers: usize) -> Self {
        MpFactory {
            net,
            adversary: AdversaryPolicy::none(),
            reactor: Arc::new(Reactor::new(workers)),
            registers: Mutex::new(Vec::new()),
            groups: Mutex::new(HashMap::new()),
        }
    }

    /// Schedules every register this factory spawns under `policy` — each
    /// register's virtual-time network applies the same seeded adversarial
    /// tactics (targeted delays, bounded reorder, partitions, hold-backs).
    ///
    /// ```
    /// use byzreg_mp::{AdversaryPolicy, MpFactory, NetConfig};
    /// use byzreg_runtime::ProcessId;
    /// use std::time::Duration;
    ///
    /// let factory = MpFactory::new(NetConfig::instant())
    ///     .adversarial(AdversaryPolicy::slow_reader(
    ///         ProcessId::new(2),
    ///         Duration::from_millis(1),
    ///         7,
    ///     ));
    /// ```
    #[must_use]
    pub fn adversarial(mut self, policy: AdversaryPolicy) -> Self {
        self.adversary = policy;
        self
    }

    /// Number of emulated registers spawned so far.
    #[must_use]
    pub fn spawned(&self) -> usize {
        self.registers.lock().len()
    }

    /// Number of co-scheduling groups created so far (one per distinct
    /// `open_group` label that saw a register creation).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.lock().len()
    }

    /// Number of reactor worker threads serving every spawned register.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.reactor.worker_count()
    }
}

impl Default for MpFactory {
    fn default() -> Self {
        MpFactory::new(NetConfig::instant())
    }
}

impl Drop for MpFactory {
    fn drop(&mut self) {
        // Remove the register tasks before stopping the workers, so drop
        // order inside the reactor stays register → reactor.
        self.registers.lock().clear();
        self.reactor.shutdown();
    }
}

impl std::fmt::Debug for MpFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpFactory({} registers, {} workers)", self.spawned(), self.worker_count())
    }
}

impl RegisterFactory for MpFactory {
    fn create<T: Value>(
        &self,
        env: &Env,
        owner: ProcessId,
        name: String,
        init: T,
    ) -> (WritePort<T>, ReadPort<T>) {
        let config = MpConfig {
            n: env.n(),
            f: env.f(),
            writer: owner,
            net: self.net,
            adversary: self.adversary.clone(),
            byzantine: env.faulty(),
            trace: false,
        };
        let owner_last = Mutex::new(init.clone());
        let reg = match CURRENT_GROUP.with(Cell::get) {
            Some(label) => {
                let group = self
                    .groups
                    .lock()
                    .entry(label)
                    .or_insert_with(|| RegisterGroup::new(&self.reactor))
                    .clone();
                MpRegister::spawn_in_group(&group, &config, init)
            }
            None => MpRegister::spawn_on(&self.reactor, &config, init),
        };
        let clients: Vec<Option<MpClient<T>>> = (1..=env.n())
            .map(|i| {
                let pid = ProcessId::new(i);
                (!env.is_faulty(pid)).then(|| reg.client(pid))
            })
            .collect();
        let cell = MpCell { owner, clients, owner_last };
        self.registers.lock().push(Box::new(reg));
        custom_swmr(env.gate(), owner, name, Box::new(cell))
    }

    fn open_group(&self, label: u64) {
        CURRENT_GROUP.with(|g| g.set(Some(label)));
    }

    fn close_group(&self) {
        CURRENT_GROUP.with(|g| g.set(None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::System;

    #[test]
    fn factory_registers_behave_like_local_ones() {
        let sys = System::builder(4).build();
        let factory = MpFactory::default();
        let (w, r) = factory.create(sys.env(), ProcessId::new(1), "R".into(), 0u32);
        assert_eq!(r.read(), 0);
        w.write(9);
        assert_eq!(r.read(), 9);
        assert_eq!(w.read(), 9);
        assert_eq!(factory.spawned(), 1);
    }

    #[test]
    fn factory_update_is_owner_rmw() {
        let sys = System::builder(4).build();
        let factory = MpFactory::default();
        let (w, r) = factory.create(sys.env(), ProcessId::new(2), "S".into(), Vec::<u32>::new());
        w.update(|v| v.push(1));
        w.update(|v| v.push(2));
        assert_eq!(r.read(), vec![1, 2]);
    }

    #[test]
    fn open_group_coalesces_registers_into_shared_host_tasks() {
        let sys = System::builder(4).build();
        let factory = MpFactory::with_workers(NetConfig::instant(), 2);
        factory.open_group(7);
        let a = factory.create(sys.env(), ProcessId::new(1), "A".into(), 0u32);
        let b = factory.create(sys.env(), ProcessId::new(1), "B".into(), 0u32);
        factory.close_group();
        let c = factory.create(sys.env(), ProcessId::new(1), "C".into(), 0u32);
        factory.open_group(8);
        let d = factory.create(sys.env(), ProcessId::new(1), "D".into(), 0u32);
        factory.close_group();
        assert_eq!(factory.spawned(), 4);
        assert_eq!(factory.group_count(), 2, "labels 7 and 8; C was created ungrouped");
        for (i, (w, r)) in [a, b, c, d].into_iter().enumerate() {
            w.write(i as u32 + 1);
            assert_eq!(r.read(), i as u32 + 1, "register {i} works wherever it is hosted");
        }
    }

    #[test]
    fn group_labels_are_thread_local() {
        // A group opened on one thread must not capture registers created
        // concurrently on another (the store installs under per-shard
        // locks, each thread with its own scope).
        let sys = System::builder(4).build();
        let factory = Arc::new(MpFactory::with_workers(NetConfig::instant(), 2));
        factory.open_group(1);
        let f2 = Arc::clone(&factory);
        let env = sys.env().clone();
        let t = std::thread::spawn(move || {
            // No open_group on this thread: ungrouped.
            let (w, r) = f2.create(&env, ProcessId::new(1), "other".into(), 0u32);
            w.write(5);
            assert_eq!(r.read(), 5);
        });
        let (w, r) = factory.create(sys.env(), ProcessId::new(1), "mine".into(), 0u32);
        factory.close_group();
        t.join().unwrap();
        w.write(9);
        assert_eq!(r.read(), 9);
        assert_eq!(factory.group_count(), 1, "only the opening thread's register joined");
    }

    #[test]
    fn factory_worker_pool_is_fixed() {
        let sys = System::builder(4).build();
        let factory = MpFactory::with_workers(NetConfig::instant(), 2);
        for i in 0..24 {
            let (w, r) = factory.create(sys.env(), ProcessId::new(1), format!("R{i}"), 0u32);
            w.write(i);
            assert_eq!(r.read(), i);
        }
        assert_eq!(factory.spawned(), 24);
        assert_eq!(factory.worker_count(), 2, "24 registers, still 2 threads");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "has no protocol client")]
    fn participating_byzantine_thread_asserts_in_debug() {
        let sys = System::builder(4).byzantine(ProcessId::new(2)).build();
        let factory = MpFactory::default();
        let (_w, r) = factory.create(sys.env(), ProcessId::new(1), "R".into(), 0u32);
        // p2 is declared Byzantine, so it has no protocol client; running
        // correct-process code as p2 is exactly the participation bug the
        // debug assertion exists to surface.
        sys.env().run_as(ProcessId::new(2), || {
            let _ = r.read();
        });
    }

    #[test]
    fn unparticipating_reads_fall_back_deterministically() {
        // Owner p1 is Byzantine: a plain (non-participating) test thread
        // must still read, through the lowest-pid correct client.
        let sys = System::builder(4).byzantine(ProcessId::new(1)).build();
        let factory = MpFactory::default();
        let (_w, r) = factory.create(sys.env(), ProcessId::new(1), "R".into(), 5u32);
        assert_eq!(r.read(), 5);
    }

    /// Protocol messages sent so far by the `index`-th register `factory`
    /// spawned.
    fn messages_of(factory: &MpFactory, index: usize) -> u64 {
        let registers = factory.registers.lock();
        registers[index].downcast_ref::<MpRegister<u32>>().expect("a u32 register").messages_sent()
    }

    #[test]
    fn owner_reads_and_updates_run_no_read_protocol() {
        let sys = System::builder(4).build();
        let factory = MpFactory::default();
        let (w, r) = factory.create(sys.env(), ProcessId::new(1), "R".into(), 0u32);
        let owner = ProcessId::new(1);
        let before = messages_of(&factory, 0);
        sys.env().run_as(owner, || w.write(5));
        let per_write = messages_of(&factory, 0) - before;
        assert!(per_write > 0);
        let before = messages_of(&factory, 0);
        let after = sys.env().run_as(owner, || {
            w.update(|v| {
                *v += 1;
                *v
            })
        });
        assert_eq!(after, 6);
        assert_eq!(messages_of(&factory, 0) - before, per_write, "an update is one write");
        let before = messages_of(&factory, 0);
        assert_eq!(sys.env().run_as(owner, || (w.read(), r.read())), (6, 6));
        assert_eq!(messages_of(&factory, 0), before, "the owner reads locally");
        let before = messages_of(&factory, 0);
        assert_eq!(sys.env().run_as(ProcessId::new(2), || r.read()), 6);
        assert!(messages_of(&factory, 0) > before, "a non-owner runs the read protocol");
    }

    #[test]
    fn non_owner_reads_stay_monotone_under_local_owner_updates() {
        let sys = System::builder(4).build();
        let factory = MpFactory::default();
        let (w, r) = factory.create(sys.env(), ProcessId::new(1), "C".into(), 0u32);
        let env = sys.env();
        std::thread::scope(|s| {
            s.spawn(|| {
                env.run_as(ProcessId::new(1), || {
                    for i in 1..=200 {
                        let now = w.update(|v| {
                            *v += 1;
                            *v
                        });
                        assert_eq!(now, i, "the owner sees its own writes");
                    }
                });
            });
            for reader in 2..=4 {
                let r = r.clone();
                s.spawn(move || {
                    env.run_as(ProcessId::new(reader), || {
                        let mut last = 0;
                        while last < 200 {
                            let v = r.read();
                            assert!(v >= last, "p{reader} read {v} after {last}");
                            last = v;
                        }
                    });
                });
            }
        });
    }

    #[test]
    fn concurrent_owner_updates_do_not_lose_writes_over_mp() {
        let sys = System::builder(4).build();
        let factory = MpFactory::default();
        let (w, r) = factory.create(
            sys.env(),
            ProcessId::new(1),
            "SET".into(),
            std::collections::BTreeSet::<u32>::new(),
        );
        let w2 = w.clone();
        let t = std::thread::spawn(move || {
            for i in 0..20u32 {
                w2.update(|s| {
                    s.insert(i * 2);
                });
            }
        });
        for i in 0..20u32 {
            w.update(|s| {
                s.insert(i * 2 + 1);
            });
        }
        t.join().unwrap();
        assert_eq!(r.read().len(), 40);
    }
}
