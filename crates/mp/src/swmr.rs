//! A signature-free emulation of an **atomic SWMR register** in a Byzantine
//! asynchronous message-passing system with `n > 3f`.
//!
//! This is the substrate behind the paper's closing claim of §1: *"since
//! SWMR registers can be implemented in message-passing systems with
//! `n > 3f` [11], verifiable/authenticated/sticky registers can also be
//! implemented in these systems without using signatures."* The protocol is
//! in the style of Mostéfaoui–Petrolia–Raynal–Jard [11], built from the
//! Srikanth–Toueg echo pattern [13]:
//!
//! * **Write(sn, v)** — the writer broadcasts; a node *echoes* the first
//!   value it sees for `sn` (or any value with `f + 1` echoes — Bracha
//!   amplification); it *validates* `(sn, v)` at `n − f` matching echoes,
//!   acks the writer, and broadcasts `VALID(sn, v)`; `f + 1` `VALID`s also
//!   validate. Echo-quorum intersection (`2(n−f) − n ≥ f + 1`) makes the
//!   validated value per `sn` unique, and `VALID` amplification gives
//!   *totality*: if one correct node validates, all correct nodes do.
//!   The write returns after `n − f` acks, so at least `f + 1` correct
//!   nodes hold `ts ≥ sn` from then on.
//! * **Read(rid)** — the reader registers at all nodes and receives `STATE`
//!   reports (re-sent on every local change). It maintains `best` = the
//!   largest `sn` such that `f + 1` nodes report `ts ≥ sn` (one of them is
//!   correct, so `best` is genuine), and returns once `n − f` nodes report
//!   *exactly* `(best, v)` — which leaves `f + 1` correct nodes pinned at
//!   `≥ best`, making reads monotone (no new/old inversion).
//!
//! # Execution model
//!
//! Nodes are **message-driven state machines**, not threads: every node
//! implements [`NodeStateMachine`], whose transitions fire on a delivered
//! protocol message (`on_message`) or on a housekeeping tick (`on_tick` —
//! where an idle node picks up its next queued client command). All `n`
//! nodes of one register live in a single [`ReactorTask`] that drains the
//! register's virtual-time network in seeded delivery order, so a register
//! costs **zero** dedicated threads: any number of registers multiplex onto
//! one [`Reactor`]'s fixed worker pool (see [`crate::reactor`]).
//!
//! Liveness caveat: reads are guaranteed to terminate when the writer
//! eventually pauses — the classic cost of atomic reads without
//! writer-side helping (a read needs `n − f` nodes to report the *same*
//! `(best, v)`, which a writer that never stops can keep ahead of); all
//! tests and benches satisfy this.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use byzreg_runtime::{ProcessId, Value};

use crate::adversary::AdversaryPolicy;
use crate::net::{DeliverySchedule, Endpoint, Net, NetConfig};
use crate::reactor::{Reactor, ReactorTask, TaskId};

/// Protocol messages. Public so Byzantine nodes can craft arbitrary ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg<V> {
    /// Writer announces write `sn` of `v`.
    Write {
        /// Sequence number.
        sn: u64,
        /// Value.
        v: V,
    },
    /// Echo of a write.
    Echo {
        /// Sequence number.
        sn: u64,
        /// Value.
        v: V,
    },
    /// Acknowledgment that the sender validated write `sn`.
    Ack {
        /// Sequence number.
        sn: u64,
    },
    /// The sender validated `(sn, v)` (totality amplification).
    Valid {
        /// Sequence number.
        sn: u64,
        /// Value.
        v: V,
    },
    /// Reader registration.
    Read {
        /// Read id (unique per reader).
        rid: u64,
    },
    /// A node's current validated state, addressed to a pending read.
    State {
        /// The read id this answers.
        rid: u64,
        /// The node's validated timestamp.
        ts: u64,
        /// The node's validated value.
        v: V,
    },
    /// Reader deregistration.
    ReadDone {
        /// Read id.
        rid: u64,
    },
}

/// Commands from a client to its co-located node.
enum Cmd<V> {
    Write(V, Sender<()>),
    Read(Sender<(u64, V)>),
}

/// A poll-driven protocol node: all state transitions fire either on a
/// delivered message or on a tick issued by the hosting reactor task after
/// each delivery drain. Implementations must never block — replacing the
/// old blocking `recv_timeout` node loop (and its idle poll backoff, dead
/// now that quiet nodes simply receive no calls).
pub trait NodeStateMachine<V: Value> {
    /// Handles one delivered protocol message from `from`.
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>);

    /// Housekeeping transition: returns `true` if the node changed state
    /// (for the SWMR node: an idle node started its next queued client
    /// command). The hosting task ticks until quiescence.
    fn on_tick(&mut self) -> bool;
}

struct Node<V: Value> {
    ep: Endpoint<Msg<V>>,
    n: usize,
    f: usize,
    writer: ProcessId,
    // Validated state.
    ts: u64,
    val: V,
    validated: HashSet<u64>,
    echoed: HashMap<u64, V>,
    echo_from: HashMap<(u64, V), HashSet<ProcessId>>,
    valid_from: HashMap<(u64, V), HashSet<ProcessId>>,
    pending_readers: HashSet<(ProcessId, u64)>,
    // Client-side state (this node doubles as its process's client agent).
    next_sn: u64,
    next_rid: u64,
    queued: VecDeque<Cmd<V>>,
    write_op: Option<(u64, HashSet<ProcessId>, Sender<()>)>,
    read_op: Option<ReadOp<V>>,
}

struct ReadOp<V> {
    rid: u64,
    reports: BTreeMap<ProcessId, (u64, V)>,
    reply: Sender<(u64, V)>,
}

impl<V: Value> Node<V> {
    fn validate(&mut self, sn: u64, v: V) {
        if !self.validated.insert(sn) {
            return;
        }
        self.ep.send(self.writer, Msg::Ack { sn });
        self.ep.broadcast(Msg::Valid { sn, v: v.clone() });
        if sn > self.ts {
            self.ts = sn;
            self.val = v;
            // Refresh every pending reader.
            for (r, rid) in self.pending_readers.clone() {
                self.ep.send(r, Msg::State { rid, ts: self.ts, v: self.val.clone() });
            }
        }
    }

    fn start(&mut self, cmd: Cmd<V>) {
        match cmd {
            Cmd::Write(v, reply) => {
                self.next_sn += 1;
                let sn = self.next_sn;
                self.write_op = Some((sn, HashSet::new(), reply));
                self.ep.broadcast(Msg::Write { sn, v });
            }
            Cmd::Read(reply) => {
                self.next_rid += 1;
                let rid = self.next_rid;
                self.read_op = Some(ReadOp { rid, reports: BTreeMap::new(), reply });
                self.ep.broadcast(Msg::Read { rid });
            }
        }
    }
}

impl<V: Value> NodeStateMachine<V> for Node<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>) {
        match msg {
            Msg::Write { sn, v } => {
                if from == self.writer && !self.echoed.contains_key(&sn) {
                    self.echoed.insert(sn, v.clone());
                    self.ep.broadcast(Msg::Echo { sn, v });
                }
            }
            Msg::Echo { sn, v } => {
                let set = self.echo_from.entry((sn, v.clone())).or_default();
                if !set.insert(from) {
                    return;
                }
                let count = set.len();
                // Bracha amplification / validation thresholds, as in the
                // paper: `f + 1` matching echoes amplify, `n − f` validate.
                let amplify = self.f + 1;
                if count >= amplify && !self.echoed.contains_key(&sn) {
                    self.echoed.insert(sn, v.clone());
                    self.ep.broadcast(Msg::Echo { sn, v: v.clone() });
                }
                if count >= self.n - self.f && !self.validated.contains(&sn) {
                    self.validate(sn, v);
                }
            }
            Msg::Valid { sn, v } => {
                let set = self.valid_from.entry((sn, v.clone())).or_default();
                if !set.insert(from) {
                    return;
                }
                // `f + 1` VALIDs contain one correct validator (totality).
                let amplify = self.f + 1;
                if set.len() >= amplify && !self.validated.contains(&sn) {
                    self.validate(sn, v);
                }
            }
            Msg::Ack { sn } => {
                if let Some((want, acks, reply)) = &mut self.write_op {
                    if *want == sn {
                        acks.insert(from);
                        if acks.len() >= self.n - self.f {
                            let _ = reply.send(());
                            self.write_op = None;
                        }
                    }
                }
            }
            Msg::Read { rid } => {
                self.pending_readers.insert((from, rid));
                self.ep.send(from, Msg::State { rid, ts: self.ts, v: self.val.clone() });
            }
            Msg::ReadDone { rid } => {
                self.pending_readers.remove(&(from, rid));
            }
            Msg::State { rid, ts, v } => {
                if let Some(op) = &mut self.read_op {
                    if op.rid == rid {
                        op.reports.insert(from, (ts, v));
                        if let Some(result) = decide_read(&op.reports, self.n, self.f) {
                            let _ = op.reply.send(result);
                            let done = op.rid;
                            self.read_op = None;
                            self.ep.broadcast(Msg::ReadDone { rid: done });
                        }
                    }
                }
            }
        }
    }

    fn on_tick(&mut self) -> bool {
        // A node applies its process's operations sequentially: the next
        // queued client command starts only once no operation is in flight.
        if self.write_op.is_some() || self.read_op.is_some() {
            return false;
        }
        match self.queued.pop_front() {
            Some(cmd) => {
                self.start(cmd);
                true
            }
            None => false,
        }
    }
}

/// The read decision rule (see module docs). Returns `Some((ts, v))` once a
/// safe value is determined.
fn decide_read<V: Value>(
    reports: &BTreeMap<ProcessId, (u64, V)>,
    n: usize,
    f: usize,
) -> Option<(u64, V)> {
    // best = max sn with >= f+1 reporters at ts >= sn (0 is always genuine).
    let mut best = 0u64;
    let genuine = f + 1;
    for (ts, _) in reports.values() {
        if *ts > best {
            let support = reports.values().filter(|(t, _)| t >= ts).count();
            if support >= genuine {
                best = *ts;
            }
        }
    }
    // Decide once n−f nodes report exactly (best, v) for a single v.
    let mut exact: HashMap<&V, usize> = HashMap::new();
    for (ts, v) in reports.values() {
        if *ts == best {
            *exact.entry(v).or_insert(0) += 1;
        }
    }
    exact.into_iter().find(|(_, c)| *c >= n - f).map(|(v, _)| (best, v.clone()))
}

/// The reactor task hosting one register: all correct nodes plus the
/// register's network, drained in virtual-delivery order. One run processes
/// every queued client command and every scheduled message to quiescence.
struct RegisterTask<V: Value> {
    net: Arc<Net<Msg<V>>>,
    /// `None` for declared-Byzantine pids (their queue is read externally
    /// through the Byzantine endpoint, never by this task).
    nodes: Vec<Option<Node<V>>>,
    cmds: Vec<Option<Receiver<Cmd<V>>>>,
    managed: Vec<bool>,
}

impl<V: Value> ReactorTask for RegisterTask<V> {
    fn run(&mut self) {
        self.net.set_draining(true);
        loop {
            let mut progress = false;
            for (i, rx) in self.cmds.iter().enumerate() {
                if let Some(rx) = rx {
                    while let Ok(cmd) = rx.try_recv() {
                        self.nodes[i]
                            .as_mut()
                            .expect("correct node has cmds")
                            .queued
                            .push_back(cmd);
                        progress = true;
                    }
                }
            }
            for node in self.nodes.iter_mut().flatten() {
                progress |= node.on_tick();
            }
            while let Some((to, from, msg)) = self.net.next_event(&self.managed) {
                self.nodes[to.zero_based()].as_mut().expect("managed node").on_message(from, msg);
                progress = true;
            }
            if !progress {
                break;
            }
        }
        self.net.set_draining(false);
    }
}

/// One grouped register's shared slot: the hosting [`RegisterGroup`] drains
/// the task while present; the register's shutdown takes it out.
type GroupSlot = Arc<parking_lot::Mutex<Option<Box<dyn ReactorTask>>>>;

#[derive(Clone)]
struct GroupMember {
    slot: GroupSlot,
    /// Edge-triggered dedup flag: set by the member's wake hook when it
    /// enqueues the member on the group's ready list, cleared by the host
    /// just before draining the member — input arriving mid-drain re-sets
    /// it and re-enqueues, so nothing is lost (mirrors the reactor's
    /// per-task `queued` flag, one level down).
    pending: Arc<AtomicBool>,
}

struct GroupShared {
    members: parking_lot::Mutex<Vec<GroupMember>>,
    /// Indices of members with pending input, in wake order. The host
    /// drains exactly these — a dispatch costs the *pending* members, not
    /// a sweep of the whole (possibly thousands-large) group.
    ready: parking_lot::Mutex<VecDeque<usize>>,
}

/// The host task of a [`RegisterGroup`]: one run drains every member on
/// the ready list. Members' networks are disjoint, so draining each to
/// quiescence once is enough — no cross-member cascade exists.
struct GroupHostTask {
    shared: Arc<GroupShared>,
}

impl ReactorTask for GroupHostTask {
    fn run(&mut self) {
        loop {
            let Some(i) = self.shared.ready.lock().pop_front() else { return };
            let member = self.shared.members.lock()[i].clone();
            // Clear the flag *before* draining: input arriving mid-drain
            // re-enqueues the member instead of being lost.
            member.pending.store(false, Ordering::Release);
            let mut slot = member.slot.lock();
            if let Some(task) = slot.as_mut() {
                task.run();
            }
        }
    }
}

/// A co-scheduling group of emulated registers: every member is hosted on
/// **one** reactor task, so one dispatch drains all members with pending
/// input. A keyed store puts all base registers of one help shard's keys in
/// one group — a fused cross-key verify batch then wakes one task per
/// touched shard instead of one per base register, amortizing scheduler
/// wake-ups across the batch.
///
/// Members enqueue themselves on a deduped ready list, so a group of
/// thousands of quiet registers adds nothing to a dispatch's cost.
#[derive(Clone)]
pub struct RegisterGroup {
    reactor: Arc<Reactor>,
    task: TaskId,
    shared: Arc<GroupShared>,
}

impl RegisterGroup {
    /// Creates an empty group hosted on `reactor`.
    #[must_use]
    pub fn new(reactor: &Arc<Reactor>) -> Self {
        let shared = Arc::new(GroupShared {
            members: parking_lot::Mutex::new(Vec::new()),
            ready: parking_lot::Mutex::new(VecDeque::new()),
        });
        let task = reactor.register(Box::new(GroupHostTask { shared: Arc::clone(&shared) }));
        RegisterGroup { reactor: Arc::clone(reactor), task, shared }
    }

    /// Number of registers spawned into this group (including shut-down
    /// ones, whose slots stay until the group drops).
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.shared.members.lock().len()
    }
}

impl std::fmt::Debug for RegisterGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegisterGroup({} members)", self.member_count())
    }
}

/// The pieces of one emulated register before it is handed to a scheduler
/// (standalone task or group member).
struct BuiltRegister<V: Value> {
    task: RegisterTask<V>,
    cmd_tx: Vec<Option<Sender<Cmd<V>>>>,
    byz_eps: Vec<Option<Endpoint<Msg<V>>>>,
    net: Arc<Net<Msg<V>>>,
}

/// Configuration of one emulated register.
#[derive(Clone, Debug)]
pub struct MpConfig {
    /// Number of nodes.
    pub n: usize,
    /// Resilience (`n > 3f` required for correctness).
    pub f: usize,
    /// The writing process (defaults to `p1`).
    pub writer: ProcessId,
    /// Network behavior.
    pub net: NetConfig,
    /// Adversarial delivery schedule layered over the network's seeded
    /// jitter (inert by default). Same seed + same policy + same command
    /// sequence issued on a settled network ⇒ byte-identical
    /// [`MpRegister::delivery_schedule`] (see [`MpRegister::settle`]).
    pub adversary: AdversaryPolicy,
    /// Declared-Byzantine nodes: they run no protocol; grab their endpoint
    /// with [`MpRegister::byzantine_endpoint`] to attack.
    pub byzantine: Vec<ProcessId>,
    /// Record the delivery schedule (see
    /// [`MpRegister::delivery_schedule`]); off by default — the trace grows
    /// with every message.
    pub trace: bool,
}

impl MpConfig {
    /// `n` nodes, `f = ⌊(n−1)/3⌋`, writer `p1`, instant network, no faults.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MpConfig {
            n,
            f: n.saturating_sub(1) / 3,
            writer: ProcessId::new(1),
            net: NetConfig::instant(),
            adversary: AdversaryPolicy::none(),
            byzantine: Vec::new(),
            trace: false,
        }
    }
}

/// One emulated SWMR register over its own `n`-node virtual network,
/// hosted as a single task on a [`Reactor`].
///
/// The writer is `p1`. Every process has a client handle to its co-located
/// node; handles are thread-safe and serialize their process's operations.
pub struct MpRegister<V: Value> {
    writer: ProcessId,
    cmd_tx: Vec<Option<Sender<Cmd<V>>>>,
    byz_eps: parking_lot::Mutex<Vec<Option<Endpoint<Msg<V>>>>>,
    net: Arc<Net<Msg<V>>>,
    reactor: Arc<Reactor>,
    /// `true` when `spawn` created a private reactor that `shutdown` owns.
    owns_reactor: bool,
    task: TaskId,
    /// `Some` for grouped registers: `task` is the group's host task, and
    /// shutdown empties this slot instead of removing the shared task.
    group_slot: Option<GroupSlot>,
    wake: Arc<dyn Fn() + Send + Sync>,
    n: usize,
}

impl<V: Value> MpRegister<V> {
    /// Spawns the register on a private single-worker reactor. Use
    /// [`MpRegister::spawn_on`] to multiplex many registers onto one
    /// shared reactor (as [`crate::MpFactory`] does).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` — unlike the shared-memory registers there is no
    /// meaningful "run it anyway" mode here, the emulation would be unsound.
    #[must_use]
    pub fn spawn(config: &MpConfig, v0: V) -> Self {
        let mut reg = Self::spawn_on(&Arc::new(Reactor::new(1)), config, v0);
        reg.owns_reactor = true;
        reg
    }

    /// Spawns the register as one task on `reactor`.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (see [`MpRegister::spawn`]).
    #[must_use]
    pub fn spawn_on(reactor: &Arc<Reactor>, config: &MpConfig, v0: V) -> Self {
        let BuiltRegister { task, cmd_tx, byz_eps, net } = Self::build(config, v0);
        let id = reactor.register(Box::new(task));
        let wake = reactor.waker(id);
        net.set_wake(Arc::clone(&wake));
        MpRegister {
            writer: config.writer,
            cmd_tx,
            byz_eps: parking_lot::Mutex::new(byz_eps),
            net,
            reactor: Arc::clone(reactor),
            owns_reactor: false,
            task: id,
            group_slot: None,
            wake,
            n: config.n,
        }
    }

    /// Spawns the register as one **member** of `group`: its events are
    /// drained by the group's shared host task instead of a dedicated one,
    /// so wake-ups of same-group registers coalesce into single dispatches
    /// (see [`RegisterGroup`]).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (see [`MpRegister::spawn`]).
    #[must_use]
    pub fn spawn_in_group(group: &RegisterGroup, config: &MpConfig, v0: V) -> Self {
        let BuiltRegister { task, cmd_tx, byz_eps, net } = Self::build(config, v0);
        let slot: GroupSlot =
            Arc::new(parking_lot::Mutex::new(Some(Box::new(task) as Box<dyn ReactorTask>)));
        let pending = Arc::new(AtomicBool::new(false));
        let index = {
            let mut members = group.shared.members.lock();
            members.push(GroupMember { slot: Arc::clone(&slot), pending: Arc::clone(&pending) });
            members.len() - 1
        };
        let shared = Arc::clone(&group.shared);
        let host_wake = group.reactor.waker(group.task);
        let wake: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if !pending.swap(true, Ordering::AcqRel) {
                shared.ready.lock().push_back(index);
            }
            host_wake();
        });
        net.set_wake(Arc::clone(&wake));
        MpRegister {
            writer: config.writer,
            cmd_tx,
            byz_eps: parking_lot::Mutex::new(byz_eps),
            net,
            reactor: Arc::clone(&group.reactor),
            owns_reactor: false,
            task: group.task,
            group_slot: Some(slot),
            wake,
            n: config.n,
        }
    }

    /// Builds the register's nodes, network, and reactor task (shared by
    /// the standalone and grouped spawn paths).
    fn build(config: &MpConfig, v0: V) -> BuiltRegister<V> {
        assert!(config.n > 3 * config.f, "the MP emulation requires n > 3f");
        let net = Net::<Msg<V>>::new(config.n, config.net, config.adversary.clone(), config.trace);
        let mut cmd_tx = Vec::with_capacity(config.n);
        let mut byz_eps: Vec<Option<Endpoint<Msg<V>>>> = (0..config.n).map(|_| None).collect();
        let mut nodes = Vec::with_capacity(config.n);
        let mut cmds = Vec::with_capacity(config.n);
        let mut managed = Vec::with_capacity(config.n);
        for i in 1..=config.n {
            let pid = ProcessId::new(i);
            let ep = net.endpoint(pid);
            if config.byzantine.contains(&pid) {
                byz_eps[pid.zero_based()] = Some(ep);
                cmd_tx.push(None);
                nodes.push(None);
                cmds.push(None);
                managed.push(false);
                continue;
            }
            let (tx, rx) = unbounded();
            cmd_tx.push(Some(tx));
            cmds.push(Some(rx));
            managed.push(true);
            nodes.push(Some(Node {
                ep,
                n: config.n,
                f: config.f,
                writer: config.writer,
                ts: 0,
                val: v0.clone(),
                validated: HashSet::new(),
                echoed: HashMap::new(),
                echo_from: HashMap::new(),
                valid_from: HashMap::new(),
                pending_readers: HashSet::new(),
                next_sn: 0,
                next_rid: 0,
                queued: VecDeque::new(),
                write_op: None,
                read_op: None,
            }));
        }
        let task = RegisterTask { net: Arc::clone(&net), nodes, cmds, managed };
        BuiltRegister { task, cmd_tx, byz_eps, net }
    }

    /// A client handle for process `pid` (any correct process; `p1` may
    /// write, everyone may read — single-writer is enforced by
    /// [`MpClient::write`] panicking for non-writers).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is declared Byzantine.
    #[must_use]
    pub fn client(&self, pid: ProcessId) -> MpClient<V> {
        let tx = self.cmd_tx[pid.zero_based()]
            .clone()
            .unwrap_or_else(|| panic!("{pid} is Byzantine; use byzantine_endpoint"));
        MpClient { pid, writer: self.writer, tx, wake: Arc::clone(&self.wake) }
    }

    /// The raw network endpoint of a declared-Byzantine node.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct or the endpoint was taken.
    #[must_use]
    pub fn byzantine_endpoint(&self, pid: ProcessId) -> Endpoint<Msg<V>> {
        self.byz_eps.lock()[pid.zero_based()].take().expect("endpoint available")
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The delivery order recorded so far as `(from, to)` pairs; `None`
    /// unless the register was spawned with [`MpConfig::trace`] on. Same
    /// seed + same command sequence issued on a settled network ⇒ same
    /// schedule: [`settle`](MpRegister::settle) before each command and
    /// before taking this snapshot.
    #[must_use]
    pub fn delivery_schedule(&self) -> Option<DeliverySchedule> {
        self.net.trace()
    }

    /// Blocks until the register is quiet: no message is scheduled for a
    /// correct node, no hold-back pen holds one, and its task is idle.
    ///
    /// A client command returns as soon as its own decision rule fires,
    /// while the protocol's remaining messages are still being delivered;
    /// a command issued then takes its virtual send instants and sequence
    /// numbers from wherever the task has got. Settling first makes them
    /// a function of the seed and the command sequence alone. Call it with
    /// no command in flight and before [`shutdown`](MpRegister::shutdown);
    /// it waits on a condvar and never sleeps.
    pub fn settle(&self) {
        let managed: Vec<bool> = self.cmd_tx.iter().map(Option::is_some).collect();
        self.net.settle(&managed);
    }

    /// Removes the register's task from its scheduler — its own reactor
    /// task, or just its slot within the hosting [`RegisterGroup`]
    /// (clients panic on further use, as when the node threads of the old
    /// design were stopped). Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        match &self.group_slot {
            Some(slot) => {
                slot.lock().take();
            }
            None => self.reactor.remove(self.task),
        }
        if self.owns_reactor {
            self.reactor.shutdown();
        }
    }
}

impl<V: Value> Drop for MpRegister<V> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<V: Value> std::fmt::Debug for MpRegister<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpRegister(n = {})", self.n)
    }
}

/// A process's client handle to an [`MpRegister`].
#[derive(Clone)]
pub struct MpClient<V> {
    pid: ProcessId,
    writer: ProcessId,
    tx: Sender<Cmd<V>>,
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl<V: Value> MpClient<V> {
    /// The owning process of this handle.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Writes `v` (blocks until `n − f` nodes validated the write).
    ///
    /// # Panics
    ///
    /// Panics if this handle does not belong to the writer `p1`.
    pub fn write(&self, v: V) {
        assert!(self.pid == self.writer, "{} does not own the write port", self.pid);
        let (reply_tx, reply_rx) = bounded(1);
        self.tx.send(Cmd::Write(v, reply_tx)).expect("node alive");
        (self.wake)();
        let _ = reply_rx.recv();
    }

    /// Reads the register (blocks until the read decision rule fires).
    /// Returns `(timestamp, value)`.
    #[must_use]
    pub fn read(&self) -> (u64, V) {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx.send(Cmd::Read(reply_tx)).expect("node alive");
        (self.wake)();
        reply_rx.recv().expect("node alive")
    }
}

impl<V> std::fmt::Debug for MpClient<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpClient({})", self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn decide_read_initial_state() {
        let mut reports = BTreeMap::new();
        for i in 2..=4 {
            reports.insert(ProcessId::new(i), (0u64, 0u8));
        }
        assert_eq!(decide_read(&reports, 4, 1), Some((0, 0)));
    }

    #[test]
    fn decide_read_waits_for_exact_quorum() {
        let mut reports = BTreeMap::new();
        reports.insert(ProcessId::new(1), (5u64, 7u8));
        reports.insert(ProcessId::new(2), (5u64, 7u8));
        // best = 5 (2 >= f+1 supporters), but only 2 < n−f = 3 exact.
        assert_eq!(decide_read(&reports, 4, 1), None);
        reports.insert(ProcessId::new(3), (5u64, 7u8));
        assert_eq!(decide_read(&reports, 4, 1), Some((5, 7)));
    }

    #[test]
    fn decide_read_ignores_lone_fabricated_timestamps() {
        let mut reports = BTreeMap::new();
        reports.insert(ProcessId::new(1), (999u64, 66u8)); // byzantine
        reports.insert(ProcessId::new(2), (0u64, 0u8));
        reports.insert(ProcessId::new(3), (0u64, 0u8));
        reports.insert(ProcessId::new(4), (0u64, 0u8));
        // 999 has only 1 supporter < f+1 = 2 -> best stays 0.
        assert_eq!(decide_read(&reports, 4, 1), Some((0, 0)));
    }

    #[test]
    fn write_then_read() {
        let reg = MpRegister::spawn(&MpConfig::new(4), 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(3));
        assert_eq!(r.read(), (0, 0));
        w.write(7);
        assert_eq!(r.read(), (1, 7));
        w.write(9);
        assert_eq!(r.read(), (2, 9));
        reg.shutdown();
    }

    #[test]
    fn reads_are_monotone_across_readers() {
        let reg = MpRegister::spawn(&MpConfig::new(4), 0u32);
        let w = reg.client(ProcessId::new(1));
        let r3 = reg.client(ProcessId::new(3));
        let r4 = reg.client(ProcessId::new(4));
        w.write(5);
        let (ts1, v1) = r3.read();
        let (ts2, v2) = r4.read();
        assert_eq!((ts1, v1), (1, 5));
        assert!(ts2 >= ts1, "no new/old inversion");
        assert_eq!(v2, 5);
        reg.shutdown();
    }

    #[test]
    fn tolerates_a_silent_byzantine_node() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        w.write(3);
        assert_eq!(r.read(), (1, 3));
        reg.shutdown();
    }

    #[test]
    fn tolerates_a_lying_byzantine_node() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let byz = reg.byzantine_endpoint(ProcessId::new(4));
        // Fabricate a huge write nobody performed.
        byz.broadcast(Msg::Echo { sn: 10_000, v: 66u32 });
        byz.broadcast(Msg::Valid { sn: 10_000, v: 66u32 });
        byz.broadcast(Msg::State { rid: 1, ts: 10_000, v: 66u32 });
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        w.write(3);
        let (ts, v) = r.read();
        assert_eq!(v, 3, "fabricated value must not surface");
        assert_eq!(ts, 1);
        reg.shutdown();
    }

    #[test]
    fn works_with_jitter() {
        let mut config = MpConfig::new(4);
        config.net = NetConfig::jittery(Duration::from_micros(500), 3);
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        for i in 1..=5u32 {
            w.write(i);
            let (ts, v) = r.read();
            assert_eq!(ts, u64::from(i));
            assert_eq!(v, i);
        }
        reg.shutdown();
    }

    #[test]
    fn many_registers_share_one_reactor() {
        let reactor = Arc::new(Reactor::new(2));
        let regs: Vec<MpRegister<u32>> =
            (0..32).map(|_| MpRegister::spawn_on(&reactor, &MpConfig::new(4), 0)).collect();
        for (i, reg) in regs.iter().enumerate() {
            reg.client(ProcessId::new(1)).write(i as u32);
        }
        for (i, reg) in regs.iter().enumerate() {
            assert_eq!(reg.client(ProcessId::new(2)).read(), (1, i as u32));
        }
        assert_eq!(reactor.worker_count(), 2, "32 registers, 2 threads");
        for reg in &regs {
            reg.shutdown();
        }
        reactor.shutdown();
    }

    #[test]
    fn grouped_registers_share_one_host_task() {
        // 32 registers in one group: every event drain goes through the
        // group's single reactor task, and all registers stay correct.
        let reactor = Arc::new(Reactor::new(2));
        let group = RegisterGroup::new(&reactor);
        let regs: Vec<MpRegister<u32>> =
            (0..32).map(|_| MpRegister::spawn_in_group(&group, &MpConfig::new(4), 0)).collect();
        assert_eq!(group.member_count(), 32);
        for (i, reg) in regs.iter().enumerate() {
            reg.client(ProcessId::new(1)).write(i as u32);
        }
        for (i, reg) in regs.iter().enumerate() {
            assert_eq!(reg.client(ProcessId::new(2)).read(), (1, i as u32));
        }
        for reg in &regs {
            reg.shutdown();
        }
        reactor.shutdown();
    }

    #[test]
    fn group_dispatches_amortize_across_members() {
        // Burst-wake many members of one group: the dedup flags collapse
        // the wake storm into far fewer host-task dispatches than the
        // one-task-per-register design would need (one per member write).
        let reactor = Arc::new(Reactor::new(1));
        let group = RegisterGroup::new(&reactor);
        let regs: Vec<MpRegister<u32>> =
            (0..16).map(|_| MpRegister::spawn_in_group(&group, &MpConfig::new(4), 0)).collect();
        // Let setup traffic settle, then measure a burst.
        while reactor.idle_workers() == 0 {
            std::thread::yield_now();
        }
        let before = reactor.dispatches();
        let writers: Vec<_> = regs.iter().map(|r| r.client(ProcessId::new(1))).collect();
        std::thread::scope(|s| {
            for (i, w) in writers.iter().enumerate() {
                s.spawn(move || w.write(i as u32 + 1));
            }
        });
        let spent = reactor.dispatches() - before;
        assert!(
            spent < 16 * 4,
            "16 concurrent grouped writes took {spent} dispatches; wake coalescing \
             should keep this well under a per-register task design"
        );
        for (i, reg) in regs.iter().enumerate() {
            assert_eq!(reg.client(ProcessId::new(3)).read(), (1, i as u32 + 1));
        }
        for reg in &regs {
            reg.shutdown();
        }
        reactor.shutdown();
    }

    #[test]
    fn shutting_down_one_group_member_leaves_the_rest_live() {
        let reactor = Arc::new(Reactor::new(1));
        let group = RegisterGroup::new(&reactor);
        let a = MpRegister::spawn_in_group(&group, &MpConfig::new(4), 0u32);
        let b = MpRegister::spawn_in_group(&group, &MpConfig::new(4), 0u32);
        a.client(ProcessId::new(1)).write(7);
        a.shutdown();
        b.client(ProcessId::new(1)).write(9);
        assert_eq!(b.client(ProcessId::new(2)).read(), (1, 9), "b survives a's shutdown");
        b.shutdown();
        reactor.shutdown();
    }

    /// One seeded run of a fixed command sequence: returns the read results
    /// and the full delivery schedule.
    fn seeded_run(seed: u64) -> (Vec<(u64, u32)>, DeliverySchedule) {
        let mut config = MpConfig::new(4);
        config.net = NetConfig::jittery(Duration::from_millis(2), seed);
        config.trace = true;
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        let mut results = Vec::new();
        for i in 1..=6u32 {
            reg.settle();
            w.write(i * 10);
            reg.settle();
            results.push(r.read());
        }
        reg.settle();
        let schedule = reg.delivery_schedule().expect("tracing on");
        reg.shutdown();
        (results, schedule)
    }

    #[test]
    fn same_seed_same_schedule_and_same_decisions() {
        // The reactor determinism guarantee: the virtual-time network makes
        // the complete delivery order — and therefore every register
        // decision — a pure function of the seed and the command sequence.
        let (results_a, schedule_a) = seeded_run(42);
        let (results_b, schedule_b) = seeded_run(42);
        assert_eq!(schedule_a, schedule_b, "same seed must replay the delivery order");
        assert_eq!(results_a, results_b);
        assert_eq!(results_a, (1..=6).map(|i| (u64::from(i), i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_schedule_differently() {
        let (results_a, schedule_a) = seeded_run(42);
        let (results_c, schedule_c) = seeded_run(43);
        assert_ne!(schedule_a, schedule_c, "different seeds explore different schedules");
        assert_eq!(results_a, results_c, "but sequential decisions agree");
    }

    /// One traced run of a fixed command sequence under `policy`.
    fn adversarial_run(seed: u64, policy: AdversaryPolicy) -> (Vec<(u64, u32)>, DeliverySchedule) {
        let mut config = MpConfig::new(4);
        config.net = NetConfig::jittery(Duration::from_millis(2), seed);
        config.adversary = policy;
        config.trace = true;
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        let mut results = Vec::new();
        for i in 1..=6u32 {
            reg.settle();
            w.write(i * 10);
            reg.settle();
            results.push(r.read());
        }
        reg.settle();
        let schedule = reg.delivery_schedule().expect("tracing on");
        reg.shutdown();
        (results, schedule)
    }

    #[test]
    fn every_canned_adversary_keeps_the_register_correct() {
        // Sequential writes/reads must decide identically under every
        // canned policy — the adversary shapes the schedule, never the
        // register's sequential semantics.
        let expected: Vec<(u64, u32)> = (1..=6).map(|i| (u64::from(i), i * 10)).collect();
        for (name, policy) in AdversaryPolicy::canned(4, 1) {
            let (results, schedule) = adversarial_run(42, policy);
            assert_eq!(results, expected, "{name}: wrong read decisions");
            assert!(!schedule.is_empty(), "{name}: tracing must record the schedule");
        }
    }

    #[test]
    fn same_seed_same_policy_same_schedule() {
        // The adversarial determinism contract: seed + policy + command
        // sequence fully determine the delivery schedule.
        for (name, policy) in AdversaryPolicy::canned(4, 1) {
            let (results_a, schedule_a) = adversarial_run(42, policy.clone());
            let (results_b, schedule_b) = adversarial_run(42, policy);
            assert_eq!(schedule_a, schedule_b, "{name}: schedule must replay");
            assert_eq!(results_a, results_b, "{name}: decisions must replay");
        }
    }

    #[test]
    fn adversarial_schedules_differ_from_the_plain_one() {
        let (_, plain) = seeded_run(42);
        let mut shaped = 0;
        for (_, policy) in AdversaryPolicy::canned(4, 1) {
            let (_, schedule) = adversarial_run(42, policy);
            if schedule != plain {
                shaped += 1;
            }
        }
        assert!(shaped >= 4, "canned adversaries must actually reshape delivery ({shaped}/5)");
    }

    #[test]
    fn hold_back_register_with_byzantine_node_stays_correct() {
        // The pen on p1→p2 composed with a declared-Byzantine p4: quorums
        // must still form among {p1, p2, p3} even though p2 observes every
        // write late.
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        config.adversary = AdversaryPolicy::hold_back(ProcessId::new(1), ProcessId::new(2), 2);
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        for i in 1..=4u32 {
            w.write(i);
            assert_eq!(r.read(), (u64::from(i), i), "held reader must still read fresh");
        }
        reg.shutdown();
    }
}
