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
//! where an idle node picks up its next queued client command). All correct
//! nodes of one register live in a single task that drains the register's
//! virtual-time network in seeded delivery order, so a register costs
//! **zero** dedicated threads.
//!
//! Who runs a drain: the caller. [`MpClient::write`]/[`MpClient::read`]
//! lock the register's task, put the command on their process's node,
//! drain the task on the calling thread and take the command's result from
//! the node, all under that one lock; the drain reaches quiescence with the
//! command complete. No channel carries the command or its reply, and the
//! call allocates nothing of its own. Node sends happen inside that drain,
//! which consumes them, so they wake no one: no thread waits on the
//! network's condvar then, and a notify with no waiter costs one atomic
//! load (see the vendored `parking_lot::Condvar`). Only traffic a Byzantine
//! endpoint injects from outside wakes the hosting [`Reactor`] (see
//! [`crate::reactor`]), whose worker then drains the same task under the
//! same lock. Delivery order is decided by the network alone, so it does
//! not depend on which thread drains.
//!
//! Per write `sn`, a node tallies `ECHO`/`VALID` senders per value in a
//! short list matched with `==`, with senders as a bitmask (hence
//! `n <= 64`): a value is cloned when it first appears, never hashed.
//!
//! Under correct traffic, per-write state stays bounded by the writes in
//! flight: a node retires a write's echo/validation state once it can no
//! longer act on it (the safety argument is on `Node::retire_if_done`), and
//! sends to a declared-Byzantine node nobody reads are dropped (see
//! [`Endpoint::send`]). Byzantine traffic is not bounded so: an `Echo` or
//! `Valid` for an `sn` no correct writer issues creates a per-write entry
//! that never retires (retiring needs the node to have echoed and validated
//! `sn`, and the at most `f` Byzantine senders cannot supply the `f + 1`
//! matching messages either step needs), so such traffic grows node state
//! by one entry per forged `sn` (pinned by a test below; bounding it is
//! ROADMAP item 6).
//!
//! Liveness caveat. Under an arbitrary scheduler the protocol guarantees a
//! read terminates only if the writer eventually pauses — the classic cost
//! of atomic reads without writer-side helping: a read needs `n − f` nodes
//! to report the *same* `(best, v)`, which a writer that never stops can
//! keep ahead of. Here the scheduler is not arbitrary: each call drains
//! its own command to quiescence under the register's lock, so no write
//! starts while a read is in flight, and a correct writer cannot stay
//! ahead of a read. The test `reads_finish_under_a_writer_that_never_pauses`
//! pins this: `p1` writes 20 000 values back to back while `p2` and `p3`
//! read in loops, and every call returns inside a bounded wait with
//! monotone, written values. The caveat still holds for any drain that
//! could deliver a new write's messages in the middle of a read.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    Write(V),
    Read,
}

/// The result of a node's last completed client command, which the call
/// that queued the command takes (see [`MpClient`]).
enum Done<V> {
    Written,
    Read(u64, V),
}

/// A set of senders as a bitmask: bit `i` stands for `p_{i+1}`.
/// [`MpRegister::build`] asserts `n <= 64`, so every pid has a bit.
#[derive(Clone, Copy, Default)]
struct Senders(u64);

impl Senders {
    /// Adds `pid`; `false` if it was in the set already.
    fn insert(&mut self, pid: ProcessId) -> bool {
        let bit = 1u64 << pid.zero_based();
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// The senders of one message kind for one write `sn`, per value: a short
/// list matched with `==`. A correct writer gives an `sn` one value, so the
/// list has one entry unless Byzantine senders add values of their own.
struct Tally<V>(Vec<(V, Senders)>);

impl<V: Value> Tally<V> {
    /// Counts `from` as a sender of `v` and returns how many senders `v`
    /// has now; `None` if `from` was counted for `v` already. Clones `v`
    /// only for a value not seen before.
    fn add(&mut self, v: &V, from: ProcessId) -> Option<usize> {
        let i = match self.0.iter().position(|(w, _)| w == v) {
            Some(i) => i,
            None => {
                self.0.push((v.clone(), Senders::default()));
                self.0.len() - 1
            }
        };
        let senders = &mut self.0[i].1;
        senders.insert(from).then(|| senders.len())
    }
}

/// A poll-driven protocol node: all state transitions fire either on a
/// delivered message or on a tick issued by the hosting task after each
/// delivery drain. Implementations must never block — replacing the
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
    /// Echo/validation state of every write `sn` this node has seen and not
    /// yet retired (see [`Node::retire_if_done`]).
    writes: HashMap<u64, WriteState<V>>,
    /// Every `sn` in `1..=retired_to` is retired, plus those in
    /// `retired_above` (retired out of order; it drains into the
    /// watermark as the gaps close).
    retired_to: u64,
    retired_above: BTreeSet<u64>,
    pending_readers: HashSet<(ProcessId, u64)>,
    // Client-side state (this node doubles as its process's client agent).
    next_sn: u64,
    next_rid: u64,
    /// The client command waiting to start (at most one: see [`MpClient`]).
    queued: Option<Cmd<V>>,
    /// The write in flight: its `sn` and who has acked it.
    write_op: Option<(u64, Senders)>,
    read_op: Option<ReadOp<V>>,
    /// The result of the last completed command, until its call takes it.
    done: Option<Done<V>>,
}

/// What one node knows about one write `sn`.
struct WriteState<V> {
    /// This node has broadcast its `ECHO(sn, ·)`.
    echoed: bool,
    /// This node has validated `sn`.
    validated: bool,
    /// Senders of `ECHO(sn, v)`, per value `v`.
    echo_from: Tally<V>,
    /// Senders of `VALID(sn, v)`, per value `v`.
    valid_from: Tally<V>,
}

impl<V> Default for WriteState<V> {
    fn default() -> Self {
        WriteState {
            echoed: false,
            validated: false,
            echo_from: Tally(Vec::new()),
            valid_from: Tally(Vec::new()),
        }
    }
}

struct ReadOp<V> {
    rid: u64,
    reports: BTreeMap<ProcessId, (u64, V)>,
}

impl<V: Value> Node<V> {
    fn validate(&mut self, sn: u64, v: V) {
        let state = self.writes.entry(sn).or_default();
        if state.validated {
            return;
        }
        state.validated = true;
        self.ep.send(self.writer, Msg::Ack { sn });
        self.ep.broadcast(Msg::Valid { sn, v: v.clone() });
        if sn > self.ts {
            self.ts = sn;
            self.val = v;
            // Refresh every pending reader.
            for &(r, rid) in &self.pending_readers {
                self.ep.send(r, Msg::State { rid, ts: self.ts, v: self.val.clone() });
            }
        }
    }

    fn is_retired(&self, sn: u64) -> bool {
        (1..=self.retired_to).contains(&sn) || self.retired_above.contains(&sn)
    }

    /// Forgets `sn` once this node has both echoed and validated it.
    ///
    /// Safety: from then on no `WRITE`, `ECHO` or `VALID` for `sn` can
    /// change what this node sends.
    ///
    /// * `WRITE(sn, v)` acts only by echoing, and only if `sn` is not yet
    ///   echoed.
    /// * `ECHO(sn, v)` acts only by amplifying, if `sn` is not yet echoed,
    ///   or by validating, if `sn` is not yet validated.
    /// * `VALID(sn, v)` acts only by validating, if `sn` is not yet
    ///   validated.
    ///
    /// With both flags set, each of these only adds a sender to a count
    /// that no rule will consult again, whatever value it carries — a
    /// Byzantine `ECHO`/`VALID` with another value included. `ACK`, `READ`,
    /// `STATE` and `READ_DONE` never read this state, and what a validation
    /// changed (`ts`, `val`) is kept. So dropping `sn`'s entry and ignoring
    /// every later `WRITE`/`ECHO`/`VALID` for `sn` leaves every send of the
    /// node, and thus the delivery schedule, exactly as it was; it bounds a
    /// node's per-write state by the writes in flight. The ignoring is
    /// what makes forgetting safe: a fresh entry would read as not yet
    /// echoed, and late echoes would make the node echo `sn` again.
    fn retire_if_done(&mut self, sn: u64) {
        if !self.writes.get(&sn).is_some_and(|w| w.echoed && w.validated) {
            return;
        }
        self.writes.remove(&sn);
        if sn == self.retired_to + 1 {
            self.retired_to = sn;
            while self.retired_above.remove(&(self.retired_to + 1)) {
                self.retired_to += 1;
            }
        } else {
            self.retired_above.insert(sn);
        }
    }

    fn start(&mut self, cmd: Cmd<V>) {
        match cmd {
            Cmd::Write(v) => {
                self.next_sn += 1;
                let sn = self.next_sn;
                self.write_op = Some((sn, Senders::default()));
                self.ep.broadcast(Msg::Write { sn, v });
            }
            Cmd::Read => {
                self.next_rid += 1;
                let rid = self.next_rid;
                self.read_op = Some(ReadOp { rid, reports: BTreeMap::new() });
                self.ep.broadcast(Msg::Read { rid });
            }
        }
    }
}

impl<V: Value> NodeStateMachine<V> for Node<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>) {
        match msg {
            Msg::Write { sn, v } => {
                if from != self.writer || self.is_retired(sn) {
                    return;
                }
                let state = self.writes.entry(sn).or_default();
                if !state.echoed {
                    state.echoed = true;
                    self.ep.broadcast(Msg::Echo { sn, v });
                    self.retire_if_done(sn);
                }
            }
            Msg::Echo { sn, v } => {
                if self.is_retired(sn) {
                    return;
                }
                let state = self.writes.entry(sn).or_default();
                let Some(count) = state.echo_from.add(&v, from) else { return };
                // Bracha amplification / validation thresholds, as in the
                // paper: `f + 1` matching echoes amplify, `n − f` validate.
                let amplify = self.f + 1;
                if count >= amplify && !state.echoed {
                    state.echoed = true;
                    self.ep.broadcast(Msg::Echo { sn, v: v.clone() });
                }
                if count >= self.n - self.f && !state.validated {
                    self.validate(sn, v);
                }
                self.retire_if_done(sn);
            }
            Msg::Valid { sn, v } => {
                if self.is_retired(sn) {
                    return;
                }
                let state = self.writes.entry(sn).or_default();
                let Some(count) = state.valid_from.add(&v, from) else { return };
                // `f + 1` VALIDs contain one correct validator (totality).
                let amplify = self.f + 1;
                if count >= amplify && !state.validated {
                    self.validate(sn, v);
                    self.retire_if_done(sn);
                }
            }
            Msg::Ack { sn } => {
                if let Some((want, acks)) = &mut self.write_op {
                    if *want == sn {
                        acks.insert(from);
                        if acks.len() >= self.n - self.f {
                            self.done = Some(Done::Written);
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
                        if let Some((ts, v)) = decide_read(&op.reports, self.n, self.f) {
                            self.done = Some(Done::Read(ts, v));
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
        match self.queued.take() {
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
    // Decide once n−f nodes report exactly (best, v) for a single v (two
    // such values would need 2(n−f) > n reporters, so the first found is
    // the only one).
    let at_best = || reports.values().filter(|(ts, _)| *ts == best);
    at_best()
        .find(|(_, v)| at_best().filter(|(_, w)| w == v).count() >= n - f)
        .map(|(_, v)| (best, v.clone()))
}

/// The task hosting one register: all correct nodes plus the register's
/// network, drained in virtual-delivery order. One run processes every
/// queued client command and every scheduled message to quiescence.
struct RegisterTask<V: Value> {
    net: Arc<Net<Msg<V>>>,
    /// `None` for declared-Byzantine pids (their queue is read externally
    /// through the Byzantine endpoint, never by this task).
    nodes: Vec<Option<Node<V>>>,
    managed: Vec<bool>,
}

impl<V: Value> RegisterTask<V> {
    /// The node of the correct process `pid`.
    fn node(&mut self, pid: ProcessId) -> &mut Node<V> {
        self.nodes[pid.zero_based()].as_mut().expect("a correct process's node")
    }

    fn run(&mut self) {
        self.net.set_draining(true);
        loop {
            let mut progress = false;
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

/// One register's task, shared by every thread that drains it: the
/// register's clients and, for Byzantine-endpoint traffic, a reactor
/// worker. `None` once the register has shut down.
type TaskSlot<V> = Arc<parking_lot::Mutex<Option<RegisterTask<V>>>>;

/// Drains the register in `slot` to quiescence, if it is still live. The
/// lock makes the register single-threaded with respect to itself,
/// whichever thread runs it.
fn drain<V: Value>(slot: &TaskSlot<V>) {
    if let Some(task) = slot.lock().as_mut() {
        task.run();
    }
}

/// A standalone register's slot as a reactor task of its own.
struct HostedRegister<V: Value>(TaskSlot<V>);

impl<V: Value> ReactorTask for HostedRegister<V> {
    fn run(&mut self) {
        drain(&self.0);
    }
}

#[derive(Clone)]
struct GroupMember {
    /// Drains the member's register (see [`drain`]).
    drain: Arc<dyn Fn() + Send + Sync>,
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
            (member.drain)();
        }
    }
}

/// A co-scheduling group of emulated registers: every member is hosted on
/// **one** reactor task, so one dispatch drains all members woken by
/// Byzantine-endpoint traffic. Client operations never go through it (they
/// drain their register on their own thread, see [`MpClient`]); a keyed
/// store still puts all base registers of one help shard's keys in one
/// group, so an attack spread over a shard's keys costs one reactor task.
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
    slot: TaskSlot<V>,
    correct: Vec<bool>,
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

/// One emulated SWMR register over its own `n`-node virtual network.
///
/// The writer is `p1`. Every process has a client handle to its co-located
/// node; handles are thread-safe and serialize their process's operations.
/// A client operation drains the register on the caller's thread; the
/// hosting [`Reactor`] (a task of its own, or a [`RegisterGroup`]'s host
/// task) drains only what Byzantine endpoints inject from outside.
pub struct MpRegister<V: Value> {
    writer: ProcessId,
    slot: TaskSlot<V>,
    /// `correct[i]`: `p_{i+1}` runs the protocol and has a client.
    correct: Vec<bool>,
    byz_eps: parking_lot::Mutex<Vec<Option<Endpoint<Msg<V>>>>>,
    net: Arc<Net<Msg<V>>>,
    reactor: Arc<Reactor>,
    /// `true` when `spawn` created a private reactor that `shutdown` owns.
    owns_reactor: bool,
    /// The reactor task of a standalone register; `None` for a group
    /// member, which the group's host task serves.
    task: Option<TaskId>,
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
        let built = Self::build(config, v0);
        let id = reactor.register(Box::new(HostedRegister(Arc::clone(&built.slot))));
        Self::assemble(built, config, reactor, Some(id), reactor.waker(id))
    }

    /// Spawns the register as one **member** of `group`: Byzantine-endpoint
    /// traffic is drained by the group's shared host task instead of a
    /// dedicated one (see [`RegisterGroup`]).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (see [`MpRegister::spawn`]).
    #[must_use]
    pub fn spawn_in_group(group: &RegisterGroup, config: &MpConfig, v0: V) -> Self {
        let built = Self::build(config, v0);
        let slot = Arc::clone(&built.slot);
        let pending = Arc::new(AtomicBool::new(false));
        let index = {
            let mut members = group.shared.members.lock();
            members.push(GroupMember {
                drain: Arc::new(move || drain(&slot)),
                pending: Arc::clone(&pending),
            });
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
        Self::assemble(built, config, &group.reactor, None, wake)
    }

    /// Builds the register's nodes, network, and task (shared by the
    /// standalone and grouped spawn paths).
    fn build(config: &MpConfig, v0: V) -> BuiltRegister<V> {
        assert!(config.n > 3 * config.f, "the MP emulation requires n > 3f");
        assert!(config.n <= 64, "sender sets are 64-bit masks: the MP emulation takes n <= 64");
        let net = Net::<Msg<V>>::new(config.n, config.net, config.adversary.clone(), config.trace);
        let mut byz_eps: Vec<Option<Endpoint<Msg<V>>>> = (0..config.n).map(|_| None).collect();
        let mut nodes = Vec::with_capacity(config.n);
        let mut correct = Vec::with_capacity(config.n);
        for i in 1..=config.n {
            let pid = ProcessId::new(i);
            if config.byzantine.contains(&pid) {
                // Until someone takes this endpoint, nobody reads its queue.
                net.set_unread(pid, true);
                byz_eps[pid.zero_based()] = Some(net.endpoint(pid, true));
                nodes.push(None);
                correct.push(false);
                continue;
            }
            correct.push(true);
            nodes.push(Some(Node {
                ep: net.endpoint(pid, false),
                n: config.n,
                f: config.f,
                writer: config.writer,
                ts: 0,
                val: v0.clone(),
                writes: HashMap::new(),
                retired_to: 0,
                retired_above: BTreeSet::new(),
                pending_readers: HashSet::new(),
                next_sn: 0,
                next_rid: 0,
                queued: None,
                write_op: None,
                read_op: None,
                done: None,
            }));
        }
        let task = RegisterTask { net: Arc::clone(&net), nodes, managed: correct.clone() };
        BuiltRegister { slot: Arc::new(parking_lot::Mutex::new(Some(task))), correct, byz_eps, net }
    }

    /// Wires a built register to the scheduler that serves its
    /// Byzantine-endpoint traffic through `wake`.
    fn assemble(
        built: BuiltRegister<V>,
        config: &MpConfig,
        reactor: &Arc<Reactor>,
        task: Option<TaskId>,
        wake: Arc<dyn Fn() + Send + Sync>,
    ) -> Self {
        let BuiltRegister { slot, correct, byz_eps, net } = built;
        net.set_wake(wake);
        MpRegister {
            writer: config.writer,
            slot,
            correct,
            byz_eps: parking_lot::Mutex::new(byz_eps),
            net,
            reactor: Arc::clone(reactor),
            owns_reactor: false,
            task,
            n: config.n,
        }
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
        assert!(self.correct[pid.zero_based()], "{pid} is Byzantine; use byzantine_endpoint");
        MpClient { pid, writer: self.writer, slot: Arc::clone(&self.slot) }
    }

    /// The raw network endpoint of a declared-Byzantine node.
    ///
    /// Until its endpoint is taken, nobody can read a Byzantine node's
    /// queue, so the network drops what correct nodes send it (see
    /// [`Endpoint::send`]; the drop moves no other delivery). Delivery to
    /// the node starts from the moment this call takes the endpoint: it
    /// receives every message sent after the take, none sent before.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct or the endpoint was taken.
    #[must_use]
    pub fn byzantine_endpoint(&self, pid: ProcessId) -> Endpoint<Msg<V>> {
        let ep = self.byz_eps.lock()[pid.zero_based()].take().expect("endpoint available");
        self.net.set_unread(pid, false);
        ep
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of protocol messages sent so far.
    #[cfg(test)]
    pub(crate) fn messages_sent(&self) -> u64 {
        self.net.sent()
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
        self.net.settle(&self.correct);
    }

    /// Drops the register's task: its slot empties (clients panic on
    /// further use, as when the node threads of the old design were
    /// stopped), and a standalone register's reactor task is removed.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.slot.lock().take();
        if let Some(id) = self.task {
            self.reactor.remove(id);
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
///
/// A call locks the register's task, puts its command on its process's
/// node, drains the register to quiescence on the calling thread and takes
/// the command's result from the node, all under that one lock: no
/// channel, no thread handoff, no wake, no allocation of its own. Every
/// correct node lives in that drain, and with every send delivered each
/// correct node ends a write acked by `n − f` and a read answered by
/// `n − f` equal reports, so the drain always completes the command. A
/// node therefore holds at most one queued command and one result, and
/// the result it holds belongs to the call holding the lock. Handles are
/// clonable; clones of one process's handle serialize on the lock.
#[derive(Clone)]
pub struct MpClient<V: Value> {
    pid: ProcessId,
    writer: ProcessId,
    slot: TaskSlot<V>,
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
    /// Panics if this handle does not belong to the writer `p1`, or if the
    /// register has shut down.
    pub fn write(&self, v: V) {
        assert!(self.pid == self.writer, "{} does not own the write port", self.pid);
        self.call(Cmd::Write(v));
    }

    /// Reads the register (blocks until the read decision rule fires).
    /// Returns `(timestamp, value)`.
    ///
    /// # Panics
    ///
    /// Panics if the register has shut down.
    #[must_use]
    pub fn read(&self) -> (u64, V) {
        let Done::Read(ts, v) = self.call(Cmd::Read) else { unreachable!("a read's result") };
        (ts, v)
    }

    /// Queues `cmd` on this process's node, drains the register on this
    /// thread and takes the result (see the type docs). The lock is
    /// blocking: waiting out another thread's drain is cheaper than handing
    /// the command to it.
    fn call(&self, cmd: Cmd<V>) -> Done<V> {
        let mut slot = self.slot.lock();
        let task = slot.as_mut().expect("the register has shut down");
        task.node(self.pid).queued = Some(cmd);
        task.run();
        task.node(self.pid).done.take().expect("a drain completes the command it was given")
    }
}

impl<V: Value> std::fmt::Debug for MpClient<V> {
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
    #[should_panic(expected = "the register has shut down")]
    fn a_call_on_a_shut_down_register_panics() {
        let reg = MpRegister::spawn(&MpConfig::new(4), 0u32);
        let r = reg.client(ProcessId::new(2));
        reg.shutdown();
        let _ = r.read();
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
        // Burst many concurrent writes at the members of one group: every
        // client drains its own register, so the group's host task is
        // never dispatched at all.
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
        assert_eq!(
            spent, 0,
            "16 concurrent grouped writes took {spent} dispatches; each client drains \
             its own register, so the host task is never needed"
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

    /// Correct nodes' retirement state: `(per-write entries, watermark)`
    /// of each correct node.
    fn retirement(reg: &MpRegister<u32>) -> Vec<(usize, u64)> {
        let slot = reg.slot.lock();
        let task = slot.as_ref().expect("live register");
        task.nodes.iter().flatten().map(|node| (node.writes.len(), node.retired_to)).collect()
    }

    #[test]
    fn per_write_state_stays_bounded_over_ten_thousand_writes() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        const WRITES: u32 = 10_000;
        for i in 1..=WRITES {
            w.write(i);
            assert_eq!(r.read(), (u64::from(i), i));
        }
        for (entries, watermark) in retirement(&reg) {
            assert_eq!(entries, 0, "every write retired");
            assert_eq!(watermark, u64::from(WRITES), "the watermark covers every write");
        }
        let slot = reg.slot.lock();
        for node in slot.as_ref().unwrap().nodes.iter().flatten() {
            assert!(node.retired_above.is_empty(), "nothing retired out of order");
            assert!(node.pending_readers.is_empty(), "every reader deregistered");
        }
        drop(slot);
        assert_eq!(reg.net.queued_for(ProcessId::new(4)), 0, "nobody reads p4: nothing queued");
        reg.shutdown();
    }

    #[test]
    fn retired_writes_ignore_byzantine_echoes_and_valids() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let byz = reg.byzantine_endpoint(ProcessId::new(4));
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        w.write(3);
        w.write(5);
        assert_eq!(retirement(&reg), vec![(0, 2); 3], "both writes retired");
        // Lies about retired writes, with values nobody wrote, then one
        // drain: no correct node may send anything in response.
        for sn in [1, 2] {
            byz.broadcast(Msg::Echo { sn, v: 66 });
            byz.broadcast(Msg::Valid { sn, v: 66 });
        }
        let sent = reg.net.sent();
        drain(&reg.slot);
        assert_eq!(reg.net.sent(), sent, "no new echo or validation for a retired write");
        assert_eq!(retirement(&reg), vec![(0, 2); 3], "retired writes keep no state");
        assert_eq!(r.read(), (2, 5), "reads still return the genuine value");
        reg.shutdown();
    }

    /// Pins where the bounded-state claim stops: `Echo`/`Valid` traffic
    /// for an `sn` no correct writer issues leaves every correct node one
    /// `WriteState` that never retires (echoing or validating it needs
    /// `f + 1` matching messages, which one Byzantine sender cannot
    /// supply), so this state grows by one entry per forged `sn`.
    #[test]
    fn byzantine_traffic_for_unissued_sns_leaves_state_that_never_retires() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let byz = reg.byzantine_endpoint(ProcessId::new(4));
        const K: u64 = 64;
        for batch in 1..=2 {
            for sn in 1_000 + (batch - 1) * K..1_000 + batch * K {
                byz.broadcast(Msg::Echo { sn, v: 66 });
                byz.broadcast(Msg::Valid { sn, v: 66 });
            }
            drain(&reg.slot);
            let live = usize::try_from(batch * K).unwrap();
            assert_eq!(retirement(&reg), vec![(live, 0); 3], "one live entry per forged sn");
        }
        let w = reg.client(ProcessId::new(1));
        w.write(3);
        assert_eq!(reg.client(ProcessId::new(2)).read(), (1, 3));
        let live = usize::try_from(2 * K).unwrap();
        assert_eq!(
            retirement(&reg),
            vec![(live, 1); 3],
            "the genuine write retires, no forged one"
        );
        reg.shutdown();
    }

    #[test]
    fn taken_byzantine_endpoint_receives_traffic_sent_after_the_take() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        let reg = MpRegister::spawn(&config, 0u32);
        let w = reg.client(ProcessId::new(1));
        w.write(7);
        assert_eq!(reg.net.queued_for(ProcessId::new(4)), 0, "dropped before the take");
        let byz = reg.byzantine_endpoint(ProcessId::new(4));
        w.write(8);
        let mut got = Vec::new();
        while let Some((_, msg)) = byz.recv_timeout(Duration::from_millis(20)) {
            got.push(msg);
        }
        assert!(got.contains(&Msg::Write { sn: 2, v: 8 }), "the write after the take arrives");
        assert!(got.contains(&Msg::Echo { sn: 2, v: 8 }));
        assert!(
            got.iter().all(|m| !matches!(m, Msg::Write { sn: 1, .. } | Msg::Echo { sn: 1, .. })),
            "traffic from before the take is gone: {got:?}"
        );
        reg.shutdown();
    }

    #[test]
    fn clients_drain_grouped_registers_without_reactor_dispatches() {
        let reactor = Arc::new(Reactor::new(1));
        let group = RegisterGroup::new(&reactor);
        let regs: Vec<MpRegister<u32>> =
            (0..4).map(|_| MpRegister::spawn_in_group(&group, &MpConfig::new(4), 0)).collect();
        let before = reactor.dispatches();
        std::thread::scope(|s| {
            for reg in &regs {
                let w = reg.client(ProcessId::new(1));
                s.spawn(move || {
                    for i in 1..=50u32 {
                        w.write(i);
                    }
                });
                for pid in 2..=4 {
                    let r = reg.client(ProcessId::new(pid));
                    s.spawn(move || {
                        let mut last = 0;
                        for _ in 0..50 {
                            let (ts, v) = r.read();
                            assert!(ts >= last, "reads are monotone");
                            assert_eq!(u64::from(v), ts, "value {v} belongs to write {ts}");
                            last = ts;
                        }
                    });
                }
            }
        });
        assert_eq!(reactor.dispatches(), before, "no Byzantine traffic: the reactor never runs");
        for reg in &regs {
            assert_eq!(reg.client(ProcessId::new(2)).read(), (50, 50));
            reg.shutdown();
        }
        reactor.shutdown();
    }

    #[test]
    fn eight_threads_share_one_register_consistently() {
        // Two writer threads as p1 and six readers as p2..p4, 1000 mixed
        // operations each, all draining the same register. Every read is
        // monotone per thread and every timestamp names one value.
        let reg = MpRegister::spawn(&MpConfig::new(4), 0u32);
        const OPS: u32 = 1000;
        let seen: parking_lot::Mutex<HashMap<u64, u32>> = parking_lot::Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let client = reg.client(ProcessId::new(if t < 2 { 1 } else { 2 + t as usize % 3 }));
                let seen = &seen;
                s.spawn(move || {
                    let mut last = 0;
                    for i in 0..OPS {
                        if t < 2 && i % 2 == 0 {
                            client.write(t * OPS + i + 1);
                            continue;
                        }
                        let (ts, v) = client.read();
                        assert!(ts >= last, "thread {t}: read went back from {last} to {ts}");
                        last = ts;
                        let named = *seen.lock().entry(ts).or_insert(v);
                        assert_eq!(named, v, "timestamp {ts} read as two values");
                    }
                });
            }
        });
        let (ts, _) = reg.client(ProcessId::new(3)).read();
        assert_eq!(ts, u64::from(OPS), "every write took one sequence number");
        reg.shutdown();
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

    /// Pins the sends of one owner write and one non-owner read on `n = 4`
    /// with `p4` silent (sends to `p4` are drawn and dropped, so they
    /// count). A write is the writer's `WRITE` broadcast (4), one `ECHO`
    /// broadcast per correct node (3 × 4), and one `ACK` plus one `VALID`
    /// broadcast per correct node (3 × 5): 31. A read is the reader's
    /// `READ` broadcast (4), one `STATE` per correct node (3) and the
    /// `READ_DONE` broadcast (4): 11.
    #[test]
    fn one_owner_write_and_one_non_owner_read_send_exactly_their_messages() {
        let mut config = MpConfig::new(4);
        config.byzantine = vec![ProcessId::new(4)];
        config.net = NetConfig::jittery(Duration::from_micros(200), 7);
        let reg = MpRegister::spawn(&config, 0u64);
        let w = reg.client(ProcessId::new(1));
        let r = reg.client(ProcessId::new(2));
        for i in 1..=3u64 {
            reg.settle();
            let before = reg.messages_sent();
            w.write(i);
            reg.settle();
            assert_eq!(reg.messages_sent() - before, 31, "write {i}");
            let before = reg.messages_sent();
            assert_eq!(r.read(), (i, i));
            reg.settle();
            assert_eq!(reg.messages_sent() - before, 11, "read after write {i}");
        }
        reg.shutdown();
    }

    /// The liveness caveat under this crate's scheduler: `p1` writes
    /// 20 000 values back to back while `p2` and `p3` read in loops. Every
    /// call drains its own command to quiescence under the register's
    /// lock, so no read can be overtaken by writes; each reader's values
    /// are monotone and were written, and every thread ends inside a
    /// bounded wait.
    #[test]
    fn reads_finish_under_a_writer_that_never_pauses() {
        const WRITES: u64 = 20_000;
        let mut config = MpConfig::new(4);
        config.net = NetConfig::jittery(Duration::from_micros(200), 11);
        let reg = MpRegister::spawn(&config, 0u64);
        let done = Arc::new(AtomicBool::new(false));
        let w = reg.client(ProcessId::new(1));
        let writer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for v in 1..=WRITES {
                    w.write(v);
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = [2, 3]
            .into_iter()
            .map(|pid| {
                let r = reg.client(ProcessId::new(pid));
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut last = 0;
                    let mut reads = 0u64;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let (ts, v) = r.read();
                        assert!(ts >= last, "p{pid}: read went back from {last} to {ts}");
                        assert_eq!(v, ts, "p{pid}: value {v} was not written by write {ts}");
                        last = ts;
                        reads += 1;
                        if finished {
                            return (last, reads);
                        }
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        let mut handles = readers;
        while !(writer.is_finished() && handles.iter().all(std::thread::JoinHandle::is_finished)) {
            assert!(std::time::Instant::now() < deadline, "a call did not return in 120 s");
            std::thread::sleep(Duration::from_millis(5));
        }
        writer.join().unwrap();
        for h in handles.drain(..) {
            let (last, reads) = h.join().unwrap();
            assert_eq!(last, WRITES, "the read after the last write sees it");
            assert!(reads >= 1);
        }
        reg.shutdown();
    }
}
