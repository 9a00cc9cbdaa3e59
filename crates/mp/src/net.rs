//! A simulated asynchronous message-passing network with authenticated
//! point-to-point channels and a **virtual-time delivery schedule**.
//!
//! Assumptions match those of Mostéfaoui–Petrolia–Raynal–Jard [11] and
//! Srikanth–Toueg [13]: channels are reliable and FIFO per link, delivery is
//! asynchronous, and a receiver always knows the true sender (no spoofing) —
//! Byzantine nodes may send arbitrary *message contents* but only under
//! their own identity.
//!
//! # Virtual time
//!
//! The network is a discrete-event queue. Every send is stamped with a
//! *virtual* delivery instant — the network's current virtual clock plus a
//! seeded jitter drawn from [`NetConfig::jitter_for`] — and messages are
//! handed to receivers in `(deliver_at, send seq)` order. Nothing ever
//! sleeps: jitter shapes the *interleaving* of deliveries (which is what an
//! asynchronous adversary controls), not wall-clock latency. Two runs with
//! the same seed and the same command sequence, each command issued on a
//! **settled** network (no scheduled or penned message left and the
//! hosting task idle — see `MpRegister::settle`), therefore produce the
//! identical delivery schedule — the property the reactor determinism
//! tests pin down. A command issued while the previous one's leftover
//! messages are still being delivered takes its virtual `now` and send
//! `seq` from however far the hosting task has got, so it does not replay.
//!
//! # Heap invariants
//!
//! The delivery schedule is a set of per-destination min-heaps of
//! [`Envelope`]s ordered by `(deliver_at, seq)`. Every layer above this
//! module — the reactor's event pops, and any [`AdversaryPolicy`] tactic —
//! relies on three invariants the heap maintains:
//!
//! 1. **Per-link FIFO floor** — `link_clock[(from, to)]` records the last
//!    delivery instant scheduled on each directed link, and every send's
//!    instant is clamped to at least that floor before insertion. No matter
//!    how a policy shifts instants, two messages on one link can never
//!    swap: their instants are non-decreasing in send order.
//! 2. **`(deliver_at, seq)` tiebreak** — `seq` is a single global send
//!    counter, so messages scheduled for the same instant (common under the
//!    FIFO clamp, and after a partition heals a burst onto one instant)
//!    deliver in send order. Total order ⇒ no unordered heap races.
//! 3. **Monotone virtual clock** — `now` only ratchets up to the largest
//!    instant handed out, so later sends are never scheduled before
//!    already-delivered traffic on the same link.
//!
//! An [`AdversaryPolicy`] manipulates *tentative* instants before the FIFO
//! clamp (delays, partition floors), picks among FIFO-safe heap heads after
//! it (bounded reorder), or diverts a link's envelopes into a pen that
//! re-enters the heap through the same clamp (hold-back) — so every tactic
//! inherits the invariants instead of having to re-establish them.
//!
//! # Who drains, and who is woken
//!
//! A register's network is drained by whichever thread holds its task:
//! normally the client whose operation is in flight (see [`crate::swmr`]).
//! Endpoints of the nodes inside that task send only during a drain, which
//! consumes what they send, so their sends wake no one. Endpoints handed
//! out to Byzantine code send from outside any drain; their sends invoke
//! the network's wake hook, which schedules the hosting reactor task.
//! A destination nobody reads (a declared-Byzantine node whose endpoint
//! was never taken) gets no queue at all: [`Endpoint::send`] drops its
//! traffic without moving any other delivery.
//!
//! The network's condvar is notified on every send, on every pen flush and
//! when a drain ends. Its waiters are [`Endpoint::recv_timeout`] callers
//! (Byzantine code) and `MpRegister::settle`; a client drain has neither,
//! so those notifies find no waiter and cost one atomic load, not a
//! syscall (the vendored `parking_lot::Condvar` counts its waiters). No
//! wake-up is lost: every notify site (`send`, `set_draining`,
//! `next_event`, `recv_timeout`) changes what the waiters test — the
//! queues, the pens, the `draining` mark — under the state lock, and
//! waiters test it under that lock, which is the condition the condvar's
//! soundness argument needs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use byzreg_runtime::ProcessId;

use crate::adversary::AdversaryPolicy;

/// Seeded delivery-jitter configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetConfig {
    /// Maximum artificial delivery delay (virtual); `None`/zero = deliver
    /// in send order.
    pub max_jitter: Duration,
    /// Seed for the per-send jitter.
    pub seed: u64,
}

impl NetConfig {
    /// No artificial delays.
    #[must_use]
    pub fn instant() -> Self {
        NetConfig::default()
    }

    /// Seeded jitter up to `max`.
    #[must_use]
    pub fn jittery(max: Duration, seed: u64) -> Self {
        NetConfig { max_jitter: max, seed }
    }

    /// The artificial delivery delay of `sender`'s `send_index`-th send.
    ///
    /// A pure function of `(seed, sender, send_index)`: the entire
    /// delivery schedule of a run is reproducible from the seed alone —
    /// two runs with the same seed delay every message identically.
    /// [`Endpoint::send`] draws its delays from here, in send order.
    #[must_use]
    pub fn jitter_for(&self, sender: ProcessId, send_index: u64) -> Duration {
        if self.max_jitter.is_zero() {
            return Duration::ZERO;
        }
        let h = splitmix64(self.seed ^ send_index ^ ((sender.index() as u64) << 48));
        Duration::from_nanos(h % self.max_jitter.as_nanos().max(1) as u64)
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An addressed message scheduled for virtual delivery.
struct Envelope<M> {
    from: ProcessId,
    /// Virtual delivery instant (nanoseconds on the virtual clock).
    deliver_at: u64,
    /// Global send sequence number: total tie-break, FIFO per link.
    seq: u64,
    payload: M,
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<M> Eq for Envelope<M> {}

impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// The delivery order of a network so far, as `(from, to)` pairs — the
/// observable the same-seed determinism tests compare across runs.
pub type DeliverySchedule = Vec<(ProcessId, ProcessId)>;

/// One hold-back pen (one per [`AdversaryPolicy`] hold tactic): envelopes
/// on `writer → victim` wait here until `replies` deliveries from third
/// parties (neither the victim nor the writer itself) reach the writer
/// while the pen is non-empty.
struct Pen<M> {
    writer: ProcessId,
    victim: ProcessId,
    replies: usize,
    seen: usize,
    held: VecDeque<Envelope<M>>,
}

struct NetState<M> {
    /// The virtual clock: the largest delivery instant handed out so far.
    now: u64,
    /// Next global send sequence number.
    seq: u64,
    /// Scheduled-but-undelivered messages, one min-heap per destination.
    queues: Vec<BinaryHeap<Reverse<Envelope<M>>>>,
    /// Last scheduled delivery instant per `(from, to)` link (FIFO floor).
    link_clock: Vec<u64>,
    /// Per-sender send index (input to [`NetConfig::jitter_for`]).
    sends: Vec<u64>,
    /// Recorded delivery order, when tracing is on.
    trace: Option<DeliverySchedule>,
    /// Next adversarial reorder-draw index (advances per reorder pick).
    adv_draws: u64,
    /// Hold-back pens, one per adversary hold tactic.
    pens: Vec<Pen<M>>,
    /// `true` while the hosting task drains this network (see
    /// [`Net::settle`]).
    draining: bool,
    /// Destinations nobody reads (a declared-Byzantine node whose endpoint
    /// was never taken): sends to them are dropped, see [`Endpoint::send`].
    unread: Vec<bool>,
}

/// The shared fabric of one simulated network: destination queues, the
/// virtual clock, and an optional wake hook for a hosting reactor task.
pub(crate) struct Net<M> {
    n: usize,
    config: NetConfig,
    /// The adversarial delivery policy (inert by default).
    adversary: AdversaryPolicy,
    state: Mutex<NetState<M>>,
    /// Signals blocked [`Endpoint::recv_timeout`] and [`Net::settle`]
    /// callers on every send, pen flush and end of a drain; free when
    /// nobody waits (see the module docs).
    cv: Condvar,
    /// Invoked (outside the state lock) after every send from an endpoint
    /// that [wakes the host](Net::endpoint), so a reactor can schedule the
    /// task that drains this network.
    wake: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl<M: Send + 'static> Net<M> {
    pub(crate) fn new(
        n: usize,
        config: NetConfig,
        adversary: AdversaryPolicy,
        traced: bool,
    ) -> Arc<Self> {
        adversary.validate(n);
        let pens = adversary
            .holds()
            .into_iter()
            .map(|(writer, victim, replies)| Pen {
                writer,
                victim,
                replies,
                seen: 0,
                held: VecDeque::new(),
            })
            .collect();
        Arc::new(Net {
            n,
            config,
            adversary,
            state: Mutex::new(NetState {
                now: 0,
                seq: 0,
                queues: (0..n).map(|_| BinaryHeap::new()).collect(),
                link_clock: vec![0; n * n],
                sends: vec![0; n],
                trace: traced.then(Vec::new),
                adv_draws: 0,
                pens,
                draining: false,
                unread: vec![false; n],
            }),
            cv: Condvar::new(),
            wake: Mutex::new(None),
        })
    }

    /// The endpoint of node `pid` on this network. With `wakes_host` set,
    /// each send also invokes the wake hook (see the module docs on who is
    /// woken).
    pub(crate) fn endpoint(self: &Arc<Self>, pid: ProcessId, wakes_host: bool) -> Endpoint<M> {
        Endpoint { me: pid, net: Arc::clone(self), wakes_host }
    }

    /// Marks `pid` as a destination nobody reads (`true`), or as read
    /// again (`false`). See [`Endpoint::send`] for what happens to its
    /// traffic.
    pub(crate) fn set_unread(&self, pid: ProcessId, unread: bool) {
        self.state.lock().unread[pid.zero_based()] = unread;
    }

    /// Installs the wake hook a hosting reactor task is scheduled through.
    pub(crate) fn set_wake(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.wake.lock() = Some(hook);
    }

    /// Marks the hosting task as draining this network (`true`) or idle
    /// again (`false`); going idle wakes [`Net::settle`] callers.
    pub(crate) fn set_draining(&self, draining: bool) {
        self.state.lock().draining = draining;
        if !draining {
            self.cv.notify_all();
        }
    }

    /// Blocks until no message is scheduled for a destination marked in
    /// `managed`, no hold-back pen holds one, and the hosting task is idle
    /// — the point from which the next command's virtual send instants and
    /// sequence numbers no longer depend on how far the task has got.
    /// Waits on the send/idle condvar; never sleeps.
    ///
    /// Idleness is the `draining` mark rather than the scheduler's dedup
    /// flag (the reactor's `queued`, or a group member's `pending`): that
    /// flag is cleared *before* the task runs, so it reads "idle" for a
    /// whole drain, and it lives outside this lock, so a change to it
    /// could not wake a `settle` waiting on this condvar.
    pub(crate) fn settle(&self, managed: &[bool]) {
        let mut s = self.state.lock();
        while s.draining
            || s.pens.iter().any(|p| !p.held.is_empty())
            || (0..self.n).any(|d| managed[d] && !s.queues[d].is_empty())
        {
            self.cv.wait(&mut s);
        }
    }

    /// Pops the globally next due message among the destinations marked in
    /// `managed` (virtual-time order; the adversary's reorder window may
    /// substitute another FIFO-safe head of the chosen destination). Used
    /// by the register task that hosts this network's protocol nodes;
    /// unmanaged destinations (declared-Byzantine nodes read externally)
    /// keep their own queues.
    ///
    /// When no managed queue holds a message but a hold-back pen does, the
    /// pens are flushed and selection retries: reliable channels mean a
    /// held message can never be the reason the network goes silent.
    pub(crate) fn next_event(&self, managed: &[bool]) -> Option<(ProcessId, ProcessId, M)> {
        let mut s = self.state.lock();
        loop {
            let dest = (0..self.n)
                .filter(|d| managed[*d])
                .filter_map(|d| s.queues[d].peek().map(|Reverse(e)| ((e.deliver_at, e.seq), d)))
                .min()
                .map(|(_, d)| d);
            match dest {
                Some(dest) => {
                    let (env, flushed) = self.pop_for(&mut s, dest).expect("peeked head");
                    if flushed {
                        // A pen flush may have fed an unmanaged (Byzantine)
                        // destination blocked in recv_timeout.
                        self.cv.notify_all();
                    }
                    let to = ProcessId::new(dest + 1);
                    return Some((to, env.from, env.payload));
                }
                None => {
                    if !self.flush_pens(&mut s) {
                        return None;
                    }
                    self.cv.notify_all();
                }
            }
        }
    }

    /// Pops the next message for `dest`, applying the adversary's reorder
    /// window, ratcheting the virtual clock, recording the trace, and
    /// running hold-pen bookkeeping. Returns the envelope and whether a pen
    /// flushed (its messages are now deliverable at other destinations).
    fn pop_for(&self, s: &mut NetState<M>, dest: usize) -> Option<(Envelope<M>, bool)> {
        let to = ProcessId::new(dest + 1);
        let depth = self.adversary.reorder_depth(to);
        let env = if depth <= 1 {
            s.queues[dest].pop()?.0
        } else {
            // Bounded reorder: among the first `depth` scheduled messages,
            // only the oldest of each link may be released early — the
            // per-link FIFO invariant survives any pick by construction.
            let mut window = Vec::new();
            while window.len() < depth {
                match s.queues[dest].pop() {
                    Some(Reverse(e)) => window.push(e),
                    None => break,
                }
            }
            if window.is_empty() {
                return None;
            }
            let candidates: Vec<usize> = (0..window.len())
                .filter(|i| !window[..*i].iter().any(|p| p.from == window[*i].from))
                .collect();
            let pick = if candidates.len() > 1 {
                let draw = s.adv_draws;
                s.adv_draws += 1;
                candidates[self.adversary.reorder_pick(draw, candidates.len())]
            } else {
                candidates[0]
            };
            let env = window.remove(pick);
            for e in window {
                s.queues[dest].push(Reverse(e));
            }
            env
        };
        s.now = s.now.max(env.deliver_at);
        if let Some(t) = s.trace.as_mut() {
            t.push((env.from, to));
        }
        let flushed = self.note_delivery(s, to, env.from);
        Some((env, flushed))
    }

    /// Hold-pen bookkeeping after delivering a message from `from` to
    /// `to`: a delivery to a pen's writer from a third party — not the
    /// victim, and not the writer's own broadcast self-copy (the SWMR
    /// writer broadcasts to itself too; self-traffic is not a reply) —
    /// counts toward its reply threshold; pens at threshold flush into
    /// the victim's queue. Returns `true` if any pen flushed.
    fn note_delivery(&self, s: &mut NetState<M>, to: ProcessId, from: ProcessId) -> bool {
        let mut releases: Vec<(ProcessId, Envelope<M>)> = Vec::new();
        for pen in &mut s.pens {
            if pen.writer != to || pen.held.is_empty() || from == pen.victim || from == pen.writer {
                continue;
            }
            pen.seen += 1;
            if pen.seen >= pen.replies {
                Self::drain_pen(pen, &mut releases);
            }
        }
        self.release(s, releases)
    }

    /// Empties `pen` into `releases` and resets its reply count — the one
    /// place pen-drain semantics live, shared by the threshold release and
    /// both reliability fallbacks.
    fn drain_pen(pen: &mut Pen<M>, releases: &mut Vec<(ProcessId, Envelope<M>)>) {
        pen.seen = 0;
        let victim = pen.victim;
        releases.extend(pen.held.drain(..).map(|e| (victim, e)));
    }

    /// Flushes every pen matching `filter`. Returns `true` if anything was
    /// released.
    fn flush_where(&self, s: &mut NetState<M>, filter: impl Fn(&Pen<M>) -> bool) -> bool {
        let mut releases: Vec<(ProcessId, Envelope<M>)> = Vec::new();
        for pen in &mut s.pens {
            if filter(pen) {
                Self::drain_pen(pen, &mut releases);
            }
        }
        self.release(s, releases)
    }

    /// Flushes every pen unconditionally (the reliability fallback of
    /// [`Net::next_event`]). Returns `true` if anything was released.
    fn flush_pens(&self, s: &mut NetState<M>) -> bool {
        self.flush_where(s, |_| true)
    }

    /// Flushes only the pens addressed **to** `victim` (the reliability
    /// fallback of [`Endpoint::recv_timeout`]: a timed-out reader is owed
    /// its own held messages, but an unrelated endpoint's wall-clock
    /// timeout must not neuter holds elsewhere in the network). Returns
    /// `true` if anything was released.
    fn flush_pens_for(&self, s: &mut NetState<M>, victim: ProcessId) -> bool {
        self.flush_where(s, |pen| pen.victim == victim)
    }

    /// Re-enters released envelopes into their destination queues at the
    /// current virtual instant (never earlier than originally scheduled —
    /// the `(deliver_at, seq)` order keeps the pen's FIFO intact), still
    /// respecting any active partition cut (the floor is monotone, so pen
    /// FIFO survives it).
    fn release(&self, s: &mut NetState<M>, releases: Vec<(ProcessId, Envelope<M>)>) -> bool {
        let any = !releases.is_empty();
        let now = s.now;
        for (victim, mut env) in releases {
            env.deliver_at =
                self.adversary.partition_floor(env.from, victim, env.deliver_at.max(now));
            s.queues[victim.zero_based()].push(Reverse(env));
        }
        any
    }

    /// A snapshot of the delivery order recorded so far (`None` when the
    /// network was built without tracing).
    pub(crate) fn trace(&self) -> Option<DeliverySchedule> {
        self.state.lock().trace.clone()
    }

    /// Number of sends so far, dropped ones included.
    #[cfg(test)]
    pub(crate) fn sent(&self) -> u64 {
        self.state.lock().seq
    }

    /// Number of messages waiting in `pid`'s queue.
    #[cfg(test)]
    pub(crate) fn queued_for(&self, pid: ProcessId) -> usize {
        self.state.lock().queues[pid.zero_based()].len()
    }
}

/// One node's attachment to the network.
pub struct Endpoint<M> {
    me: ProcessId,
    net: Arc<Net<M>>,
    /// Whether a send invokes the network's wake hook (see [`Net::endpoint`]).
    wakes_host: bool,
}

impl<M: Send + 'static> Endpoint<M> {
    /// This endpoint's node id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Sends `payload` to `to` (authenticated: stamped with the true
    /// sender), scheduling it on the virtual delivery queue — or into a
    /// hold-back pen when an adversary tactic captures the link. Reliable
    /// channels: a send never fails, and penned messages are still
    /// eventually delivered.
    ///
    /// A send to a destination marked unread (a declared-Byzantine node
    /// whose endpoint nobody took) is dropped — but only after it has drawn
    /// its `seq`, its per-sender jitter index and its link-clock floor, so
    /// every other message keeps exactly the instant and order it would
    /// have had. Nothing ever pops that destination's queue, so the drop
    /// changes no delivery; it only stops the queue from growing forever.
    pub fn send(&self, to: ProcessId, payload: M) {
        {
            let mut s = self.net.state.lock();
            let me0 = self.me.zero_based();
            let idx = s.sends[me0];
            s.sends[me0] += 1;
            let jitter = self.net.config.jitter_for(self.me, idx).as_nanos() as u64;
            let mut tentative = s.now + jitter;
            if !self.net.adversary.is_inert() {
                tentative = self.net.adversary.shift_send(self.me, to, idx, tentative);
            }
            let link = me0 * self.net.n + to.zero_based();
            // FIFO per link: a link's delivery instants never decrease,
            // whatever the adversary did to the tentative instant.
            let mut deliver_at = tentative.max(s.link_clock[link]);
            if !self.net.adversary.is_inert() {
                // The clamp can push an instant *into* an active partition
                // window; re-applying the floor on the clamped value keeps
                // the cut airtight (monotone, so the clamp still holds).
                deliver_at = self.net.adversary.partition_floor(self.me, to, deliver_at);
            }
            s.link_clock[link] = deliver_at;
            let seq = s.seq;
            s.seq += 1;
            if s.unread[to.zero_based()] {
                return;
            }
            let env = Envelope { from: self.me, deliver_at, seq, payload };
            let pen = s.pens.iter().position(|p| p.writer == self.me && p.victim == to);
            match pen {
                Some(p) => s.pens[p].held.push_back(env),
                None => s.queues[to.zero_based()].push(Reverse(env)),
            }
        }
        self.net.cv.notify_all();
        if self.wakes_host {
            let wake = self.net.wake.lock().clone();
            if let Some(wake) = wake {
                wake();
            }
        }
    }

    /// Broadcasts clones of `payload` to every node (including the sender).
    pub fn broadcast(&self, payload: M)
    where
        M: Clone,
    {
        for i in 1..=self.net.n {
            self.send(ProcessId::new(i), payload.clone());
        }
    }

    /// Receives this endpoint's next due message (through the adversary's
    /// reorder window, if any), waiting up to `timeout` (wall clock) for
    /// one to be sent. Returns `None` on timeout — but a timeout first
    /// flushes the hold-back pens *addressed to this endpoint* (reliable
    /// channels: a held message must not read as a silent network to its
    /// own victim; pens targeting other destinations are untouched) and
    /// retries.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ProcessId, M)> {
        let deadline = Instant::now() + timeout;
        let mut s = self.net.state.lock();
        loop {
            if let Some((env, flushed)) = self.net.pop_for(&mut s, self.me.zero_based()) {
                if flushed {
                    self.net.cv.notify_all();
                }
                return Some((env.from, env.payload));
            }
            match deadline.checked_duration_since(Instant::now()) {
                Some(remaining) => {
                    let _ = self.net.cv.wait_for(&mut s, remaining);
                }
                None => {
                    if !self.net.flush_pens_for(&mut s, self.me) {
                        return None;
                    }
                }
            }
        }
    }
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint { me: self.me, net: Arc::clone(&self.net), wakes_host: self.wakes_host }
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Endpoint({})", self.me)
    }
}

/// Builds a fully connected network of `n` nodes; returns one [`Endpoint`]
/// per node (index `i` ⇔ `p_{i+1}`).
#[must_use]
pub fn network<M: Send + 'static>(n: usize, config: NetConfig) -> Vec<Endpoint<M>> {
    adversarial_network(n, config, AdversaryPolicy::none())
}

/// Builds a fully connected network of `n` nodes scheduled under an
/// [`AdversaryPolicy`] layered over the seeded jitter of `config`.
///
/// # Panics
///
/// Panics if the policy is inconsistent for an `n`-node network (see
/// [`AdversaryPolicy::validate`]).
#[must_use]
pub fn adversarial_network<M: Send + 'static>(
    n: usize,
    config: NetConfig,
    adversary: AdversaryPolicy,
) -> Vec<Endpoint<M>> {
    let net = Net::new(n, config, adversary, false);
    (1..=n).map(|i| net.endpoint(ProcessId::new(i), true)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_with_true_sender() {
        let eps = network::<u32>(3, NetConfig::instant());
        eps[0].send(ProcessId::new(3), 42);
        let (from, msg) = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, ProcessId::new(1));
        assert_eq!(msg, 42);
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let eps = network::<&str>(3, NetConfig::instant());
        eps[1].broadcast("hello");
        for ep in &eps {
            let (from, msg) = ep.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(from, ProcessId::new(2));
            assert_eq!(msg, "hello");
        }
    }

    #[test]
    fn recv_times_out_when_quiet() {
        let eps = network::<u32>(2, NetConfig::instant());
        assert!(eps[0].recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn links_are_fifo() {
        let eps = network::<u32>(2, NetConfig::instant());
        for i in 0..100 {
            eps[0].send(ProcessId::new(2), i);
        }
        for i in 0..100 {
            let (_, msg) = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(msg, i);
        }
    }

    /// The delivery schedule of `n` senders each performing `sends` sends.
    fn schedule(config: &NetConfig, n: usize, sends: u64) -> Vec<Duration> {
        (1..=n)
            .flat_map(|s| (0..sends).map(move |i| (ProcessId::new(s), i)))
            .map(|(sender, i)| config.jitter_for(sender, i))
            .collect()
    }

    #[test]
    fn same_seed_same_delivery_schedule() {
        // The guarantee of the seeded splitmix64 jitter path: two runs with
        // the same seed delay every message identically.
        let a = NetConfig::jittery(Duration::from_millis(3), 42);
        let b = NetConfig::jittery(Duration::from_millis(3), 42);
        assert_eq!(schedule(&a, 4, 64), schedule(&b, 4, 64));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = NetConfig::jittery(Duration::from_millis(3), 42);
        let c = NetConfig::jittery(Duration::from_millis(3), 43);
        assert_ne!(schedule(&a, 4, 64), schedule(&c, 4, 64));
    }

    #[test]
    fn jitter_is_bounded_and_nontrivial() {
        let config = NetConfig::jittery(Duration::from_millis(2), 7);
        let sched = schedule(&config, 3, 100);
        assert!(sched.iter().all(|d| *d < Duration::from_millis(2)));
        assert!(sched.iter().any(|d| !d.is_zero()), "all-zero jitter would be a broken hash");
        assert!(
            NetConfig::instant().jitter_for(ProcessId::new(1), 0).is_zero(),
            "no jitter configured means immediate delivery"
        );
    }

    #[test]
    fn jittered_messages_still_arrive_in_link_order() {
        let eps = network::<u32>(2, NetConfig::jittery(Duration::from_millis(2), 7));
        for i in 0..20 {
            eps[0].send(ProcessId::new(2), i);
        }
        for i in 0..20 {
            let (_, msg) = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg, i, "per-link FIFO holds despite jitter");
        }
    }

    /// Drives the identical send pattern on a fresh traced network and
    /// returns the receive-side delivery order at node 3.
    fn traced_run(seed: u64) -> Vec<(ProcessId, u32)> {
        let config = NetConfig::jittery(Duration::from_millis(4), seed);
        let net = Net::<u32>::new(3, config, AdversaryPolicy::none(), true);
        let eps: Vec<_> = (1..=3).map(|i| net.endpoint(ProcessId::new(i), true)).collect();
        for round in 0..32u32 {
            eps[0].send(ProcessId::new(3), round);
            eps[1].send(ProcessId::new(3), 100 + round);
        }
        let mut got = Vec::new();
        while let Some(pair) = eps[2].recv_timeout(Duration::from_millis(5)) {
            got.push(pair);
        }
        assert_eq!(got.len(), 64, "reliable channels deliver everything");
        assert_eq!(net.trace().unwrap().len(), 64);
        got
    }

    #[test]
    fn same_seed_same_virtual_delivery_order() {
        // Two senders race toward one receiver: the interleaving is decided
        // entirely by the seeded virtual schedule, so equal seeds replay it.
        assert_eq!(traced_run(11), traced_run(11));
    }

    #[test]
    fn different_seeds_interleave_senders_differently() {
        assert_ne!(traced_run(11), traced_run(12));
    }

    #[test]
    fn adversarial_delay_keeps_links_fifo() {
        use crate::adversary::AdversaryPolicy;
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::jittery(Duration::from_millis(1), 5),
            AdversaryPolicy::slow_reader(ProcessId::new(2), Duration::from_millis(4), 9),
        );
        for i in 0..50 {
            eps[0].send(ProcessId::new(2), i);
            eps[2].send(ProcessId::new(2), 100 + i);
        }
        let mut from_p1 = Vec::new();
        let mut from_p3 = Vec::new();
        while let Some((from, v)) = eps[1].recv_timeout(Duration::from_millis(5)) {
            if from == ProcessId::new(1) {
                from_p1.push(v);
            } else {
                from_p3.push(v);
            }
        }
        assert_eq!(from_p1, (0..50).collect::<Vec<_>>(), "targeted link stays FIFO");
        assert_eq!(from_p3, (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_reorder_interleaves_but_keeps_links_fifo() {
        use crate::adversary::AdversaryPolicy;
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::instant(),
            AdversaryPolicy::bounded_reorder(3, 21),
        );
        for i in 0..40 {
            eps[0].send(ProcessId::new(3), i);
            eps[1].send(ProcessId::new(3), 100 + i);
        }
        let mut order = Vec::new();
        while let Some(pair) = eps[2].recv_timeout(Duration::from_millis(5)) {
            order.push(pair);
        }
        assert_eq!(order.len(), 80, "reorder must not lose messages");
        let of = |p: usize| -> Vec<u32> {
            order.iter().filter(|(f, _)| *f == ProcessId::new(p)).map(|(_, v)| *v).collect()
        };
        assert_eq!(of(1), (0..40).collect::<Vec<_>>(), "per-link FIFO under reorder");
        assert_eq!(of(2), (100..140).collect::<Vec<_>>());
        // An instant network without the adversary delivers in pure send
        // order (strict alternation); the window must have broken it.
        let senders: Vec<ProcessId> = order.iter().map(|(f, _)| *f).collect();
        let alternating: Vec<ProcessId> = (0..80).map(|i| ProcessId::new(1 + i % 2)).collect();
        assert_ne!(senders, alternating, "depth-3 window should visibly reorder");
    }

    #[test]
    fn partition_delays_crossing_traffic_until_heal() {
        use crate::adversary::AdversaryPolicy;
        // p2 is cut off for the first 2 virtual ms; p1→p3 flows normally.
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::jittery(Duration::from_micros(100), 3),
            AdversaryPolicy::split(vec![ProcessId::new(2)], Duration::from_millis(2), 0),
        );
        eps[0].send(ProcessId::new(2), 1); // crossing: held to heal instant
        eps[0].send(ProcessId::new(3), 2); // same side: immediate
        let (_, v) = eps[2].recv_timeout(Duration::from_millis(5)).unwrap();
        assert_eq!(v, 2);
        // The crossing message is still delivered (reliability) — at the
        // heal instant on the virtual clock, which pop order realizes.
        let (_, v) = eps[1].recv_timeout(Duration::from_millis(50)).unwrap();
        assert_eq!(v, 1, "partitioned traffic arrives after the heal");
    }

    #[test]
    fn hold_back_releases_after_replies_reach_the_writer() {
        use crate::adversary::AdversaryPolicy;
        let (p1, p2, p3) = (ProcessId::new(1), ProcessId::new(2), ProcessId::new(3));
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::instant(),
            AdversaryPolicy::hold_back(p1, p2, 2),
        );
        eps[0].send(p2, 7); // penned until two replies reach the writer
        eps[2].send(p1, 30);
        eps[2].send(p1, 31);
        assert_eq!(eps[0].recv_timeout(Duration::from_secs(1)).unwrap(), (p3, 30));
        assert_eq!(eps[0].recv_timeout(Duration::from_secs(1)).unwrap(), (p3, 31));
        // The second delivery to the writer met the threshold: flushed.
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap(),
            (p1, 7),
            "pen releases once the quorum of replies formed"
        );
    }

    #[test]
    fn writer_self_traffic_does_not_release_a_hold() {
        use crate::adversary::AdversaryPolicy;
        let (p1, p2, p3) = (ProcessId::new(1), ProcessId::new(2), ProcessId::new(3));
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::instant(),
            AdversaryPolicy::hold_back(p1, p2, 1),
        );
        eps[0].send(p2, 7); // penned
                            // The SWMR writer broadcasts to itself too; a self-copy delivery
                            // must not count as a "reply" or the stale-quorum schedule would
                            // dissolve before any other process responded.
        eps[0].send(p1, 1);
        assert_eq!(eps[0].recv_timeout(Duration::from_secs(1)).unwrap(), (p1, 1));
        eps[2].send(p2, 8);
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap(),
            (p3, 8),
            "pen survived the writer's self-delivery"
        );
        // One genuine third-party reply releases it.
        eps[2].send(p1, 2);
        assert_eq!(eps[0].recv_timeout(Duration::from_secs(1)).unwrap(), (p3, 2));
        assert_eq!(eps[1].recv_timeout(Duration::from_secs(1)).unwrap(), (p1, 7));
    }

    #[test]
    fn unrelated_timeouts_do_not_release_other_destinations_pens() {
        use crate::adversary::AdversaryPolicy;
        let (p1, p2, p3) = (ProcessId::new(1), ProcessId::new(2), ProcessId::new(3));
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::instant(),
            AdversaryPolicy::hold_back(p1, p2, 5),
        );
        eps[0].send(p2, 7); // penned
                            // p3's wall-clock timeout must not flush a pen addressed to p2 —
                            // otherwise any endpoint polling an empty queue (e.g. a Byzantine
                            // observer) would silently neuter hold tactics network-wide.
        assert!(eps[2].recv_timeout(Duration::from_millis(10)).is_none());
        eps[2].send(p2, 8); // direct traffic to the victim, sent later
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap(),
            (p3, 8),
            "the later direct message arrives first: the pen was still intact"
        );
        assert_eq!(
            eps[1].recv_timeout(Duration::from_millis(50)).unwrap(),
            (p1, 7),
            "the victim's own timeout fallback heals its pen"
        );
    }

    #[test]
    fn held_messages_are_not_lost_when_traffic_drains() {
        use crate::adversary::AdversaryPolicy;
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        let eps = adversarial_network::<u32>(
            3,
            NetConfig::instant(),
            AdversaryPolicy::hold_back(p1, p2, 5),
        );
        eps[0].send(p2, 9); // penned; no reply traffic will ever come
                            // The victim's recv timeout flushes the pens (reliability fallback).
        assert_eq!(eps[1].recv_timeout(Duration::from_millis(20)).unwrap(), (p1, 9));
    }

    #[test]
    fn dropping_unread_traffic_moves_no_other_delivery() {
        // p1 and p4 interleave sends to p2 and p3 under jitter. Marking p3
        // unread empties its queue and leaves p2's delivery order as it
        // was: each dropped send still drew its seq, jitter index and
        // link-clock floor.
        let receive_at_p2 = |drop_p3: bool| {
            let net = Net::<u32>::new(
                4,
                NetConfig::jittery(Duration::from_millis(3), 5),
                AdversaryPolicy::none(),
                true,
            );
            let eps: Vec<_> = (1..=4).map(|i| net.endpoint(ProcessId::new(i), true)).collect();
            if drop_p3 {
                net.set_unread(ProcessId::new(3), true);
            }
            for i in 0..24u32 {
                for sender in [0, 3] {
                    eps[sender].send(ProcessId::new(2 + (i as usize % 2)), i);
                    eps[sender].send(ProcessId::new(2), 100 + i);
                }
            }
            let p3_queue = net.queued_for(ProcessId::new(3));
            let mut got = Vec::new();
            while let Some(pair) = eps[1].recv_timeout(Duration::from_millis(5)) {
                got.push(pair);
            }
            (got, p3_queue)
        };
        let (kept, queued) = receive_at_p2(false);
        let (dropped, unread_queue) = receive_at_p2(true);
        assert_eq!(queued, 24, "a read destination keeps its traffic");
        assert_eq!(unread_queue, 0, "an unread destination keeps nothing");
        assert_eq!(kept.len(), 72);
        assert_eq!(kept, dropped, "the drop must not move any other delivery");
    }

    #[test]
    fn jitter_reorders_across_links_but_not_within() {
        let order = traced_run(11);
        let from_p1: Vec<u32> =
            order.iter().filter(|(f, _)| *f == ProcessId::new(1)).map(|(_, v)| *v).collect();
        assert_eq!(from_p1, (0..32).collect::<Vec<_>>(), "per-link FIFO");
        let first_batch: Vec<ProcessId> = order.iter().take(8).map(|(f, _)| *f).collect();
        assert!(
            first_batch.iter().any(|f| *f == ProcessId::new(2)),
            "jitter should interleave the two senders, got {first_batch:?}"
        );
    }
}
