//! The shared §5.1 quorum machinery of Algorithms 1–3.
//!
//! All three register families are built from the same skeleton:
//!
//! * a matrix of SWSR *reply* registers `R_{j,k}` (helper `p_j` → asker
//!   `p_k`) and per-reader *asker* round counters `C_k` — installed by
//!   [`QuorumFabric`], read through a [`FabricView`] and written through
//!   each process's [`FabricPorts`]; a per-instance skeleton hands every
//!   role its ports under the handle rules all three families share;
//! * the `set0`/`set1` voting loop a reader runs over its reply column —
//!   the one engine [`quorum_groups`], instantiated as [`verify_groups`]
//!   by every `Verify(−)` of Algorithms 1–2 (single, batched, and fused
//!   across register instances) and by the sticky `Read` of Algorithm 3;
//! * the helper-side asker/`prev_ck` handshake — [`AskerTracker`].
//!
//! §5.1 explains the voting mechanism: a reader proceeds in rounds; in each
//! round it bumps its asker register `C_k` and waits for *one* fresh reply
//! from any process outside `set0 ∪ set1`. An affirmative reply moves the
//! helper into `set1` **and resets `set0`**, giving dissenters the
//! opportunity to re-check; a dissent adds the helper to `set0`. `set1` is
//! non-decreasing, which is what makes the relay property stick.

use std::collections::BTreeSet;

use byzreg_runtime::{
    gate, AskGuard, Env, HelpDemand, HelpShard, HelpTask, ProcessId, ReadPort, RegisterFactory,
    Result, Roles, System, Value, WritePort,
};

use parking_lot::Mutex;

/// A reply payload tagged with the asker round it answers (`⟨−, c_j⟩`).
pub type Tagged<W> = (W, u64);

/// A helper's reply register content for Algorithms 1–2: the set of values
/// it currently witnesses, tagged with the asker round (`⟨r_j, c_j⟩`).
pub type Reply<V> = Tagged<BTreeSet<V>>;

/// How the voting engine classifies one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ballot {
    /// The reply supports the asker's hypothesis: the helper joins `set1`
    /// and `set0` is reset (Alg. 1 lines 18–20).
    Affirm,
    /// The reply opposes it: the helper joins `set0` (lines 21–22).
    Dissent,
}

/// The reader-side §5.1 engine handles of one register instance: ports of
/// the reader's asker counter `C_k` and reply column `R_{j,k}`, plus the
/// instance's help-shard demand handle.
///
/// Every reader handle keeps one and runs its quorum decisions through
/// [`quorum_groups`]; passing several of one reader's handles to one run
/// (the reader handle *is* the reader's capability — the asker counter is
/// the reader's own write port) fuses decisions **across register
/// instances**.
pub struct EngineParts<W> {
    /// The reader's asker round counter `C_k` of this instance.
    pub ck: WritePort<u64>,
    /// The reader's reply column `R_{j,k}` of this instance, one port per
    /// process `p_j`.
    pub replies: Vec<ReadPort<Tagged<W>>>,
    /// The demand handle of the instance's help shard: a run asks on every
    /// instance it touches, so exactly the right shards' engines wake, and
    /// they tick an instance while the run awaits a reply from it.
    pub demand: HelpDemand,
    /// Per helper `p_j`: the version of `R_{j,k}` at the last read of it by
    /// any run, and the timestamp that read returned (see
    /// [`quorum_groups`]). Only the handle's own runs lock it.
    seen: Mutex<Vec<Option<(u64, u64)>>>,
}

impl<W> EngineParts<W> {
    /// The engine handles over the asker counter `ck`, the reply column
    /// `replies` and the instance's help-shard `demand`.
    #[must_use]
    pub fn new(ck: WritePort<u64>, replies: Vec<ReadPort<Tagged<W>>>, demand: HelpDemand) -> Self {
        let seen = Mutex::new(vec![None; replies.len()]);
        EngineParts { ck, replies, demand, seen }
    }
}

/// Per-group voting state of a [`quorum_groups`] run.
struct GroupState<T> {
    set1: Vec<Vec<bool>>,
    set0: Vec<Vec<bool>>,
    n1: Vec<usize>,
    n0: Vec<usize>,
    outcome: Vec<Option<T>>,
    pending: usize,
}

/// The §5.1 round engine: every quorum decision in this crate runs here.
///
/// `groups` lists register instances of one reader `p_k` of `env`, each
/// with the number of *items* (independent voting loops) to decide against
/// it. Item `i` of group `g` keeps its own `set1`/`set0`; `tally(g, i, j,
/// reply)` classifies helper `p_{j+1}`'s fresh reply for it, and `decide(g,
/// i, n1, n0)` inspects the updated tallies — the sizes of `set1` and
/// `set0` — after every classification. [`Ballot::Affirm`] resets `set0`,
/// so dissenters are re-asked after every affirmation; `set1` only ever
/// grows. Returns one outcome vector per group, in group order.
///
/// Each shared round bumps every still-undecided group's `C_k` (Alg. 1
/// line 13) and then harvests **one** fresh reply per such group, from a
/// helper that some undecided item of the group has not yet classified
/// (lines 14–17). That one physical reply feeds every item that would
/// still accept it (lines 18–22), then the decision rule runs (lines
/// 23–24; Alg. 3 lines 20–22).
///
/// The groups share one logical asker counter: a bump writes the maximum
/// of the group's next value and the highest value issued so far, so
/// from the second round on every group's `C_k` carries the same cursor.
/// A single group therefore bumps exactly as Alg. 1 line 13 (`C_k <- C_k +
/// 1`) and reads exactly the registers the paper's loop reads. Per item,
/// the observed execution is a valid run of the single-value loop:
/// helpers only require `C_k` to increase, a reply is fresh iff it answers
/// the item's current bump, and extra bumps in between are
/// indistinguishable from scheduling delay — so the §5.1 safety and
/// termination arguments carry over unchanged. The win is wall-clock: `m`
/// values of one register cost one round sequence instead of `m`, and a
/// run over many registers waits for the slowest group's rounds, not the
/// sum.
///
/// The spin reads only what changed: a reply register whose write version
/// has not moved since it was last read stale is not read again (see
/// `ReadPort::version`). Rounds and decisions are those of a run in which
/// that read was merely delayed. The memory of those reads lives in the
/// reader's [`EngineParts`], so it carries over from one run to the next:
/// the silent helper's never-written `R_{j,k}` is read once per handle, not
/// once per run. That is sound across runs because `C_k` only grows. Each
/// bump writes a value above `C_k`'s last one, and only its owner writes
/// it, so every later run's `my_ck` exceeds every earlier run's. A
/// timestamp that was stale for an earlier run's round is therefore stale
/// for every later round, and while the version has not moved the register
/// still holds that timestamp.
///
/// The run tells each touched instance's help shard when it needs helpers
/// (`HelpDemand::ask`): a group's guard counts as awaiting from right after
/// each bump of its `C_k` until its fresh reply is harvested, and dropping
/// the guards takes the counts back on every exit path, `Err(Shutdown)`
/// included. The engine ticks the instance's `Help()` tasks only while a
/// round awaits, one answering helper per sweep, from a rotating start.
/// This changes no line of the loop, threshold or round: a helper not
/// ticked is a slow helper, which samples `C_k` later and answers a later
/// round. And while a round awaits, every correct helper is ticked within
/// as many sweeps as the instance has tasks, so every correct helper
/// answers the current round, as the §5.1 termination argument needs; a
/// helper whose answer the round does not use (it is in `set1` or `set0`
/// already) only ends its sweep, and the next sweep starts after it.
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn quorum_groups<W: Value, T>(
    env: &Env,
    groups: &[(&EngineParts<W>, usize)],
    mut tally: impl FnMut(usize, usize, usize, &W) -> Ballot,
    mut decide: impl FnMut(usize, usize, usize, usize) -> Option<T>,
) -> Result<Vec<Vec<T>>> {
    let n = env.n();
    // Ask on every touched instance for the whole run; a group with no
    // items needs no helping. Dropping a guard, on any exit path, takes
    // back its count.
    let mut asks: Vec<Option<AskGuard>> =
        groups.iter().map(|&(p, items)| (items > 0).then(|| p.demand.ask())).collect();
    let mut states: Vec<GroupState<T>> = groups
        .iter()
        .map(|&(_, items)| GroupState {
            set1: vec![vec![false; n]; items],
            set0: vec![vec![false; n]; items],
            n1: vec![0; items],
            n0: vec![0; items],
            outcome: (0..items).map(|_| None).collect(),
            pending: items,
        })
        .collect();
    let mut pending_total: usize = states.iter().map(|s| s.pending).sum();
    let mut my_ck = vec![0u64; groups.len()];
    let mut cursor = 0u64;

    // Alg. 1 line 12: while true (each iteration is a "round").
    while pending_total > 0 {
        env.check_running()?;
        // Line 13: Ck <- Ck + 1, one logical bump fanned out to every
        // pending group (owner RMW; see register::update docs).
        let mut target = cursor + 1;
        for (g, s) in states.iter().enumerate() {
            if s.pending > 0 {
                my_ck[g] = groups[g].0.ck.update(|c| {
                    *c = (*c + 1).max(target);
                    *c
                });
                target = my_ck[g];
                asks[g].as_mut().expect("a pending group has items").await_reply();
            }
        }
        cursor = target;
        // A helper is relevant to a group while some undecided item has not
        // classified it. The sets only change once the group's reply for
        // this round is processed, after which the group leaves the spin,
        // so computing this once per round keeps each spin pass O(n).
        let relevant: Vec<Vec<bool>> = states
            .iter()
            .map(|s| {
                (0..n)
                    .map(|j| {
                        (0..s.outcome.len())
                            .any(|i| s.outcome[i].is_none() && !s.set1[i][j] && !s.set0[i][j])
                    })
                    .collect()
            })
            .collect();
        let mut need: Vec<bool> = states.iter().map(|s| s.pending > 0).collect();
        let mut remaining = need.iter().filter(|x| **x).count();
        while remaining > 0 {
            env.check_running()?;
            let before = remaining;
            let mut read_any = false;
            for (g, &(parts, _)) in groups.iter().enumerate() {
                if !need[g] {
                    continue;
                }
                // Lines 14-17: read R_{j,k} of every relevant p_j until one
                // carries a timestamp >= Ck. A register whose version has
                // not moved since it was read stale is still stale (see
                // `ReadPort::version`): that read is skipped. The lock is
                // held for one pass over one group, so a handle listed
                // twice cannot deadlock its own run.
                let mut seen = parts.seen.lock();
                let fresh = (0..n).filter(|&j| relevant[g][j]).find_map(|j| {
                    let port = &parts.replies[j];
                    let version = port.version();
                    if matches!(seen[j], Some((v, c_j)) if v == version && c_j < my_ck[g]) {
                        return None;
                    }
                    let (r_j, c_j) = port.read();
                    read_any = true;
                    seen[j] = Some((version, c_j));
                    (c_j >= my_ck[g]).then_some((j, r_j))
                });
                drop(seen);
                let Some((j, r_j)) = fresh else { continue };
                asks[g].as_mut().expect("a pending group has items").replied();
                let s = &mut states[g];
                for i in 0..s.outcome.len() {
                    if s.outcome[i].is_some() || s.set1[i][j] || s.set0[i][j] {
                        continue;
                    }
                    match tally(g, i, j, &r_j) {
                        Ballot::Affirm => {
                            // Lines 18-20: set1 <- set1 ∪ {pj}; set0 <- ∅.
                            s.set1[i][j] = true;
                            s.n1[i] += 1;
                            s.set0[i] = vec![false; n];
                            s.n0[i] = 0;
                        }
                        Ballot::Dissent => {
                            // Lines 21-22: set0 <- set0 ∪ {pj}.
                            s.set0[i][j] = true;
                            s.n0[i] += 1;
                        }
                    }
                    // Lines 23-24 (and Alg. 3 lines 20-22): the decision rule.
                    if let Some(t) = decide(g, i, s.n1[i], s.n0[i]) {
                        s.outcome[i] = Some(t);
                        s.pending -= 1;
                        pending_total -= 1;
                    }
                }
                need[g] = false;
                remaining -= 1;
            }
            if remaining == before {
                // Nothing fresh in this pass: the replies come from help
                // engines that may be waiting for this very core. A pass
                // that read nothing still takes one step, so a lockstep
                // schedule can move on to the helpers.
                if !read_any {
                    gate::idle_step(&env.gate());
                }
                std::thread::yield_now();
            }
        }
    }
    Ok(states
        .into_iter()
        .map(|s| s.outcome.into_iter().map(|t| t.expect("all items decided")).collect())
        .collect())
}

/// `Verify` over [`quorum_groups`] (Alg. 1 lines 11–24, Alg. 2 lines
/// 10–23): group `g` checks each value of `groups[g].1` against the
/// helpers' witness sets; `|set1| ≥ n − f` decides `true`, `|set0| > f`
/// decides `false`. One group with one value is a single `Verify`; the
/// authenticated `Read`'s internal `Verify(−)`, a reader's `verify_many`
/// and the keyed store's fused cross-key batch are the same call.
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn verify_groups<V: Value>(
    env: &Env,
    groups: &[(&EngineParts<BTreeSet<V>>, &[V])],
) -> Result<Vec<Vec<bool>>> {
    let (n, f) = (env.n(), env.f());
    let shape: Vec<_> = groups.iter().map(|&(parts, vs)| (parts, vs.len())).collect();
    quorum_groups(
        env,
        &shape,
        |g, i, _, r_j| if r_j.contains(&groups[g].1[i]) { Ballot::Affirm } else { Ballot::Dissent },
        |_, _, n1, n0| {
            if n1 >= n - f {
                Some(true)
            } else if n0 > f {
                Some(false)
            } else {
                None
            }
        },
    )
}

/// Tracks the asker/`prev_ck` handshake of the `Help()` procedures
/// (Alg. 1 lines 25–28/36, Alg. 2 lines 24–27/38, Alg. 3 lines 23/31–32/40).
#[derive(Debug)]
pub struct AskerTracker {
    readers: Vec<Asker>,
}

/// What a helper keeps of one reader's `C_k`.
#[derive(Clone, Copy, Debug)]
struct Asker {
    /// The last acknowledged round.
    prev_ck: u64,
    /// The version of `C_k` at the last read (`u64::MAX` before the first),
    /// and the value that read returned.
    version: u64,
    ck: u64,
}

impl AskerTracker {
    /// Creates a tracker for `readers` readers, with every `prev_ck = 0`.
    #[must_use]
    pub fn new(readers: usize) -> Self {
        AskerTracker { readers: vec![Asker { prev_ck: 0, version: u64::MAX, ck: 0 }; readers] }
    }

    /// Samples every `C_k` and returns `(ck, askers)`: the sampled counters and
    /// the (0-based) reader indices whose counter increased since the last
    /// acknowledged round. A `C_k` whose version has not moved since the last
    /// poll read it is not read again: the read would return the same value
    /// (see `ReadPort::version`).
    pub fn poll(&mut self, c: &[ReadPort<u64>]) -> (Vec<u64>, Vec<usize>) {
        let mut askers = Vec::new();
        let ck = c
            .iter()
            .zip(&mut self.readers)
            .enumerate()
            .map(|(k, (port, reader))| {
                let version = port.version();
                if version != reader.version {
                    reader.ck = port.read();
                    reader.version = version;
                }
                if reader.ck > reader.prev_ck {
                    askers.push(k);
                }
                reader.ck
            })
            .collect();
        (ck, askers)
    }

    /// Acknowledges that reader `k` was helped at round `ck` (line 36/38/40:
    /// `prev_ck <- ck`).
    pub fn acknowledge(&mut self, k: usize, ck: u64) {
        self.readers[k].prev_ck = ck;
    }

    /// Answers every pending asker with `reply` and acknowledges the served
    /// rounds (the lines 34–36 / 36–38 / 38–40 epilogue of every `Help()`).
    /// Returns whether it answered anyone: the tick's result for the help
    /// engine (see `HelpTask::tick`).
    pub fn serve<W: Value>(
        &mut self,
        replies_w: &[WritePort<Tagged<W>>],
        ck: &[u64],
        askers: &[usize],
        reply: &W,
    ) -> bool {
        for &k in askers {
            replies_w[k].write((reply.clone(), ck[k]));
            self.acknowledge(k, ck[k]);
        }
        !askers.is_empty()
    }
}

/// The write versions of the registers a `Help()` body reads, as sampled
/// before its last full run, kept as their sum: versions never decrease, so
/// the sum is unchanged exactly when every version is. While none has moved,
/// a re-run would read what the last run read (see `ReadPort::version`) and
/// so change nothing.
#[derive(Debug, Default)]
pub(crate) struct Inputs(Option<u64>);

impl Inputs {
    /// Samples `versions` (before the body reads) and records them. Returns
    /// whether the body must run: `false` iff no version moved since the
    /// last sample.
    pub(crate) fn moved(&mut self, versions: impl IntoIterator<Item = u64>) -> bool {
        let now = Some(versions.into_iter().sum());
        std::mem::replace(&mut self.0, now) != now
    }
}

/// The witness update of helper `p_j` (Alg. 1 lines 31–33, Alg. 2 lines
/// 33–35). `sets` is what the tick just read: `sets[0]` is the writer's
/// set (Alg. 1's `R_1`, the values of Alg. 2's `R1`) and `sets[own]` is
/// `R_j` itself. A value qualifies if it is in `sets[0]` or in at least
/// `f + 1` of the sets. Every qualifying value `R_j` lacks goes into `R_j`
/// in **one** owner RMW, and no step is taken when there is none. The
/// returned `r_j` is that RMW's result, or the read `sets[own]` when
/// nothing was added: no second read.
///
/// The protocol is unchanged. Only the owner writes `R_j`, so `sets[own]`
/// equals what a read of `R_j` returns; a union with a value already
/// present changes nothing; and merging the remaining unions into one RMW
/// is indistinguishable from a schedule in which no reader read `R_j`
/// between them. (Alg. 1's writer also inserts into `R_1` from `Sign`; the
/// RMW still unions atomically, and a `Sign` that finished before an
/// asker's round began is in any read of `R_1` this tick makes.) Either
/// `r_j` is `R_j`'s content at a step after the tick sampled `C_k`, which
/// is all a fresh reply needs.
pub(crate) fn witness_update<V: Value>(
    witness_w: &WritePort<BTreeSet<V>>,
    mut sets: Vec<BTreeSet<V>>,
    own: usize,
    f: usize,
) -> BTreeSet<V> {
    let r_j = &sets[own];
    let candidates: BTreeSet<&V> = sets.iter().flatten().filter(|v| !r_j.contains(*v)).collect();
    let new: Vec<V> = candidates
        .into_iter()
        .filter(|v| sets[0].contains(*v) || sets.iter().filter(|s| s.contains(*v)).count() > f)
        .cloned()
        .collect();
    let r_j = sets.swap_remove(own);
    if new.is_empty() {
        return r_j;
    }
    witness_w.update(|set| {
        set.extend(new);
        set.clone()
    })
}

/// The read side of one instance's §5.1 fabric: the reply matrix and the
/// asker counters. Everyone (adversaries included) may hold it; every
/// family's `SharedPorts` embeds one.
#[derive(Clone)]
pub struct FabricView<W> {
    /// `R_{j,k}`: `replies[j][k]` is role `j + 1`'s register for reader
    /// role `k + 2`.
    pub replies: Vec<Vec<ReadPort<Tagged<W>>>>,
    /// `C_k` for reader roles `2..=n` (index `role - 2`).
    pub askers: Vec<ReadPort<u64>>,
}

impl<W> FabricView<W> {
    /// Reader `role`'s reply column (`R_{j,role}` for every `j`): the
    /// registers its quorum loop reads.
    #[must_use]
    pub(crate) fn reply_column(&self, role: usize) -> Vec<ReadPort<Tagged<W>>> {
        self.replies.iter().map(|row| row[role - 2].clone()).collect()
    }
}

/// The fabric write ports one process owns: its reply row and, for a
/// reader, its asker counter.
pub struct FabricPorts<W> {
    /// `R_{j,k}` of this process's role `j`, for every reader role `k`
    /// (index `k - 2`).
    pub replies: Vec<WritePort<Tagged<W>>>,
    /// `C_j` — present only for readers.
    pub asker: Option<WritePort<u64>>,
}

impl<W: Value> FabricPorts<W> {
    /// Answers every reader's current asker round with `w`: for each reader
    /// `k`, reads `C_k` and writes `⟨w, C_k⟩` into `R_{j,k}`.
    pub fn reply_all(&self, view: &FabricView<W>, w: &W) {
        for (reply, ck) in self.replies.iter().zip(&view.askers) {
            reply.write((w.clone(), ck.read()));
        }
    }
}

/// The reply-and-asker register fabric every register family installs: the
/// SWSR reply matrix `R_{j,k}` (initially `⟨init, 0⟩`) and the reader round
/// counters `C_k` (initially 0), with owners assigned through `roles`.
pub struct QuorumFabric<W> {
    /// The read side.
    pub view: FabricView<W>,
    /// Each role's write side (index `role - 1`).
    pub ports: Vec<FabricPorts<W>>,
}

impl<W: Value> QuorumFabric<W> {
    /// Installs the fabric for the `roles.n()` processes of `env`, sourcing
    /// base registers from `factory`: every `R_{j,k}` row by row, then every
    /// `C_k`.
    pub fn install<F: RegisterFactory>(env: &Env, factory: &F, roles: &Roles, init: W) -> Self {
        let n = roles.n();
        let mut replies = Vec::with_capacity(n);
        let mut ports = Vec::with_capacity(n);
        for j in 1..=n {
            let (row_w, row_r) = (2..=n)
                .map(|k| {
                    let name = format!("R[{j},{k}]");
                    factory.create(env, roles.actual(j), name, (init.clone(), 0u64))
                })
                .unzip();
            replies.push(row_r);
            ports.push(FabricPorts { replies: row_w, asker: None });
        }
        let (asker_w, askers): (Vec<_>, _) =
            (2..=n).map(|k| factory.create(env, roles.actual(k), format!("C[{k}]"), 0u64)).unzip();
        for (port, c) in ports[1..].iter_mut().zip(asker_w) {
            port.asker = Some(c);
        }
        QuorumFabric { view: FabricView { replies, askers }, ports }
    }
}

/// The instance skeleton all three register families share: the
/// instance's environment, role mapping and help-shard demand, and every
/// role's take-once ports — the family's own write ports `P` beside the
/// role's [`FabricPorts`]. Its takes carry the handle rules: one writer
/// handle, one handle per reader, handles only for correct processes and
/// attack ports only for declared-Byzantine ones.
pub(crate) struct Instance<W, P> {
    pub(crate) env: Env,
    pub(crate) roles: Roles,
    /// The demand handle of the instance's help shard; reader handles'
    /// quorum runs ask on it (see [`quorum_groups`]).
    pub(crate) demand: HelpDemand,
    /// Every role's ports (index `role - 1`), each taken at most once.
    ports: Mutex<Vec<Option<RolePorts<W, P>>>>,
}

/// All ports one role owns: the family's own, then the fabric's.
type RolePorts<W, P> = (P, FabricPorts<W>);

impl<W: Value, P> Instance<W, P> {
    /// Attaches `help(role, own, reply_row)` as the `Help()` task of every
    /// role's process on `shard` (the system drops the tasks of
    /// declared-Byzantine processes), then keeps the ports for the handles.
    /// `own[role - 1]` and `fabric[role - 1]` hold the family's and the
    /// fabric's write ports of `role` ([`QuorumFabric::ports`]).
    pub(crate) fn new<T: HelpTask>(
        system: &System,
        roles: Roles,
        shard: &HelpShard,
        own: Vec<P>,
        fabric: Vec<FabricPorts<W>>,
        mut help: impl FnMut(usize, &P, Vec<WritePort<Tagged<W>>>) -> T,
    ) -> Self {
        let demand = shard.new_demand();
        for (role, (own, fabric)) in (1..).zip(own.iter().zip(&fabric)) {
            let task = help(role, own, fabric.replies.clone());
            system.add_sharded_help_task(shard, roles.actual(role), &demand, Box::new(task));
        }
        let ports = own.into_iter().zip(fabric).map(Some).collect();
        Instance { env: system.env().clone(), roles, demand, ports: Mutex::new(ports) }
    }

    fn take(&self, role: usize) -> RolePorts<W, P> {
        let taken = self.ports.lock()[role - 1].take();
        taken.unwrap_or_else(|| panic!("ports of {} already taken", self.roles.actual(role)))
    }

    /// The writer's pid and own ports, for its handle.
    ///
    /// # Panics
    ///
    /// Panics if the writer is declared Byzantine or was taken before.
    pub(crate) fn writer(&self) -> (ProcessId, P) {
        let pid = self.roles.writer();
        assert!(!self.env.is_faulty(pid), "{pid} is Byzantine; take attack_ports({pid}) instead");
        (pid, self.take(1).0)
    }

    /// Reader `pid`'s §5.1 engine handles, reading its column of `view`
    /// (the instance's [`QuorumFabric::view`]).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer, is declared Byzantine, or was taken
    /// before.
    pub(crate) fn reader(&self, pid: ProcessId, view: &FabricView<W>) -> EngineParts<W> {
        let role = self.roles.role_of(pid);
        assert!(role != 1, "{pid} is the writer, not a reader");
        assert!(!self.env.is_faulty(pid), "{pid} is Byzantine; take attack_ports({pid}) instead");
        let (_, fabric) = self.take(role);
        EngineParts::new(
            fabric.asker.expect("reader ports"),
            view.reply_column(role),
            self.demand.clone(),
        )
    }

    /// Every port a declared-Byzantine `pid` owns.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct or was taken before.
    pub(crate) fn attacker(&self, pid: ProcessId) -> RolePorts<W, P> {
        assert!(
            self.env.is_faulty(pid),
            "{pid} is correct; only declared-Byzantine processes get attack ports"
        );
        self.take(self.roles.role_of(pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Loads;
    use byzreg_runtime::{register, LocalFactory, ProcessId, System};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn asker_tracker_detects_increases_only() {
        let sys = System::builder(4).build();
        let env = sys.env();
        let mut ports = Vec::new();
        let mut writers = Vec::new();
        for k in 2..=4 {
            let (w, r) = register::swmr(env.gate(), ProcessId::new(k), format!("C{k}"), 0u64);
            writers.push(w);
            ports.push(r);
        }
        let mut t = AskerTracker::new(3);
        let (ck, askers) = t.poll(&ports);
        assert!(askers.is_empty());
        assert_eq!(ck, vec![0, 0, 0]);

        writers[1].write(3);
        let (ck, askers) = t.poll(&ports);
        assert_eq!(askers, vec![1]);
        t.acknowledge(1, ck[1]);
        let (_, askers) = t.poll(&ports);
        assert!(askers.is_empty(), "acknowledged rounds are not re-reported");

        writers[1].write(4);
        writers[0].write(1);
        let (_, askers) = t.poll(&ports);
        assert_eq!(askers, vec![0, 1]);
    }

    #[test]
    fn asker_polls_read_only_moved_counters() {
        let sys = System::builder(4).build();
        let (env, loads) = (sys.env(), Loads::default());
        let (writers, ports): (Vec<_>, Vec<_>) =
            (2..=4).map(|k| loads.create(env, ProcessId::new(k), format!("C{k}"), 0u64)).unzip();
        let mut t = AskerTracker::new(3);
        assert!(t.poll(&ports).1.is_empty());
        let first = loads.all();
        assert_eq!(first.values().sum::<usize>(), 3, "the first poll reads every C_k");
        assert!(t.poll(&ports).1.is_empty());
        assert!(loads.since(&first).is_empty(), "no C_k moved: no load");
        writers[2].write(5);
        let (ck, askers) = t.poll(&ports);
        assert_eq!((ck, askers), (vec![0, 0, 5], vec![2]));
        assert_eq!(loads.since(&first), [("C4".to_owned(), 1)].into());
    }

    #[test]
    fn the_spin_rereads_only_moved_reply_registers() {
        // Reader p2 verifies 7 against a column nobody has answered. Its
        // first pass reads all four R_{j,2}; then, until a helper writes,
        // every pass reads nothing and takes one idle gate step.
        let sys = System::builder(4).build();
        let (env, loads) = (sys.env(), Loads::default());
        let p = ProcessId::new;
        let (ck, ck_r) = loads.create(env, p(2), "C".into(), 0u64);
        let (reply_w, replies): (Vec<_>, Vec<_>) = (1..=4)
            .map(|j| loads.create(env, p(j), format!("R{j}"), (BTreeSet::<u32>::new(), 0)))
            .unzip();
        let parts = EngineParts::new(ck, replies, sys.new_help_shard().new_demand());
        let reply_loads = || (1..=4).map(|j| loads.of(&format!("R{j}"))).sum::<usize>();
        // Waits until `cond` holds, then for 100 more gate steps.
        let settle = |cond: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !cond() {
                assert!(std::time::Instant::now() < deadline, "the reader made no progress");
                std::thread::yield_now();
            }
            let steps = env.gate().steps();
            while env.gate().steps() < steps + 100 {
                assert!(std::time::Instant::now() < deadline, "an empty pass took no step");
                std::thread::yield_now();
            }
        };
        let got = std::thread::scope(|scope| {
            let run = scope.spawn(|| env.run_as(p(2), || verify_groups(env, &[(&parts, &[7])])));
            // A failed assert below shuts the system down, ending the run.
            let _shutdown = ShutdownOnDrop(&sys);
            settle(&|| reply_loads() == 4);
            assert_eq!(reply_loads(), 4, "unwritten reply registers are not re-read");
            // One helper answers round 1: exactly one more load. In round 2
            // that helper is no longer relevant and the others did not move.
            reply_w[0].write(([7].into(), 1));
            settle(&|| ck_r.version() == 2);
            assert_eq!((reply_loads(), loads.of("R1")), (5, 2));
            for w in &reply_w[1..3] {
                w.write(([7].into(), u64::MAX));
            }
            run.join().unwrap()
        });
        assert_eq!(got.unwrap(), vec![vec![true]]);
        assert_eq!(reply_loads(), 7, "each later answer is read once; R4 never again");
    }

    #[test]
    fn the_skip_memory_outlives_one_run() {
        // p4 is silent, so its reply register R[4,2] is never written: once
        // one of p2's verifies has read it stale, no later run reads it.
        let sys = System::builder(4).byzantine(ProcessId::new(4)).build();
        let loads = Loads::default();
        let reg = crate::authenticated::AuthenticatedRegister::install_in_shard(
            &sys,
            0u32,
            &loads,
            &sys.new_help_shard(),
            ProcessId::new(1),
        );
        reg.writer().write(7).unwrap();
        let mut reader = reg.reader(ProcessId::new(2));
        let mut runs = 0;
        while loads.of("R[4,2]") == 0 {
            assert!(runs < 100, "no verify read R[4,2] in {runs} runs");
            assert!(reader.verify(&7).unwrap());
            runs += 1;
        }
        assert_eq!(loads.of("R[4,2]"), 1);
        assert!(reader.verify(&7).unwrap());
        assert_eq!(loads.of("R[4,2]"), 1, "the second run made no load of R[4,2]");
        for _ in 0..10 {
            assert!(!reader.verify(&8).unwrap());
            assert_eq!(reader.read().unwrap(), 7);
        }
        assert_eq!(loads.of("R[4,2]"), 1, "nor did any later run");
        sys.shutdown();
    }

    /// Reader `p2`'s engine handles over a reply column whose helper `p_j`
    /// holds `reply(j)`, plus a read port of its asker counter.
    fn column<W: Value>(
        sys: &System,
        tag: &str,
        reply: impl Fn(usize) -> Tagged<W>,
    ) -> (EngineParts<W>, ReadPort<u64>) {
        let env = sys.env();
        let (ck, ck_r) = register::swmr(env.gate(), ProcessId::new(2), format!("C{tag}"), 0u64);
        let replies = (1..=env.n())
            .map(|j| {
                register::swmr(env.gate(), ProcessId::new(j), format!("R{j}{tag}"), reply(j)).1
            })
            .collect();
        (EngineParts::new(ck, replies, sys.new_help_shard().new_demand()), ck_r)
    }

    /// A ready-to-answer column: every helper witnesses `witnessed` at a
    /// huge timestamp, so the loop decides without any helper running.
    fn ready(sys: &System, tag: &str, witnessed: &[u32]) -> EngineParts<BTreeSet<u32>> {
        column(sys, tag, |_| (witnessed.iter().copied().collect(), u64::MAX)).0
    }

    /// A column nobody ever answers (stale timestamps).
    fn stale(sys: &System, tag: &str) -> EngineParts<BTreeSet<u32>> {
        column(sys, tag, |_| (BTreeSet::new(), 0)).0
    }

    /// Runs `verify_groups` as reader `p2` and returns its outcomes and the
    /// gate steps it took.
    fn run(
        sys: &System,
        groups: &[(&EngineParts<BTreeSet<u32>>, &[u32])],
    ) -> (Result<Vec<Vec<bool>>>, u64) {
        let env = sys.env();
        let before = env.gate().steps();
        let got = env.run_as(ProcessId::new(2), || verify_groups(env, groups));
        (got, env.gate().steps() - before)
    }

    #[test]
    fn verify_true_with_full_witness_sets() {
        // n = 4, f = 1: three rounds of one C_k bump and one reply read
        // each decide `true` — 6 steps. No C_k read precedes the first
        // bump: over MP every access is a protocol round trip.
        let sys = System::builder(4).build();
        let parts = ready(&sys, "2", &[7]);
        let (got, steps) = run(&sys, &[(&parts, &[7])]);
        assert_eq!(got.unwrap(), vec![vec![true]]);
        assert_eq!(steps, 6);
    }

    #[test]
    fn verify_false_when_enough_fresh_noes() {
        let sys = System::builder(4).build();
        let parts = ready(&sys, "2", &[]);
        let (got, _) = run(&sys, &[(&parts, &[7])]);
        assert_eq!(got.unwrap(), vec![vec![false]], "f + 1 = 2 empty replies suffice for false");
    }

    #[test]
    fn verify_aborts_on_shutdown() {
        let sys = System::builder(4).build();
        let one = stale(&sys, "a");
        let other = stale(&sys, "b");
        sys.shutdown();
        assert!(run(&sys, &[(&one, &[7])]).0.is_err());
        assert!(run(&sys, &[(&one, &[7, 8]), (&other, &[9])]).0.is_err());
    }

    #[test]
    fn quorum_groups_supports_non_boolean_decisions() {
        // A sticky-style decision: count per-value affirmations.
        let sys = System::builder(4).build();
        let env = sys.env();
        let (parts, _) = column(&sys, "2", |_| (Some(9u32), u64::MAX));
        let (n, f) = (env.n(), env.f());
        let votes = std::cell::RefCell::new(std::collections::BTreeMap::new());
        let got: Vec<Vec<Option<u32>>> = quorum_groups(
            env,
            &[(&parts, 1)],
            |_, _, _, slot: &Option<u32>| match slot {
                Some(v) => {
                    *votes.borrow_mut().entry(*v).or_insert(0usize) += 1;
                    Ballot::Affirm
                }
                None => Ballot::Dissent,
            },
            |_, _, _n1, n0| {
                if let Some((v, _)) = votes.borrow().iter().find(|(_, c)| **c >= n - f) {
                    return Some(Some(*v));
                }
                (n0 > f).then_some(None)
            },
        )
        .unwrap();
        assert_eq!(got, vec![vec![Some(9)]]);
    }

    #[test]
    fn one_group_decides_each_value_independently() {
        // Replies witness {3, 7} everywhere: 3 and 7 decide true, 9 decides
        // false, all in one shared round sequence.
        let sys = System::builder(4).build();
        let (parts, ck) = column(&sys, "2", |_| ([3u32, 7].into_iter().collect(), u64::MAX));
        let (got, _) = run(&sys, &[(&parts, &[3, 9, 7])]);
        assert_eq!(got.unwrap(), vec![vec![true, false, true]]);
        assert_eq!(ck.read(), 3, "the batch shared three rounds");
    }

    #[test]
    fn empty_runs_take_no_steps() {
        let sys = System::builder(4).build();
        assert!(run(&sys, &[]).0.unwrap().is_empty());
        let (parts, ck) = column(&sys, "a", |_| (BTreeSet::<u32>::new(), 0));
        let (got, steps) = run(&sys, &[(&parts, &[])]);
        assert_eq!(got.unwrap(), vec![Vec::<bool>::new()]);
        assert_eq!((steps, ck.read()), (0, 0), "an all-empty batch runs no rounds");
    }

    #[test]
    fn batched_values_match_single_value_runs() {
        let sys = System::builder(4).build();
        let a = ready(&sys, "a", &[5]);
        let b = ready(&sys, "b", &[5]);
        let batched = run(&sys, &[(&a, &[5, 6])]).0.unwrap();
        let singles: Vec<bool> =
            [5, 6].iter().map(|v| run(&sys, &[(&b, &[*v])]).0.unwrap()[0][0]).collect();
        assert_eq!(batched, vec![singles]);
    }

    #[test]
    fn groups_match_per_register_outcomes_in_fewer_steps() {
        // Both groups decide in three rounds, each round one fanned-out
        // bump and one reply read per group: 12 steps.
        let sys = System::builder(4).build();
        let g1 = ready(&sys, "a", &[3, 7]);
        let g2 = ready(&sys, "b", &[5]);
        let (got, steps) = run(&sys, &[(&g1, &[3, 9, 7]), (&g2, &[5, 3])]);
        assert_eq!(got.unwrap(), vec![vec![true, false, true], vec![true, false]]);
        assert_eq!(steps, 12);
    }

    #[test]
    fn groups_share_one_logical_counter() {
        // The fused engine drives every group's C_k to the *same* cursor
        // value — one logical asker counter per reader, fanned out — even
        // when the groups start from different counter values.
        let sys = System::builder(4).build();
        let (g1, ck1) = column(&sys, "a", |_| ([1u32].into_iter().collect(), u64::MAX));
        let (g2, ck2) = column(&sys, "b", |_| ([2u32].into_iter().collect(), u64::MAX));
        g1.ck.write(17); // a prior per-register history
        let _ = run(&sys, &[(&g1, &[1]), (&g2, &[2, 9])]).0.unwrap();
        assert_eq!(ck1.read(), ck2.read(), "both registers end at the shared cursor");
        assert!(ck1.read() > 17, "the cursor starts above every group's counter");
    }

    /// Helper `p_j`'s `Help()` for reader `p2` of a hand-built column:
    /// while `open` is set, answers every new round of `p2` with `{7}`.
    struct Answering {
        tracker: AskerTracker,
        asker: Vec<ReadPort<u64>>,
        reply: Vec<WritePort<Reply<u32>>>,
        open: Arc<AtomicBool>,
    }

    impl HelpTask for Answering {
        fn tick(&mut self) -> bool {
            if !self.open.load(Ordering::SeqCst) {
                return false;
            }
            let (ck, askers) = self.tracker.poll(&self.asker);
            self.tracker.serve(&self.reply, &ck, &askers, &[7].into())
        }
    }

    /// Reader `p2`'s engine handles over a column whose helpers run
    /// [`Answering`] tasks on a fresh help shard, a read port of its asker
    /// counter, and helper `p_j`'s `open` flag at index `j - 1` (all shut).
    fn helped(sys: &System) -> (EngineParts<BTreeSet<u32>>, ReadPort<u64>, Vec<Arc<AtomicBool>>) {
        let (env, p) = (sys.env(), ProcessId::new);
        let shard = sys.new_help_shard();
        let demand = shard.new_demand();
        let (ck, ck_r) = register::swmr(env.gate(), p(2), "C".to_owned(), 0u64);
        let (replies, open) = (1..=env.n())
            .map(|j| {
                let (w, r) = register::swmr(env.gate(), p(j), format!("R{j}"), Default::default());
                let open = Arc::new(AtomicBool::new(false));
                let task = Answering {
                    tracker: AskerTracker::new(1),
                    asker: vec![ck_r.clone()],
                    reply: vec![w],
                    open: Arc::clone(&open),
                };
                sys.add_sharded_help_task(&shard, p(j), &demand, Box::new(task));
                (r, open)
            })
            .unzip();
        (EngineParts::new(ck, replies, demand), ck_r, open)
    }

    /// Shuts `sys` down when dropped, so a failed assert ends a run that
    /// would otherwise wait forever.
    struct ShutdownOnDrop<'a>(&'a System);

    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Waits until `cond` holds.
    fn until(cond: impl Fn() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_sweep_ended_by_a_helper_already_in_set1_still_decides() {
        // Only p1 answers at first, so it wins round 1. In round 2 its
        // answer is the first of every sweep that answers, and p2's run no
        // longer needs it: p1 is in set1. Once the others open, the next
        // sweeps start after p1 and the run decides.
        let sys = System::builder(4).build();
        let (parts, ck, open) = helped(&sys);
        open[0].store(true, Ordering::SeqCst);
        let got = std::thread::scope(|scope| {
            let run = scope.spawn(|| run(&sys, &[(&parts, &[7])]).0);
            let _shutdown = ShutdownOnDrop(&sys);
            until(|| ck.read() == 2 && parts.replies[0].read().1 == 2, "p1 answered round 2");
            assert_eq!(parts.demand.awaiting(), 1, "p1's answer did not end round 2");
            for flag in &open[1..] {
                flag.store(true, Ordering::SeqCst);
            }
            run.join().unwrap()
        });
        assert_eq!(got.unwrap(), vec![vec![true]]);
        assert_eq!(ck.read(), 3, "three rounds, three distinct helpers");
        assert_eq!(parts.demand.awaiting(), 0);
    }

    #[test]
    fn a_run_ended_by_shutdown_takes_back_its_wait() {
        let sys = System::builder(4).build();
        let (parts, _, _) = helped(&sys);
        let got = std::thread::scope(|scope| {
            let run = scope.spawn(|| run(&sys, &[(&parts, &[7]), (&parts, &[8])]).0);
            let _shutdown = ShutdownOnDrop(&sys);
            until(|| parts.demand.awaiting() == 2, "the run awaits both groups' replies");
            sys.shutdown();
            run.join().unwrap()
        });
        assert!(got.is_err());
        assert_eq!(parts.demand.awaiting(), 0);
        assert!(!parts.demand.is_pending());
    }

    #[test]
    fn two_readers_asking_one_instance_at_once_both_decide() {
        let sys = System::builder(4).build();
        let reg = crate::verifiable::VerifiableRegister::install(&sys, 0u32);
        let mut writer = reg.writer();
        writer.write(7).unwrap();
        assert!(writer.sign(&7).unwrap());
        std::thread::scope(|scope| {
            for pid in [2, 3] {
                let mut reader = reg.reader(ProcessId::new(pid));
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert!(reader.verify(&7).unwrap(), "p{pid}: 7 was signed");
                        assert!(!reader.verify(&8).unwrap(), "p{pid}: 8 was not");
                    }
                });
            }
        });
        sys.shutdown();
    }

    #[test]
    fn fabric_wires_owners_and_names() {
        let sys = System::builder(4).build();
        let roles = Roles::with_writer(4, ProcessId::new(3));
        let fabric =
            QuorumFabric::install(sys.env(), &LocalFactory, &roles, BTreeSet::<u32>::new());
        let view = &fabric.view;
        assert_eq!((view.replies.len(), view.replies[0].len(), view.askers.len()), (4, 3, 3));
        assert_eq!(view.replies[2][0].owner(), ProcessId::new(2), "role 3 is p2");
        assert_eq!(view.replies[2][0].name(), "R[3,2]");
        assert!(fabric.ports[0].asker.is_none(), "the writer has no C_k");
        assert_eq!(fabric.ports[2].asker.as_ref().unwrap().owner(), ProcessId::new(2));
        // A role's reply row feeds the matching entry of every reader's
        // column, and `reply_all` answers each reader's current round.
        fabric.ports[1].replies[1].write((BTreeSet::new(), 5));
        assert_eq!(view.reply_column(3)[1].read().1, 5);
        fabric.ports[2].asker.as_ref().unwrap().write(7);
        fabric.ports[3].reply_all(view, &[1].into_iter().collect());
        let col: Vec<u64> = (2..=4).map(|k| view.reply_column(k)[3].read().1).collect();
        assert_eq!(col, vec![0, 7, 0]);
    }
}
