//! Algorithm 2: a SWMR **authenticated register** from plain SWMR registers,
//! without signatures, for `n > 3f`.
//!
//! Every value written is atomically "signed with the writer's signature"
//! (Definition 15): there is no separate `Sign` operation, and `Verify(v)`
//! returns `true` iff `v` was written (or `v = v0`). Line numbers in
//! comments refer to Algorithm 2 in the paper.
//!
//! Differences from Algorithm 1 (§7.1): the writer keeps a *single* register
//! `R1` holding timestamped tuples `⟨ℓ, v⟩` (no separate `R*`), and `Read`
//! internally runs the `Verify(−)` procedure on the freshest value before
//! returning it — if verification fails (possible only with a Byzantine
//! writer), the read returns `v0`.
//!
//! A Byzantine writer may store *malformed* content in `R1`; the
//! [`WriterRecord::Garbage`] variant models exactly that, and `Read`'s
//! type-check (line 5: "if `r` is a set of tuples of the form `⟨ℓ, v⟩`")
//! is implemented faithfully.
//!
//! # Examples
//!
//! ```
//! use byzreg_core::authenticated::AuthenticatedRegister;
//! use byzreg_runtime::{ProcessId, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = System::builder(4).build();
//! let reg = AuthenticatedRegister::install(&system, 0u64);
//! let mut writer = reg.writer();
//! let mut reader = reg.reader(ProcessId::new(2));
//!
//! writer.write(7)?;
//! assert_eq!(reader.read()?, 7);
//! assert!(reader.verify(&7)?, "writes are atomically signed");
//! assert!(reader.verify(&0)?, "v0 is deemed signed");
//! assert!(!reader.verify(&9)?);
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use byzreg_runtime::{
    Env, HelpShard, HistoryLog, LocalFactory, ProcessId, ReadPort, RegisterFactory, Result, Roles,
    System, Value, WritePort,
};
use byzreg_spec::registers::{AuthInv, AuthResp};

use crate::quorum::{
    verify_groups, witness_update, AskerTracker, EngineParts, FabricPorts, FabricView, Inputs,
    Instance, QuorumFabric, Reply,
};

/// A process's witness set (content of `R_j`, `j ≠ 1`).
pub type WitnessSet<V> = BTreeSet<V>;

/// Content of the writer's register `R1`.
///
/// A correct writer only ever stores [`WriterRecord::Tuples`]; the
/// [`WriterRecord::Garbage`] variant lets a Byzantine writer store content
/// that is *not* "a set of tuples of the form `⟨ℓ, v⟩`", exercising the
/// type-check in `Read` (Alg. 2 line 5).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WriterRecord<V: Ord> {
    /// A set of timestamped values `⟨ℓ, v⟩`.
    Tuples(BTreeSet<(u64, V)>),
    /// Malformed content (the payload is arbitrary adversary-chosen noise).
    Garbage(u64),
}

impl<V: Value> WriterRecord<V> {
    /// The set of values carried by the record (`{v | ⟨−, v⟩ ∈ r}`, line 30);
    /// empty for garbage.
    #[must_use]
    pub fn values(&self) -> BTreeSet<V> {
        match self {
            WriterRecord::Tuples(set) => set.iter().map(|(_, v)| v.clone()).collect(),
            WriterRecord::Garbage(_) => BTreeSet::new(),
        }
    }

    /// The tuple with the greatest `⟨ℓ, v⟩` (footnote 8: lexicographic), if
    /// the record is well-formed and non-empty.
    #[must_use]
    pub fn freshest(&self) -> Option<&(u64, V)> {
        match self {
            WriterRecord::Tuples(set) => set.iter().next_back(),
            WriterRecord::Garbage(_) => None,
        }
    }
}

/// Read-only views of every shared register of one authenticated-register
/// instance.
#[derive(Clone)]
pub struct SharedPorts<V: Ord> {
    /// `R1` — the writer's timestamped-value set.
    pub r1: ReadPort<WriterRecord<V>>,
    /// `R_k` for readers `p2..=pn` (index `pid - 2`); witness sets.
    pub witness: Vec<ReadPort<WitnessSet<V>>>,
    /// The reply registers `R_{j,k}` and asker counters `C_k`.
    pub fabric: FabricView<WitnessSet<V>>,
}

/// Write ports owned by one process, handed to a Byzantine adversary.
pub struct AttackPorts<V: Ord> {
    /// The faulty process.
    pub pid: ProcessId,
    /// `R1` — only for the writer; may be loaded with [`WriterRecord::Garbage`].
    pub r1: Option<WritePort<WriterRecord<V>>>,
    /// `R_pid` — only for readers.
    pub witness: Option<WritePort<WitnessSet<V>>>,
    /// The process's reply row `R_{pid,k}` and, for a reader, `C_pid`.
    pub fabric: FabricPorts<WitnessSet<V>>,
    /// Read access to everything.
    pub shared: SharedPorts<V>,
}

/// One process's write ports besides the fabric: `R1` for the writer, `R_k`
/// for a reader.
type Own<V> = (Option<WritePort<WriterRecord<V>>>, Option<WritePort<WitnessSet<V>>>);

/// One installed authenticated-register instance (Algorithm 2).
pub struct AuthenticatedRegister<V: Ord> {
    core: Instance<WitnessSet<V>, Own<V>>,
    v0: V,
    shared: SharedPorts<V>,
    /// The operation log every handle records into; it records only on an
    /// instance built by `install`.
    log: HistoryLog<AuthInv<V>, AuthResp<V>>,
}

impl<V: Value> AuthenticatedRegister<V> {
    /// Installs the register on `system` with initial value `v0` and `p1` as
    /// the writer, on in-process base registers and a help shard of its own,
    /// recording every operation into
    /// [`history`](AuthenticatedRegister::history).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (Theorem 31).
    pub fn install(system: &System, v0: V) -> Self {
        let shard = system.new_help_shard();
        let mut register =
            Self::install_in_shard(system, v0, &LocalFactory, &shard, ProcessId::new(1));
        register.log = HistoryLog::new(system.env().clock());
        register
    }

    /// Installs the register with initial value `v0` and `writer` playing
    /// the writer role (objects that keep one cell per process, such as the
    /// atomic snapshot of `byzreg-apps`, place each cell's writer so),
    /// sourcing base registers from `factory` (e.g. a message-passing
    /// emulation, experiment E6) and hosting its `Help()` tasks on the
    /// demand-driven help shard `shard` (see `byzreg_runtime::HelpShard`):
    /// helpers tick only while a quorum operation on one of the shard's
    /// instances is in flight. Records no history.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    pub fn install_in_shard<F: RegisterFactory>(
        system: &System,
        v0: V,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self {
        let env = system.env().clone();
        env.require_n_gt_3f();
        let n = env.n();
        let roles = Roles::with_writer(n, writer);

        // R1: writer's tuple set; initially {⟨0, v0⟩} (line "shared registers").
        let mut init = BTreeSet::new();
        init.insert((0u64, v0.clone()));
        let (r1_w, r1) =
            factory.create(&env, roles.actual(1), "R1".into(), WriterRecord::Tuples(init));

        // R_k for readers: witness sets; initially {v0}.
        let mut witness_w = Vec::with_capacity(n - 1);
        let mut witness = Vec::with_capacity(n - 1);
        for k in 2..=n {
            let mut set = WitnessSet::new();
            set.insert(v0.clone());
            let (w, r) = factory.create(&env, roles.actual(k), format!("R[{k}]"), set);
            witness_w.push(w);
            witness.push(r);
        }

        // R_{j,k} reply registers (initially ⟨∅, 0⟩) and C_k round counters:
        // the shared quorum fabric of §5.1.
        let QuorumFabric { view, ports } =
            QuorumFabric::install(&env, factory, &roles, WitnessSet::<V>::new());
        let shared = SharedPorts { r1, witness, fabric: view };

        let own = std::iter::once((Some(r1_w), None))
            .chain(witness_w.into_iter().map(|w| (None, Some(w))))
            .collect();
        let core = Instance::new(system, roles, shard, own, ports, |j, own, replies_w| HelpTask2 {
            env: env.clone(),
            j,
            shared: shared.clone(),
            witness_w: own.1.clone(),
            replies_w,
            tracker: AskerTracker::new(n - 1),
            inputs: Inputs::default(),
        });
        AuthenticatedRegister { core, v0, shared, log: HistoryLog::off() }
    }

    /// The process playing the writer role.
    #[must_use]
    pub fn writer_pid(&self) -> ProcessId {
        self.core.roles.writer()
    }

    /// The initial value `v0`.
    pub fn initial_value(&self) -> &V {
        &self.v0
    }

    /// The recorded operation history.
    #[must_use]
    pub fn history(&self) -> HistoryLog<AuthInv<V>, AuthResp<V>> {
        self.log.clone()
    }

    /// The unique writer handle.
    ///
    /// # Panics
    ///
    /// Panics if taken twice or if the writer is declared Byzantine.
    #[must_use]
    pub fn writer(&self) -> AuthenticatedWriter<V> {
        let (pid, (r1_w, _)) = self.core.writer();
        AuthenticatedWriter {
            env: self.core.env.clone(),
            pid,
            r1_w: r1_w.expect("writer ports"),
            seq: 0,
            log: self.log.clone(),
        }
    }

    /// The reader handle for any process other than the writer.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer, taken twice, or declared Byzantine.
    #[must_use]
    pub fn reader(&self, pid: ProcessId) -> AuthenticatedReader<V> {
        AuthenticatedReader {
            env: self.core.env.clone(),
            pid,
            v0: self.v0.clone(),
            parts: self.core.reader(pid, &self.shared.fabric),
            r1: self.shared.r1.clone(),
            log: self.log.clone(),
        }
    }

    /// The raw write ports of a declared-Byzantine process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct or already taken.
    #[must_use]
    pub fn attack_ports(&self, pid: ProcessId) -> AttackPorts<V> {
        let ((r1, witness), fabric) = self.core.attacker(pid);
        AttackPorts { pid, r1, witness, fabric, shared: self.shared.clone() }
    }
}

impl<V: Value> std::fmt::Debug for AuthenticatedRegister<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthenticatedRegister")
            .field("n", &self.core.env.n())
            .field("f", &self.core.env.f())
            .field("v0", &self.v0)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Writer handle
// ---------------------------------------------------------------------------

/// The writer handle: `Write` only — every write is auto-"signed".
pub struct AuthenticatedWriter<V: Ord> {
    env: Env,
    pid: ProcessId,
    r1_w: WritePort<WriterRecord<V>>,
    /// The local counter `ℓ` (line 1).
    seq: u64,
    log: HistoryLog<AuthInv<V>, AuthResp<V>>,
}

impl<V: Value> AuthenticatedWriter<V> {
    /// `Write(v)` — Alg. 2 lines 1–3.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn write(&mut self, v: V) -> Result<()> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, AuthInv::Write(v.clone()));
        self.seq += 1; // line 1: ℓ <- ℓ + 1
        let seq = self.seq;
        self.env.run_as(self.pid, || {
            // line 2: R1 <- R1 ∪ {⟨ℓ, v⟩} (owner RMW; one step).
            self.r1_w.update(|rec| match rec {
                WriterRecord::Tuples(set) => {
                    set.insert((seq, v.clone()));
                }
                WriterRecord::Garbage(_) => {
                    // Unreachable for a correct writer; restore well-formedness.
                    let mut set = BTreeSet::new();
                    set.insert((seq, v.clone()));
                    *rec = WriterRecord::Tuples(set);
                }
            });
        });
        self.log.respond(op, self.pid, AuthResp::Done); // line 3
        Ok(())
    }
}

impl<V: Value> std::fmt::Debug for AuthenticatedWriter<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AuthenticatedWriter({}, ℓ = {})", self.pid, self.seq)
    }
}

// ---------------------------------------------------------------------------
// Reader handle
// ---------------------------------------------------------------------------

/// A reader handle: `Read` and `Verify`.
pub struct AuthenticatedReader<V: Ord> {
    env: Env,
    pid: ProcessId,
    v0: V,
    /// The reader's §5.1 engine handles (asker counter, reply column,
    /// help-shard demand); the trait layer's fused runs borrow them.
    pub(crate) parts: EngineParts<WitnessSet<V>>,
    r1: ReadPort<WriterRecord<V>>,
    log: HistoryLog<AuthInv<V>, AuthResp<V>>,
}

impl<V: Value> AuthenticatedReader<V> {
    /// The reader's process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `Read()` — Alg. 2 lines 4–9.
    ///
    /// Reads the freshest tuple of `R1` and *verifies* it before returning;
    /// on verification failure (Byzantine writer) returns `v0` (§7.1).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn read(&mut self) -> Result<V> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, AuthInv::Read);
        let value = self.env.run_as(self.pid, || read_groups(&self.env, &[&*self]))?.remove(0);
        self.log.respond(op, self.pid, AuthResp::ReadValue(value.clone()));
        Ok(value)
    }

    /// `Verify(v)` — Alg. 2 lines 10–23 (identical to Algorithm 1's).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn verify(&mut self, v: &V) -> Result<bool> {
        Ok(self.verify_many(std::slice::from_ref(v))?[0])
    }

    /// Batched `Verify`: decides every value of `vs` in **one** shared §5.1
    /// round sequence instead of `vs.len()` of them (see
    /// [`crate::quorum::quorum_groups`]). Outcomes are returned in input
    /// order; each is exactly what a standalone
    /// [`verify`](AuthenticatedReader::verify) spanning the batch would
    /// return.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        self.env.check_running()?;
        let ops: Vec<_> =
            vs.iter().map(|v| self.log.invoke(self.pid, AuthInv::Verify(v.clone()))).collect();
        let outcomes =
            self.env.run_as(self.pid, || verify_groups(&self.env, &[(&self.parts, vs)]))?.remove(0);
        for (op, outcome) in ops.into_iter().zip(&outcomes) {
            self.log.respond(op, self.pid, AuthResp::VerifyResult(*outcome));
        }
        Ok(outcomes)
    }
}

/// The `Read` procedure of Alg. 2 lines 4–9 for every reader in `readers`
/// (handles of one reader of `env`, one per register instance), with every
/// instance's `Verify(−)` fused into **one** [`verify_groups`] run; returns
/// one read value per reader. Each reader's `R1` is read first (line 4),
/// and its freshest tuple, if the record is a well-formed non-empty set of
/// tuples (lines 5–6), becomes that instance's one value to verify (line 7).
/// A malformed or empty record becomes an empty group. An instance whose
/// value fails verification returns its `v0` (line 9).
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub(crate) fn read_groups<V: Value>(
    env: &Env,
    readers: &[&AuthenticatedReader<V>],
) -> Result<Vec<V>> {
    // Lines 4-6: r <- R1; the max tuple of a well-formed record.
    let freshest: Vec<Option<V>> =
        readers.iter().map(|r| r.r1.read().freshest().map(|(_, v)| v.clone())).collect();
    // Line 7: verified <- Verify(v). This is the *procedure*, not a
    // recorded operation (cf. the "dual-use" footnote 7).
    let groups: Vec<_> =
        readers.iter().zip(&freshest).map(|(r, v)| (&r.parts, v.as_slice())).collect();
    let verified = verify_groups(env, &groups)?;
    Ok(readers
        .iter()
        .zip(freshest)
        .zip(verified)
        .map(|((r, v), ok)| match v {
            Some(v) if ok[0] => v, // line 8
            _ => r.v0.clone(),     // line 9
        })
        .collect())
}

impl<V: Value> std::fmt::Debug for AuthenticatedReader<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AuthenticatedReader({})", self.pid)
    }
}

// ---------------------------------------------------------------------------
// Help task (lines 24-38)
// ---------------------------------------------------------------------------

struct HelpTask2<V: Value> {
    env: Env,
    /// 1-based process index of the helper.
    j: usize,
    shared: SharedPorts<V>,
    /// `R_j` write port — `None` for the writer (`j = 1` has no witness reg).
    witness_w: Option<WritePort<WitnessSet<V>>>,
    replies_w: Vec<WritePort<Reply<V>>>,
    tracker: AskerTracker,
    /// The versions of `R1` and every `R_i` before the last run of lines
    /// 29-35.
    inputs: Inputs,
}

impl<V: Value> byzreg_runtime::HelpTask for HelpTask2<V> {
    fn tick(&mut self) -> bool {
        // Lines 26-27: sample C_k, compute askers.
        let (ck, askers) = self.tracker.poll(&self.shared.fabric.askers);
        if askers.is_empty() {
            return false; // line 28
        }
        let r_j: WitnessSet<V> = match &self.witness_w {
            // j = 1: the writer replies with the values of R1 itself
            // (footnote 9; Lemma 103 Case 2 relies on this), its own
            // register.
            None => self.shared.r1.read().values(),
            Some(witness_w) => {
                let versions = std::iter::once(self.shared.r1.version())
                    .chain(self.shared.witness.iter().map(ReadPort::version));
                if self.inputs.moved(versions) {
                    // Lines 29-30: r <- R1; r1 <- {v | ⟨−, v⟩ ∈ r}. Lines
                    // 31-34 (j ≠ 1): read every reader's R_i, then witness
                    // any value in r1 or with >= f+1 witnesses (counting r1
                    // as one set, cf. "1 <= i <= n" in line 33).
                    let mut all_sets: Vec<WitnessSet<V>> = Vec::with_capacity(self.env.n());
                    all_sets.push(self.shared.r1.read().values());
                    for port in &self.shared.witness {
                        all_sets.push(port.read()); // line 32
                    }
                    // Lines 33-35, each qualifying value R_j lacks in one RMW.
                    witness_update(witness_w, all_sets, self.j - 1, self.env.f())
                } else {
                    // Neither R1 nor any R_i moved since the last run of
                    // lines 29-35, which left nothing to add: rerunning them
                    // would return R_j unchanged.
                    witness_w.read()
                }
            }
        };

        debug_assert!(self.j >= 1);
        // Lines 36-38: help each asker.
        self.tracker.serve(&self.replies_w, &ck, &askers, &r_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Loads;
    use byzreg_runtime::{Scheduling, System};

    fn sys(n: usize, seed: u64) -> System {
        System::builder(n).scheduling(Scheduling::Chaotic(seed)).build()
    }

    #[test]
    fn writes_are_atomically_signed() {
        let system = sys(4, 11);
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        assert!(!r.verify(&5).unwrap());
        w.write(5).unwrap();
        assert!(r.verify(&5).unwrap(), "no separate Sign needed");
        assert_eq!(r.read().unwrap(), 5);
        system.shutdown();
    }

    #[test]
    fn v0_is_always_verified() {
        let system = sys(4, 12);
        let reg = AuthenticatedRegister::install(&system, 99u32);
        let mut r = reg.reader(ProcessId::new(3));
        assert!(r.verify(&99).unwrap());
        assert_eq!(r.read().unwrap(), 99);
        system.shutdown();
    }

    #[test]
    fn read_returns_freshest_write() {
        let system = sys(4, 13);
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        for v in [3u32, 9, 4] {
            w.write(v).unwrap();
        }
        assert_eq!(r.read().unwrap(), 4, "highest timestamp wins, not highest value");
        // All written values stay verifiable.
        assert!(r.verify(&3).unwrap());
        assert!(r.verify(&9).unwrap());
        system.shutdown();
    }

    #[test]
    fn garbage_r1_makes_reads_fall_back_to_v0() {
        // A Byzantine writer stores malformed content; correct readers must
        // return v0 (Alg. 2 lines 5/9).
        let system = System::builder(4).byzantine(ProcessId::new(1)).build();
        let reg = AuthenticatedRegister::install(&system, 7u32);
        let ports = reg.attack_ports(ProcessId::new(1));
        ports.r1.as_ref().unwrap().write(WriterRecord::Garbage(0xDEAD));
        let mut r = reg.reader(ProcessId::new(2));
        assert_eq!(r.read().unwrap(), 7);
        system.shutdown();
    }

    #[test]
    fn erased_r1_read_returns_v0_not_stale_value() {
        // Byzantine writer "writes" v by inserting a tuple, readers verify it;
        // then it erases R1 entirely. Reads fall back to v0; Verify(v)
        // keeps returning true (relay) because witnesses persist.
        let system = System::builder(4).byzantine(ProcessId::new(1)).build();
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let ports = reg.attack_ports(ProcessId::new(1));
        let mut tuples = BTreeSet::new();
        tuples.insert((1u64, 5u32));
        ports.r1.as_ref().unwrap().write(WriterRecord::Tuples(tuples));
        let mut r2 = reg.reader(ProcessId::new(2));
        assert_eq!(r2.read().unwrap(), 5);
        assert!(r2.verify(&5).unwrap());
        // Erase.
        ports.r1.as_ref().unwrap().write(WriterRecord::Tuples(BTreeSet::new()));
        assert_eq!(r2.read().unwrap(), 0, "erased R1 -> v0");
        // But the "signature" cannot be denied (Obs. 18).
        assert!(r2.verify(&5).unwrap(), "you can lie but not deny");
        let mut r3 = reg.reader(ProcessId::new(3));
        assert!(r3.verify(&5).unwrap());
        system.shutdown();
    }

    #[test]
    fn lockstep_terminates() {
        let system = System::builder(4).scheduling(Scheduling::Lockstep(99)).build();
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(4));
        w.write(8).unwrap();
        assert_eq!(r.read().unwrap(), 8);
        assert!(r.verify(&8).unwrap());
        assert!(!r.verify(&1).unwrap());
        system.shutdown();
    }

    #[test]
    fn history_records_reads_not_inner_verifies() {
        let system = sys(4, 14);
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(1).unwrap();
        let _ = r.read().unwrap();
        system.shutdown();
        let ops = reg.history().complete_ops();
        // Write + Read only: the Read's inner Verify is a procedure call,
        // not an operation (footnote 7).
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[1].invocation, AuthInv::Read));
    }

    #[test]
    fn works_at_n_7() {
        let system = sys(7, 15);
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let mut w = reg.writer();
        w.write(3).unwrap();
        for k in 2..=7 {
            let mut r = reg.reader(ProcessId::new(k));
            assert_eq!(r.read().unwrap(), 3);
            assert!(r.verify(&3).unwrap());
        }
        system.shutdown();
    }

    /// Helper `p3`'s `Help()` task on a fixed `n = 4` fixture whose
    /// registers count their loads: `R1` holds `⟨1, 5⟩`, reader `p_k`'s
    /// witness set is `sets[k - 2]`, and reader `p2` has one pending round.
    struct Fixture {
        system: System,
        loads: Loads,
        task: HelpTask2<u32>,
        shared: SharedPorts<u32>,
        r1_w: WritePort<WriterRecord<u32>>,
        fabric: QuorumFabric<WitnessSet<u32>>,
    }

    impl Fixture {
        fn new(sets: [&[u32]; 3]) -> Self {
            let (system, loads) = (System::builder(4).build(), Loads::default());
            let env = system.env();
            let pid = |k: usize| ProcessId::new(k);
            let r1 = WriterRecord::Tuples([(1u64, 5u32)].into_iter().collect());
            let (r1_w, r1) = loads.create(env, pid(1), "R1".into(), r1);
            let (witness_w, witness): (Vec<_>, Vec<_>) = (2..=4)
                .map(|k| {
                    let set = sets[k - 2].iter().copied().collect();
                    loads.create(env, pid(k), format!("R[{k}]"), set)
                })
                .unzip();
            let fabric = QuorumFabric::install(env, &loads, &Roles::identity(4), BTreeSet::new());
            let shared = SharedPorts { r1, witness, fabric: fabric.view.clone() };
            let task = HelpTask2 {
                env: env.clone(),
                j: 3,
                shared: shared.clone(),
                witness_w: Some(witness_w[1].clone()),
                replies_w: fabric.ports[2].replies.clone(),
                tracker: AskerTracker::new(3),
                inputs: Inputs::default(),
            };
            let fixture = Fixture { system, loads, task, shared, r1_w, fabric };
            fixture.ask(1);
            fixture
        }

        /// Reader `p2` starts asker round `ck`.
        fn ask(&self, ck: u64) {
            self.fabric.ports[1].asker.as_ref().unwrap().write(ck);
        }

        /// One tick of `p3`; returns its gate steps.
        fn tick(&mut self) -> u64 {
            let env = self.system.env();
            let before = env.gate().steps();
            env.run_as(ProcessId::new(3), || byzreg_runtime::HelpTask::tick(&mut self.task));
            env.gate().steps() - before
        }
    }

    /// One help tick of `p3` on [`Fixture::new`]`(sets)`. Returns the gate
    /// steps of the tick, then `R_3` and `p3`'s reply to `p2`.
    fn tick_p3(sets: [&[u32]; 3]) -> (u64, WitnessSet<u32>, Reply<u32>) {
        let mut fixture = Fixture::new(sets);
        let steps = fixture.tick();
        let shared = &fixture.shared;
        (steps, shared.witness[1].read(), shared.fabric.replies[2][0].read())
    }

    #[test]
    fn help_tick_with_unmoved_inputs_reads_only_its_own_register() {
        let mut fixture = Fixture::new([&[0, 5], &[0, 5], &[0]]);
        assert_eq!(fixture.tick(), 8, "the first tick runs lines 29-35");
        // A new round with neither R1 nor any R_i moved: one C_2 read, one
        // read of R_3 (its own register), one reply write.
        fixture.ask(2);
        let before = fixture.loads.all();
        assert_eq!(fixture.tick(), 3);
        let read = fixture.loads.since(&before);
        assert_eq!(read, [("C[2]".to_owned(), 1), ("R[3]".to_owned(), 1)].into());
        assert_eq!(fixture.shared.fabric.replies[2][0].read(), ([0, 5].into(), 2));
        // A write to R1 moves it: the next tick reads R1 and every R_i, and
        // witnesses the new value in one RMW.
        fixture.r1_w.write(WriterRecord::Tuples([(1, 5), (2, 6)].into_iter().collect()));
        fixture.ask(3);
        let before = fixture.loads.all();
        assert_eq!(fixture.tick(), 7);
        assert_eq!(fixture.loads.since(&before).len(), 5, "C_2, R1 and the three R_i");
        assert_eq!(fixture.shared.fabric.replies[2][0].read(), ([0, 5, 6].into(), 3));
    }

    #[test]
    fn help_tick_skips_witness_unions_it_already_has() {
        // Candidates 0 (in R2, R3, R4) and 5 (in R1) qualify and are both
        // in R3 already: 3 C_k reads, 1 R1 read, 3 witness reads, 1 reply
        // write. No R_3 RMW and no line-35 re-read.
        let (steps, r3, reply) = tick_p3([&[0, 5], &[0, 5], &[0]]);
        assert_eq!(steps, 8);
        assert_eq!(r3, [0, 5].into_iter().collect());
        assert_eq!(reply, ([0, 5].into_iter().collect(), 1));
    }

    #[test]
    fn help_tick_merges_new_witnesses_into_one_rmw() {
        // One new value, then two: either way exactly one RMW (9 steps),
        // whose result is the reply.
        for own in [&[0u32][..], &[]] {
            let (steps, r3, reply) = tick_p3([&[0, 5], own, &[0]]);
            assert_eq!(steps, 9, "R3 = {own:?}");
            assert_eq!(r3, [0, 5].into_iter().collect());
            assert_eq!(reply, ([0, 5].into_iter().collect(), 1));
        }
    }

    #[test]
    fn writer_record_helpers() {
        let mut set = BTreeSet::new();
        set.insert((1u64, 5u32));
        set.insert((2u64, 3u32));
        let rec = WriterRecord::Tuples(set);
        assert_eq!(rec.freshest(), Some(&(2, 3)));
        assert_eq!(rec.values().len(), 2);
        let garbage: WriterRecord<u32> = WriterRecord::Garbage(1);
        assert_eq!(garbage.freshest(), None);
        assert!(garbage.values().is_empty());
    }
}
