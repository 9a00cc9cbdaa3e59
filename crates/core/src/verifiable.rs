//! Algorithm 1: a SWMR **verifiable register** from plain SWMR registers,
//! without signatures, for `n > 3f`.
//!
//! The register offers `Write`/`Read` (a normal SWMR register) plus
//! `Sign(v)`/`Verify(v)` emulating unforgeable signatures (Definition 10).
//! Line numbers in comments refer to Algorithm 1 in the paper.
//!
//! Shared registers (one instance per register object):
//!
//! * `R*` — the writer's value register (line 1/9),
//! * `R_i` — each process's *witness set*: the values it vouches were
//!   written-and-signed,
//! * `R_{i,k}` — SWSR reply registers from helper `p_i` to asker `p_k`,
//! * `C_k` — each reader's asker round counter.
//!
//! # Examples
//!
//! ```
//! use byzreg_core::verifiable::VerifiableRegister;
//! use byzreg_runtime::{ProcessId, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = System::builder(4).build();
//! let reg = VerifiableRegister::install(&system, 0u64);
//! let mut writer = reg.writer();
//! let mut reader = reg.reader(ProcessId::new(2));
//!
//! writer.write(7)?;
//! assert_eq!(reader.read()?, 7);
//! assert!(!reader.verify(&7)?, "written but not signed yet");
//! assert!(writer.sign(&7)?);
//! assert!(reader.verify(&7)?);
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use byzreg_runtime::{
    Env, HelpShard, HistoryLog, LocalFactory, ProcessId, ReadPort, RegisterFactory, Result, Roles,
    System, Value, WritePort,
};
use byzreg_spec::registers::{VerInv, VerResp};

use crate::quorum::{
    verify_groups, witness_update, AskerTracker, EngineParts, FabricPorts, FabricView, Inputs,
    Instance, QuorumFabric, Reply,
};

/// A process's witness set (the content of `R_i`).
pub type WitnessSet<V> = BTreeSet<V>;

/// Read-only views of every shared register of one verifiable-register
/// instance. Everyone (including adversaries) may hold these.
#[derive(Clone)]
pub struct SharedPorts<V> {
    /// `R*` — the writer's current value.
    pub r_star: ReadPort<V>,
    /// `R_i` for `i = 1..=n` (index 0-based).
    pub witness: Vec<ReadPort<WitnessSet<V>>>,
    /// The reply registers `R_{j,k}` and asker counters `C_k`.
    pub fabric: FabricView<WitnessSet<V>>,
}

/// Write ports owned by one process, as handed to a Byzantine adversary.
///
/// A faulty process may write *anything* into registers it owns — and only
/// into those (§1, Remark): there is no way to obtain another process's
/// write ports from this type.
pub struct AttackPorts<V> {
    /// Which process these ports belong to.
    pub pid: ProcessId,
    /// `R*` — present only for the writer.
    pub r_star: Option<WritePort<V>>,
    /// `R_pid` — the process's witness set (for the writer this is the
    /// "signed values" register `R1`).
    pub witness: WritePort<WitnessSet<V>>,
    /// The process's reply row `R_{pid,k}` and, for a reader, `C_pid`.
    pub fabric: FabricPorts<WitnessSet<V>>,
    /// Read access to every register of the instance.
    pub shared: SharedPorts<V>,
}

/// One process's write ports besides the fabric: `R_i`, and `R*` for the
/// writer.
type Own<V> = (WritePort<WitnessSet<V>>, Option<WritePort<V>>);

/// One installed verifiable-register instance (Algorithm 1).
///
/// Install with [`VerifiableRegister::install`], then obtain the unique
/// [`writer`](VerifiableRegister::writer) handle and per-reader
/// [`reader`](VerifiableRegister::reader) handles. Help tasks for all correct
/// processes are attached to the system automatically.
pub struct VerifiableRegister<V> {
    core: Instance<WitnessSet<V>, Own<V>>,
    v0: V,
    shared: SharedPorts<V>,
    /// The operation log every handle records into; it records only on an
    /// instance built by `install`.
    log: HistoryLog<VerInv<V>, VerResp<V>>,
}

impl<V: Value> VerifiableRegister<V> {
    /// Installs the register on `system` with initial value `v0` and `p1` as
    /// the writer, on in-process base registers and a help shard of its own,
    /// recording every operation into [`history`](VerifiableRegister::history).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (Theorem 31: impossible without signatures).
    pub fn install(system: &System, v0: V) -> Self {
        let shard = system.new_help_shard();
        let mut register =
            Self::install_in_shard(system, v0, &LocalFactory, &shard, ProcessId::new(1));
        register.log = HistoryLog::new(system.env().clock());
        register
    }

    /// Installs the register with initial value `v0` and `writer` playing
    /// the writer role, sourcing base registers from `factory` (e.g.
    /// `byzreg_mp::MpFactory` to run Algorithm 1 over a message-passing
    /// system, experiment E6) and hosting its `Help()` tasks on the
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

        // R*: SWMR register of the writer; initially v0.
        let (r_star_w, r_star) = factory.create(&env, writer, "R*".into(), v0.clone());

        // R_i: SWMR witness-set registers; initially ∅.
        let mut witness_w = Vec::with_capacity(n);
        let mut witness = Vec::with_capacity(n);
        for i in 1..=n {
            let (w, r) =
                factory.create(&env, roles.actual(i), format!("R[{i}]"), WitnessSet::<V>::new());
            witness_w.push(w);
            witness.push(r);
        }

        // R_{j,k} reply registers (initially ⟨∅, 0⟩) and C_k round counters:
        // the shared quorum fabric of §5.1.
        let QuorumFabric { view, ports } =
            QuorumFabric::install(&env, factory, &roles, WitnessSet::<V>::new());
        let shared = SharedPorts { r_star, witness, fabric: view };

        // Attach Help() to every correct process, demand-gated on the shard;
        // R* goes to the first role, the writer.
        let mut r_star_w = Some(r_star_w);
        let own = witness_w.into_iter().map(|w| (w, r_star_w.take())).collect();
        let core = Instance::new(system, roles, shard, own, ports, |j, own, replies_w| HelpTask1 {
            env: env.clone(),
            j,
            shared: shared.clone(),
            witness_w: own.0.clone(),
            replies_w,
            tracker: AskerTracker::new(n - 1),
            inputs: Inputs::default(),
        });
        VerifiableRegister { core, v0, shared, log: HistoryLog::off() }
    }

    /// The initial value `v0`.
    pub fn initial_value(&self) -> &V {
        &self.v0
    }

    /// The operation history recorded so far (`H|correct` if only correct
    /// processes used handles).
    #[must_use]
    pub fn history(&self) -> HistoryLog<VerInv<V>, VerResp<V>> {
        self.log.clone()
    }

    /// The unique writer handle.
    ///
    /// # Panics
    ///
    /// Panics if taken twice, or if the writer was declared Byzantine (use
    /// [`VerifiableRegister::attack_ports`] instead).
    #[must_use]
    pub fn writer(&self) -> VerifiableWriter<V> {
        let (pid, (r1_w, r_star_w)) = self.core.writer();
        VerifiableWriter {
            env: self.core.env.clone(),
            pid,
            r_star_w: r_star_w.expect("writer ports"),
            r1_w,
            written: BTreeSet::new(),
            log: self.log.clone(),
        }
    }

    /// The reader handle for any process other than the writer.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer, was taken before, or was declared
    /// Byzantine.
    #[must_use]
    pub fn reader(&self, pid: ProcessId) -> VerifiableReader<V> {
        VerifiableReader {
            env: self.core.env.clone(),
            pid,
            parts: self.core.reader(pid, &self.shared.fabric),
            r_star: self.shared.r_star.clone(),
            log: self.log.clone(),
        }
    }

    /// The raw write ports of a **declared-Byzantine** process, for use by an
    /// adversary strategy.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct or the ports were already taken.
    #[must_use]
    pub fn attack_ports(&self, pid: ProcessId) -> AttackPorts<V> {
        let ((witness, r_star), fabric) = self.core.attacker(pid);
        AttackPorts { pid, r_star, witness, fabric, shared: self.shared.clone() }
    }
}

impl<V: Value> std::fmt::Debug for VerifiableRegister<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiableRegister")
            .field("n", &self.core.env.n())
            .field("f", &self.core.env.f())
            .field("v0", &self.v0)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Writer handle
// ---------------------------------------------------------------------------

/// The writer handle of a verifiable register: `Write` and `Sign`.
///
/// Methods take `&mut self`: a process applies its operations sequentially.
pub struct VerifiableWriter<V> {
    env: Env,
    pid: ProcessId,
    r_star_w: WritePort<V>,
    r1_w: WritePort<WitnessSet<V>>,
    /// The local variable `r*` (line 2): values written so far.
    written: BTreeSet<V>,
    log: HistoryLog<VerInv<V>, VerResp<V>>,
}

impl<V: Value> VerifiableWriter<V> {
    /// `Write(v)` — Alg. 1 lines 1–3.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn write(&mut self, v: V) -> Result<()> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, VerInv::Write(v.clone()));
        self.env.run_as(self.pid, || {
            self.r_star_w.write(v.clone()); // line 1: R* <- v
        });
        self.written.insert(v); // line 2: r* <- r* ∪ {v}
        self.log.respond(op, self.pid, VerResp::Done); // line 3
        Ok(())
    }

    /// `Sign(v)` — Alg. 1 lines 4–8. Returns `true` for `success`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn sign(&mut self, v: &V) -> Result<bool> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, VerInv::Sign(v.clone()));
        let success = self.written.contains(v); // line 4: v ∈ r*?
        if success {
            self.env.run_as(self.pid, || {
                // line 5: R1 <- R1 ∪ {v} (owner RMW; one step).
                self.r1_w.update(|set| {
                    set.insert(v.clone());
                });
            });
        }
        self.log.respond(op, self.pid, VerResp::SignResult(success));
        Ok(success) // lines 6/8
    }
}

impl<V: Value> std::fmt::Debug for VerifiableWriter<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifiableWriter({}, {} values written)", self.pid, self.written.len())
    }
}

// ---------------------------------------------------------------------------
// Reader handle
// ---------------------------------------------------------------------------

/// A reader handle of a verifiable register: `Read` and `Verify`.
pub struct VerifiableReader<V> {
    env: Env,
    pid: ProcessId,
    /// The reader's §5.1 engine handles (asker counter, reply column,
    /// help-shard demand); the trait layer's fused runs borrow them.
    pub(crate) parts: EngineParts<WitnessSet<V>>,
    /// `R*`, the register `Read` returns (the trait layer's fused reads
    /// read it too).
    pub(crate) r_star: ReadPort<V>,
    log: HistoryLog<VerInv<V>, VerResp<V>>,
}

impl<V: Value> VerifiableReader<V> {
    /// The reader's process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `Read()` — Alg. 1 lines 9–10.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn read(&mut self) -> Result<V> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, VerInv::Read);
        let v = self.env.run_as(self.pid, || self.r_star.read()); // line 9
        self.log.respond(op, self.pid, VerResp::ReadValue(v.clone()));
        Ok(v) // line 10
    }

    /// `Verify(v)` — Alg. 1 lines 11–24.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn verify(&mut self, v: &V) -> Result<bool> {
        Ok(self.verify_many(std::slice::from_ref(v))?[0])
    }

    /// Batched `Verify`: decides every value of `vs` in **one** shared §5.1
    /// round sequence instead of `vs.len()` of them (the asker counter and
    /// the reply reads are amortized across the batch; see
    /// [`crate::quorum::quorum_groups`]). Outcomes are returned in input
    /// order; each is exactly what a standalone
    /// [`verify`](VerifiableReader::verify) spanning the batch would return.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        self.env.check_running()?;
        let ops: Vec<_> =
            vs.iter().map(|v| self.log.invoke(self.pid, VerInv::Verify(v.clone()))).collect();
        let outcomes =
            self.env.run_as(self.pid, || verify_groups(&self.env, &[(&self.parts, vs)]))?.remove(0);
        for (op, outcome) in ops.into_iter().zip(&outcomes) {
            self.log.respond(op, self.pid, VerResp::VerifyResult(*outcome));
        }
        Ok(outcomes)
    }
}

impl<V: Value> std::fmt::Debug for VerifiableReader<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifiableReader({})", self.pid)
    }
}

// ---------------------------------------------------------------------------
// Help task (lines 25-36)
// ---------------------------------------------------------------------------

struct HelpTask1<V: Value> {
    env: Env,
    /// 1-based role of the helper.
    j: usize,
    shared: SharedPorts<V>,
    witness_w: WritePort<WitnessSet<V>>,
    replies_w: Vec<WritePort<Reply<V>>>,
    tracker: AskerTracker,
    /// The versions of every `R_i` before the last run of lines 30-33.
    inputs: Inputs,
}

impl<V: Value> byzreg_runtime::HelpTask for HelpTask1<V> {
    fn tick(&mut self) -> bool {
        // Lines 27-28: sample C_k and compute askers.
        let (ck, askers) = self.tracker.poll(&self.shared.fabric.askers);
        if askers.is_empty() {
            return false; // line 29 (no askers: do nothing this round)
        }
        let r_j = if self.inputs.moved(self.shared.witness.iter().map(ReadPort::version)) {
            // Line 30: read R_i of every process.
            let r_all: Vec<WitnessSet<V>> =
                self.shared.witness.iter().map(ReadPort::read).collect();
            // Lines 31-33, each qualifying value R_j lacks in one RMW.
            witness_update(&self.witness_w, r_all, self.j - 1, self.env.f())
        } else {
            // No R_i moved since the last run of lines 30-33, which left
            // nothing to add: rerunning them would return R_j unchanged.
            self.witness_w.read()
        };
        // Lines 34-36: help each asker.
        self.tracker.serve(&self.replies_w, &ck, &askers, &r_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Loads;
    use byzreg_runtime::{Scheduling, System};

    /// Helper `p3`'s `Help()` task on a fixed `n = 4` fixture whose
    /// registers count their loads: `p_i`'s witness set is `sets[i - 1]`
    /// and reader `p2` has one pending round.
    struct Fixture {
        system: System,
        loads: Loads,
        task: HelpTask1<u32>,
        shared: SharedPorts<u32>,
        witness_w: Vec<WritePort<WitnessSet<u32>>>,
        fabric: QuorumFabric<WitnessSet<u32>>,
    }

    impl Fixture {
        fn new(sets: [&[u32]; 4]) -> Self {
            let (system, loads) = (System::builder(4).build(), Loads::default());
            let env = system.env();
            let pid = |i: usize| ProcessId::new(i);
            let (_, r_star) = loads.create(env, pid(1), "R*".into(), 0u32);
            let (witness_w, witness): (Vec<_>, Vec<_>) = (1..=4)
                .map(|i| {
                    let set = sets[i - 1].iter().copied().collect();
                    loads.create(env, pid(i), format!("R[{i}]"), set)
                })
                .unzip();
            let fabric = QuorumFabric::install(env, &loads, &Roles::identity(4), BTreeSet::new());
            let shared = SharedPorts { r_star, witness, fabric: fabric.view.clone() };
            let task = HelpTask1 {
                env: env.clone(),
                j: 3,
                shared: shared.clone(),
                witness_w: witness_w[2].clone(),
                replies_w: fabric.ports[2].replies.clone(),
                tracker: AskerTracker::new(3),
                inputs: Inputs::default(),
            };
            let fixture = Fixture { system, loads, task, shared, witness_w, fabric };
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
    fn tick_p3(sets: [&[u32]; 4]) -> (u64, WitnessSet<u32>, Reply<u32>) {
        let mut fixture = Fixture::new(sets);
        let steps = fixture.tick();
        let shared = &fixture.shared;
        (steps, shared.witness[2].read(), shared.fabric.replies[2][0].read())
    }

    #[test]
    fn help_tick_with_unmoved_inputs_reads_only_its_own_register() {
        let mut fixture = Fixture::new([&[5], &[5, 7], &[5, 7], &[7]]);
        assert_eq!(fixture.tick(), 8, "the first tick runs lines 30-33");
        // A new round with no R_i moved: one C_2 read, one read of R_3 (its
        // own register), one reply write.
        fixture.ask(2);
        let before = fixture.loads.all();
        assert_eq!(fixture.tick(), 3);
        let read = fixture.loads.since(&before);
        assert_eq!(read, [("C[2]".to_owned(), 1), ("R[3]".to_owned(), 1)].into());
        assert_eq!(fixture.shared.fabric.replies[2][0].read(), ([5, 7].into(), 2));
        // Once some R_i moves, the next tick reads every R_i again.
        fixture.witness_w[3].write([7, 9].into());
        fixture.ask(3);
        let before = fixture.loads.all();
        assert_eq!(fixture.tick(), 6);
        assert_eq!(fixture.loads.since(&before).len(), 5, "C_2 and the four R_i");
    }

    #[test]
    fn help_tick_skips_witness_unions_it_already_has() {
        // Candidates 5 (in R1) and 7 (in R2, R3, R4) qualify and are both
        // in R3 already: 3 C_k reads, 4 witness reads, 1 reply write. No
        // R_3 RMW and no line-33 re-read.
        let (steps, r3, reply) = tick_p3([&[5], &[5, 7], &[5, 7], &[7]]);
        assert_eq!(steps, 8);
        assert_eq!(r3, [5, 7].into_iter().collect());
        assert_eq!(reply, ([5, 7].into_iter().collect(), 1));
    }

    #[test]
    fn help_tick_merges_new_witnesses_into_one_rmw() {
        // One new value, then two: either way exactly one RMW (9 steps),
        // whose result is the reply.
        for own in [&[7u32][..], &[]] {
            let (steps, r3, reply) = tick_p3([&[5], &[5, 7], own, &[7]]);
            assert_eq!(steps, 9, "R3 = {own:?}");
            assert_eq!(r3, [5, 7].into_iter().collect());
            assert_eq!(reply, ([5, 7].into_iter().collect(), 1));
        }
    }

    fn sys(n: usize, seed: u64) -> System {
        System::builder(n).scheduling(Scheduling::Chaotic(seed)).build()
    }

    #[test]
    fn write_then_read_round_trips() {
        let system = sys(4, 1);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        assert_eq!(r.read().unwrap(), 0);
        w.write(5).unwrap();
        assert_eq!(r.read().unwrap(), 5);
        w.write(6).unwrap();
        assert_eq!(r.read().unwrap(), 6);
        system.shutdown();
    }

    #[test]
    fn sign_fails_for_unwritten_values() {
        let system = sys(4, 2);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        assert!(!w.sign(&3).unwrap(), "cannot sign a value never written");
        w.write(3).unwrap();
        assert!(w.sign(&3).unwrap());
        system.shutdown();
    }

    #[test]
    fn verify_false_before_sign_true_after() {
        let system = sys(4, 3);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(3));
        w.write(9).unwrap();
        assert!(!r.verify(&9).unwrap(), "written but unsigned");
        assert!(w.sign(&9).unwrap());
        assert!(r.verify(&9).unwrap());
        // Obs. 13: stays true for every reader from now on.
        let mut r4 = reg.reader(ProcessId::new(4));
        assert!(r4.verify(&9).unwrap());
        system.shutdown();
    }

    #[test]
    fn old_values_can_be_signed_later() {
        let system = sys(4, 4);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(1).unwrap();
        w.write(2).unwrap();
        assert!(w.sign(&1).unwrap(), "§4: the writer may sign older values");
        assert!(r.verify(&1).unwrap());
        assert!(!r.verify(&2).unwrap());
        assert_eq!(r.read().unwrap(), 2);
        system.shutdown();
    }

    #[test]
    fn verify_never_written_value_is_false() {
        let system = sys(4, 5);
        let reg = VerifiableRegister::install(&system, 0u32);
        let _w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        assert!(!r.verify(&42).unwrap());
        system.shutdown();
    }

    #[test]
    fn works_at_larger_scales() {
        let system = sys(7, 6);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        w.write(11).unwrap();
        w.sign(&11).unwrap();
        for k in 2..=7 {
            let mut r = reg.reader(ProcessId::new(k));
            assert!(r.verify(&11).unwrap(), "reader p{k}");
        }
        system.shutdown();
    }

    #[test]
    fn lockstep_execution_terminates_and_verifies() {
        let system = System::builder(4).scheduling(Scheduling::Lockstep(42)).build();
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(7).unwrap();
        w.sign(&7).unwrap();
        assert!(r.verify(&7).unwrap());
        assert!(!r.verify(&8).unwrap());
        system.shutdown();
    }

    #[test]
    fn standalone_instance_parks_when_idle() {
        // A standalone install sits on a help shard of its own: with no
        // quorum operation in flight its engine parks and takes no steps,
        // and the next verify wakes it.
        let system = System::builder(4).build();
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(7).unwrap();
        assert!(w.sign(&7).unwrap());
        let gate = system.env().gate();
        let before = gate.steps();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(gate.steps(), before, "an idle standalone instance must not step");
        assert!(r.verify(&7).unwrap());
        assert_eq!(system.help_engine_threads(), 1, "one shard engine for the instance");
        system.shutdown();
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn install_rejects_n_le_3f() {
        let system = System::builder(3).resilience(1).build();
        let _ = VerifiableRegister::install(&system, 0u32);
    }

    #[test]
    fn history_is_recorded_for_all_ops() {
        let system = sys(4, 7);
        let reg = VerifiableRegister::install(&system, 0u32);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(1).unwrap();
        w.sign(&1).unwrap();
        let _ = r.read().unwrap();
        let _ = r.verify(&1).unwrap();
        system.shutdown();
        let ops = reg.history().complete_ops();
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0].invocation, VerInv::Write(1)));
        assert!(matches!(ops[1].invocation, VerInv::Sign(1)));
    }
}
