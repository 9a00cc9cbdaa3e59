//! Algorithm 3: a SWMR **sticky register** from plain SWMR registers,
//! without signatures, for `n > 3f`.
//!
//! Once a value is written into a sticky register, the register never
//! changes again — even if the writer is Byzantine (Definition 21,
//! Observation 24). Line numbers in comments refer to Algorithm 3.
//!
//! §9.1 explains the two mechanisms layered on top of the witness scheme of
//! Algorithms 1–2:
//!
//! * **Echo stage**: a process *echoes* (into `E_j`) only the **first**
//!   non-`⊥` value it sees in the writer's `E_1`, and becomes a *witness*
//!   (`R_j ← v`) only after seeing `n − f` echoes of `v` — this stricter
//!   policy prevents correct processes from witnessing different values.
//! * **Write waits**: `Write(v)` returns only after `n − f` witnesses exist,
//!   otherwise a subsequent `Read` could still return `⊥`.
//!
//! # Examples
//!
//! ```
//! use byzreg_core::sticky::StickyRegister;
//! use byzreg_runtime::{ProcessId, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = System::builder(4).build();
//! let reg = StickyRegister::install(&system);
//! let mut writer = reg.writer();
//! let mut reader = reg.reader(ProcessId::new(2));
//!
//! writer.write(7u64)?;
//! assert_eq!(reader.read()?, Some(7));
//! writer.write(9)?; // too late: the register is stuck on 7
//! assert_eq!(reader.read()?, Some(7));
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

use byzreg_runtime::{
    gate, Env, HelpDemand, HelpShard, HistoryLog, LocalFactory, ProcessId, ReadPort,
    RegisterFactory, Result, Roles, System, Value, WritePort,
};
use byzreg_spec::registers::{StickyInv, StickyResp};

use crate::quorum::{
    quorum_groups, AskerTracker, Ballot, EngineParts, FabricPorts, FabricView, Inputs, Instance,
    QuorumFabric, Tagged,
};

/// `⊥`-able register content (`None` = `⊥`).
pub type Slot<V> = Option<V>;

/// A helper's reply `⟨u_j, c_j⟩`: the single value it witnesses (or `⊥`)
/// tagged with the asker round it answers.
pub type Reply<V> = Tagged<Slot<V>>;

/// Read-only views of every shared register of one sticky-register instance.
#[derive(Clone)]
pub struct SharedPorts<V> {
    /// `E_i` — echo registers, one per process (0-based).
    pub echo: Vec<ReadPort<Slot<V>>>,
    /// `R_i` — witness registers, one per process (0-based).
    pub witness: Vec<ReadPort<Slot<V>>>,
    /// The reply registers `R_{j,k}` and asker counters `C_k`.
    pub fabric: FabricView<Slot<V>>,
}

/// Write ports owned by one process, handed to a Byzantine adversary.
pub struct AttackPorts<V> {
    /// The faulty process.
    pub pid: ProcessId,
    /// `E_pid` — the echo register.
    pub echo: WritePort<Slot<V>>,
    /// `R_pid` — the witness register.
    pub witness: WritePort<Slot<V>>,
    /// The process's reply row `R_{pid,k}` and, for a reader, `C_pid`.
    pub fabric: FabricPorts<Slot<V>>,
    /// Read access to everything.
    pub shared: SharedPorts<V>,
}

/// One process's write ports besides the fabric: `E_i` and `R_i`.
type Own<V> = (WritePort<Slot<V>>, WritePort<Slot<V>>);

/// One installed sticky-register instance (Algorithm 3).
pub struct StickyRegister<V> {
    /// Both handles use the instance's help-shard demand: the reader's
    /// quorum `Read` *and* the writer's witness wait (lines 3–5) depend on
    /// helpers running.
    core: Instance<Slot<V>, Own<V>>,
    shared: SharedPorts<V>,
    /// The operation log every handle records into; it records only on an
    /// instance built by `install`.
    log: HistoryLog<StickyInv<V>, StickyResp<V>>,
}

impl<V: Value> StickyRegister<V> {
    /// Installs the register (initial value `⊥`) with `p1` as the writer, on
    /// in-process base registers and a help shard of its own, recording
    /// every operation into [`history`](StickyRegister::history).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (Theorem 31).
    pub fn install(system: &System) -> Self {
        let shard = system.new_help_shard();
        let mut register = Self::install_in_shard(system, &LocalFactory, &shard, ProcessId::new(1));
        register.log = HistoryLog::new(system.env().clock());
        register
    }

    /// Installs the register with `writer` playing the writer role
    /// (broadcast objects keep one sticky register per sender), sourcing
    /// base registers from `factory` (e.g. a message-passing emulation,
    /// experiment E6) and hosting its `Help()` tasks on the demand-driven
    /// help shard `shard` (see `byzreg_runtime::HelpShard`): helpers tick
    /// only while an operation on one of the shard's instances — a quorum
    /// `Read` or a `Write` waiting for its `n − f` witnesses — is in
    /// flight. Records no history.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    pub fn install_in_shard<F: RegisterFactory>(
        system: &System,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self {
        let env = system.env().clone();
        env.require_n_gt_3f();
        let n = env.n();
        let roles = Roles::with_writer(n, writer);

        let mut echo_w = Vec::with_capacity(n);
        let mut echo = Vec::with_capacity(n);
        let mut witness_w = Vec::with_capacity(n);
        let mut witness = Vec::with_capacity(n);
        for i in 1..=n {
            let owner = roles.actual(i);
            let (w, r) = factory.create(&env, owner, format!("E[{i}]"), Slot::<V>::None);
            echo_w.push(w);
            echo.push(r);
            let (w, r) = factory.create(&env, owner, format!("R[{i}]"), Slot::<V>::None);
            witness_w.push(w);
            witness.push(r);
        }

        // R_{j,k} reply registers (initially ⟨⊥, 0⟩) and C_k round counters:
        // the shared quorum fabric of §5.1.
        let QuorumFabric { view, ports } =
            QuorumFabric::install(&env, factory, &roles, Slot::<V>::None);
        let shared = SharedPorts { echo, witness, fabric: view };

        let own = echo_w.into_iter().zip(witness_w).collect();
        let core = Instance::new(system, roles, shard, own, ports, |_, own, replies_w| HelpTask3 {
            env: env.clone(),
            shared: shared.clone(),
            echo_w: own.0.clone(),
            witness_w: own.1.clone(),
            replies_w,
            tracker: AskerTracker::new(n - 1),
            echoes: Inputs::default(),
            witnesses: Inputs::default(),
        });
        StickyRegister { core, shared, log: HistoryLog::off() }
    }

    /// The process playing the writer role.
    #[must_use]
    pub fn writer_pid(&self) -> ProcessId {
        self.core.roles.writer()
    }

    /// The recorded operation history.
    #[must_use]
    pub fn history(&self) -> HistoryLog<StickyInv<V>, StickyResp<V>> {
        self.log.clone()
    }

    /// The unique writer handle.
    ///
    /// # Panics
    ///
    /// Panics if taken twice or if the writer is declared Byzantine.
    #[must_use]
    pub fn writer(&self) -> StickyWriter<V> {
        let (pid, (e1_w, _)) = self.core.writer();
        StickyWriter {
            env: self.core.env.clone(),
            pid,
            e1_w,
            witness: self.shared.witness.clone(),
            demand: self.core.demand.clone(),
            log: self.log.clone(),
        }
    }

    /// The reader handle for any process other than the writer.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer, taken twice, or declared Byzantine.
    #[must_use]
    pub fn reader(&self, pid: ProcessId) -> StickyReader<V> {
        StickyReader {
            env: self.core.env.clone(),
            pid,
            parts: self.core.reader(pid, &self.shared.fabric),
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
        let ((echo, witness), fabric) = self.core.attacker(pid);
        AttackPorts { pid, echo, witness, fabric, shared: self.shared.clone() }
    }
}

impl<V: Value> std::fmt::Debug for StickyRegister<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StickyRegister")
            .field("n", &self.core.env.n())
            .field("f", &self.core.env.f())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Writer handle
// ---------------------------------------------------------------------------

/// The writer handle of a sticky register.
pub struct StickyWriter<V> {
    env: Env,
    pid: ProcessId,
    e1_w: WritePort<Slot<V>>,
    witness: Vec<ReadPort<Slot<V>>>,
    demand: HelpDemand,
    log: HistoryLog<StickyInv<V>, StickyResp<V>>,
}

impl<V: Value> StickyWriter<V> {
    /// `Write(v)` — Alg. 3 lines 1–6.
    ///
    /// Returns only after `n − f` processes witness the value (§9.1: without
    /// the wait, a `Read` after a completed `Write` could still return `⊥`).
    /// If a value was already written, `Write` is a no-op returning `done`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn write(&mut self, v: V) -> Result<()> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, StickyInv::Write(v.clone()));
        let result = self.env.run_as(self.pid, || -> Result<()> {
            // Line 1: if E1 ≠ ⊥ then return done. Line 2: E1 <- v.
            // Owner RMW keeps lines 1-2 atomic w.r.t. p1's own Help thread
            // (which may also write E1; see register::update docs).
            let first = self.e1_w.update(|e| {
                if e.is_none() {
                    *e = Some(v.clone());
                    true
                } else {
                    false
                }
            });
            if !first {
                return Ok(()); // line 1
            }
            // The witness wait of lines 3-5 terminates only through the
            // help tasks' echo/witness stages: keep the shard awake for it.
            let _help = self.demand.begin();
            // Lines 3-5: wait until n−f processes have R_i = v. An R_i
            // whose version has not moved since it was last read is not
            // read again (see `ReadPort::version`).
            let need = self.env.n_minus_f();
            let mut seen: Vec<Option<(u64, bool)>> = vec![None; self.witness.len()];
            loop {
                self.env.check_running()?;
                let mut read_any = false;
                for (port, seen) in self.witness.iter().zip(&mut seen) {
                    let version = port.version();
                    if !matches!(*seen, Some((v, _)) if v == version) {
                        *seen = Some((version, port.read().as_ref() == Some(&v)));
                        read_any = true;
                    }
                }
                if seen.iter().filter(|s| matches!(s, Some((_, true)))).count() >= need {
                    return Ok(()); // line 6
                }
                // Too few witnesses in this pass: they come from help
                // engines that may be waiting for this very core (the rule
                // of `quorum_groups`, including its idle step).
                if !read_any {
                    gate::idle_step(&self.env.gate());
                }
                std::thread::yield_now();
            }
        });
        match result {
            Ok(()) => {
                self.log.respond(op, self.pid, StickyResp::Done);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// **Ablation** (§9.1): `Write(v)` *without* waiting for `n − f`
    /// witnesses.
    ///
    /// The paper explains why the wait in lines 3–5 is necessary: *"without
    /// this wait, a process may invoke a `Read` after a `Write(v)` completes
    /// and get back `⊥` rather than `v`"* — the stricter witness policy may
    /// delay acceptance of the value. This method exists so the ablation
    /// experiment (`tests/ablation.rs`) can demonstrate exactly that
    /// anomaly; it must never be used where Definition 21 semantics are
    /// expected.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn write_without_witness_wait(&mut self, v: V) -> Result<()> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, StickyInv::Write(v.clone()));
        self.env.run_as(self.pid, || {
            self.e1_w.update(|e| {
                if e.is_none() {
                    *e = Some(v.clone());
                }
            });
        });
        // Lines 3-5 deliberately omitted.
        self.log.respond(op, self.pid, StickyResp::Done);
        Ok(())
    }
}

impl<V: Value> std::fmt::Debug for StickyWriter<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StickyWriter({})", self.pid)
    }
}

// ---------------------------------------------------------------------------
// Reader handle
// ---------------------------------------------------------------------------

/// A reader handle of a sticky register.
pub struct StickyReader<V> {
    env: Env,
    pid: ProcessId,
    /// The reader's §5.1 engine handles (asker counter, reply column,
    /// help-shard demand); the trait layer's fused runs borrow them.
    pub(crate) parts: EngineParts<Slot<V>>,
    log: HistoryLog<StickyInv<V>, StickyResp<V>>,
}

impl<V: Value> StickyReader<V> {
    /// The reader's process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `Read()` — Alg. 3 lines 7–22. Returns `None` for `⊥`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn read(&mut self) -> Result<Slot<V>> {
        self.env.check_running()?;
        let op = self.log.invoke(self.pid, StickyInv::Read);
        let outcome =
            self.env.run_as(self.pid, || read_groups(&self.env, &[&self.parts]))?.remove(0);
        self.log.respond(op, self.pid, StickyResp::ReadValue(outcome.clone()));
        Ok(outcome)
    }
}

/// The `Read` procedure of Alg. 3 lines 7–22 for every group of one
/// reader, in one fused run of the shared §5.1 round engine
/// ([`quorum_groups`]); returns one read value per group. `setval` entries
/// are affirmations (they accumulate in the group's `votes`), `⊥`-replies
/// are dissents, and a dissent set larger than `f` decides `⊥`. The
/// engine's set0-reset on affirmation is exactly line 17 (`set⊥ <- ∅`).
///
/// # Errors
///
/// Returns [`byzreg_runtime::Error::Shutdown`] if the system shuts down
/// mid-operation.
pub fn read_groups<V: Value>(env: &Env, groups: &[&EngineParts<Slot<V>>]) -> Result<Vec<Slot<V>>> {
    let (n, f) = (env.n(), env.f());
    let votes = std::cell::RefCell::new(vec![std::collections::BTreeMap::new(); groups.len()]);
    let shape: Vec<_> = groups.iter().map(|&parts| (parts, 1)).collect();
    let outcomes = quorum_groups(
        env,
        &shape,
        |g, _, _, u_j: &Slot<V>| match u_j {
            Some(v) => {
                // Lines 15-16: setval ∪= {⟨uj, pj⟩} (each pj classifies at
                // most once, so counting per value is exact).
                *votes.borrow_mut()[g].entry(v.clone()).or_insert(0) += 1;
                Ballot::Affirm
            }
            None => Ballot::Dissent, // lines 18-19
        },
        |g, _, _n1, n_bot| {
            // Lines 20-21: a value witnessed by >= n−f processes wins.
            if let Some((v, _)) = votes.borrow()[g].iter().find(|(_, c)| **c >= n - f) {
                return Some(Some(v.clone()));
            }
            // Line 22.
            (n_bot > f).then_some(None)
        },
    )?;
    Ok(outcomes.into_iter().map(|mut o| o.remove(0)).collect())
}

impl<V: Value> std::fmt::Debug for StickyReader<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StickyReader({})", self.pid)
    }
}

// ---------------------------------------------------------------------------
// Help task (lines 23-40)
// ---------------------------------------------------------------------------

struct HelpTask3<V: Value> {
    env: Env,
    shared: SharedPorts<V>,
    echo_w: WritePort<Slot<V>>,
    witness_w: WritePort<Slot<V>>,
    replies_w: Vec<WritePort<Reply<V>>>,
    tracker: AskerTracker,
    /// The versions of every `E_i` before the last run of lines 25-30.
    echoes: Inputs,
    /// The versions of every `R_i` before the last run of lines 34-36.
    witnesses: Inputs,
}

impl<V: Value> HelpTask3<V> {
    /// Sets the witness register to `v` if it is still `⊥` (guarded; the
    /// guard preserves the sequential-process semantics of `Rj = ⊥` checks).
    fn witness_if_unset(&self, v: V) {
        self.witness_w.update(|slot| {
            if slot.is_none() {
                *slot = Some(v);
            }
        });
    }
}

impl<V: Value> byzreg_runtime::HelpTask for HelpTask3<V> {
    fn tick(&mut self) -> bool {
        let n = self.env.n();
        let f = self.env.f();

        // Lines 25-30 read only E_1, the E_i and the helper's own registers,
        // and a run leaves nothing to do for the same E_i: an echo it writes
        // moves E_j, a witness it writes only turns line 28's guard off. So
        // they rerun only once some E_i moved.
        if self.echoes.moved(self.shared.echo.iter().map(ReadPort::version)) {
            // Lines 25-27: echo the first non-⊥ value seen in E1.
            if self.echo_w.read().is_none() {
                let e1 = self.shared.echo[0].read(); // line 26: ej <- E1
                if e1.is_some() {
                    // Line 27, guarded: only the first echo sticks. The guard
                    // also prevents p1's help thread from clobbering p1's own
                    // Write (owner RMW; see register::update docs).
                    self.echo_w.update(|slot| {
                        if slot.is_none() {
                            *slot = e1;
                        }
                    });
                }
            }

            // Lines 28-30: become a witness of v after n−f echoes of v.
            if self.witness_w.read().is_none() {
                let echoes: Vec<Slot<V>> = self.shared.echo.iter().map(ReadPort::read).collect();
                if let Some(v) = majority_value(&echoes, n - f) {
                    self.witness_if_unset(v);
                }
            }
        }

        // Lines 31-32: sample C_k, compute askers.
        let (ck, askers) = self.tracker.poll(&self.shared.fabric.askers);
        if askers.is_empty() {
            return false; // line 33
        }

        // Lines 34-36: with an asker waiting, also accept f+1 witnesses —
        // again only once some R_i moved since the last run.
        if self.witnesses.moved(self.shared.witness.iter().map(ReadPort::version))
            && self.witness_w.read().is_none()
        {
            let witnesses: Vec<Slot<V>> = self.shared.witness.iter().map(ReadPort::read).collect();
            if let Some(v) = majority_value(&witnesses, f + 1) {
                self.witness_if_unset(v);
            }
        }

        // Line 37: rj <- Rj.
        let r_j = self.witness_w.read();
        // Lines 38-40.
        self.tracker.serve(&self.replies_w, &ck, &askers, &r_j)
    }
}

/// Returns a value `v ≠ ⊥` held by at least `threshold` of the given slots.
fn majority_value<V: Value>(slots: &[Slot<V>], threshold: usize) -> Option<V> {
    let mut counts: std::collections::BTreeMap<&V, usize> = std::collections::BTreeMap::new();
    for v in slots.iter().flatten() {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts.into_iter().find(|(_, c)| *c >= threshold).map(|(v, _)| v.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Loads;
    use byzreg_runtime::{Scheduling, System};
    use std::collections::BTreeMap;

    fn sys(n: usize, seed: u64) -> System {
        System::builder(n).scheduling(Scheduling::Chaotic(seed)).build()
    }

    #[test]
    fn help_tick_with_unmoved_inputs_reads_only_its_own_register() {
        // Every E_i and R_i of an n = 4 instance holds 7; helper p3 ticks
        // on registers that count their loads.
        let (system, loads) = (System::builder(4).build(), Loads::default());
        let env = system.env();
        let pid = ProcessId::new;
        let slot = |name: String, i| loads.create(env, pid(i), name, Some(7u32));
        let (echo_w, echo): (Vec<_>, Vec<_>) = (1..=4).map(|i| slot(format!("E[{i}]"), i)).unzip();
        let (witness_w, witness): (Vec<_>, Vec<_>) =
            (1..=4).map(|i| slot(format!("R[{i}]"), i)).unzip();
        let fabric = QuorumFabric::install(env, &loads, &Roles::identity(4), None);
        let mut task = HelpTask3 {
            env: env.clone(),
            shared: SharedPorts { echo, witness, fabric: fabric.view.clone() },
            echo_w: echo_w[2].clone(),
            witness_w: witness_w[2].clone(),
            replies_w: fabric.ports[2].replies.clone(),
            tracker: AskerTracker::new(3),
            echoes: Inputs::default(),
            witnesses: Inputs::default(),
        };
        let mut tick = || {
            let (before, steps) = (loads.all(), env.gate().steps());
            env.run_as(pid(3), || byzreg_runtime::HelpTask::tick(&mut task));
            (env.gate().steps() - steps, loads.since(&before))
        };
        let ask = |ck| fabric.ports[1].asker.as_ref().unwrap().write(ck);
        let loaded = |names: &[(&str, usize)]| -> BTreeMap<String, usize> {
            names.iter().map(|&(name, n)| (name.to_owned(), n)).collect()
        };
        // With no asker the first tick runs only the echo stage: E_3 and
        // R_3 (both set, so no E_1 or E_i read) and the three C_k.
        assert_eq!(tick().0, 5);
        // Nothing moved and no asker: nothing read at all.
        assert_eq!(tick(), (0, BTreeMap::new()));
        // A new round: C_2, then R_3 for lines 34-36 (first run) and 37.
        ask(1);
        assert_eq!(tick().1, loaded(&[("C[2]", 1), ("R[3]", 2)]));
        // The next round reads C_2 and R_3 once: 3 steps with the reply.
        ask(2);
        assert_eq!(tick(), (3, loaded(&[("C[2]", 1), ("R[3]", 1)])));
        assert_eq!(fabric.view.replies[2][0].read(), (Some(7), 2));
        // A moved E_i reruns the echo stage (E_3 and R_3 set: no more).
        echo_w[3].write(Some(8));
        ask(3);
        assert_eq!(tick().1, loaded(&[("C[2]", 1), ("E[3]", 1), ("R[3]", 2)]));
        system.shutdown();
    }

    #[test]
    fn read_bottom_before_any_write() {
        let system = sys(4, 21);
        let reg = StickyRegister::<u32>::install(&system);
        let mut r = reg.reader(ProcessId::new(2));
        assert_eq!(r.read().unwrap(), None);
        system.shutdown();
    }

    #[test]
    fn write_then_read_returns_value() {
        let system = sys(4, 22);
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(5u32).unwrap();
        assert_eq!(r.read().unwrap(), Some(5));
        system.shutdown();
    }

    #[test]
    fn second_write_is_a_noop() {
        let system = sys(4, 23);
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        w.write(5u32).unwrap();
        w.write(9).unwrap(); // returns done but changes nothing (line 1)
        for k in 2..=4 {
            let mut r = reg.reader(ProcessId::new(k));
            assert_eq!(r.read().unwrap(), Some(5), "reader p{k}");
        }
        system.shutdown();
    }

    #[test]
    fn completed_write_is_visible_to_all_readers() {
        // §9.1: the n−f witness wait makes the written value immediately
        // readable — never ⊥ after Write returns.
        let system = sys(7, 24);
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        w.write(3u32).unwrap();
        for k in 2..=7 {
            let mut r = reg.reader(ProcessId::new(k));
            assert_eq!(r.read().unwrap(), Some(3));
        }
        system.shutdown();
    }

    #[test]
    fn lockstep_terminates() {
        let system = System::builder(4).scheduling(Scheduling::Lockstep(7)).build();
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(3));
        assert_eq!(r.read().unwrap(), None);
        w.write(1u32).unwrap();
        assert_eq!(r.read().unwrap(), Some(1));
        system.shutdown();
    }

    #[test]
    fn byzantine_writer_cannot_make_readers_disagree() {
        // The adversary writes different values into E1 over time and stuffs
        // its reply registers; correct readers must never return two
        // different non-⊥ values (Obs. 24 / Cor. 182).
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(25))
            .byzantine(ProcessId::new(1))
            .build();
        let reg = StickyRegister::install(&system);
        let ports = reg.attack_ports(ProcessId::new(1));
        let mut flip = 0u32;
        system.spawn_byzantine(ProcessId::new(1), move || {
            flip += 1;
            ports.echo.write(Some(if flip % 2 == 0 { 111 } else { 222 }));
            ports.witness.write(Some(if flip % 3 == 0 { 111 } else { 222 }));
            let reply = Some(if flip % 2 == 0 { 222 } else { 111 });
            ports.fabric.reply_all(&ports.shared.fabric, &reply);
            flip < 10_000
        });
        let mut got = Vec::new();
        for k in 2..=4 {
            let mut r = reg.reader(ProcessId::new(k));
            for _ in 0..3 {
                if let Some(v) = r.read().unwrap() {
                    got.push(v);
                }
            }
        }
        // All non-⊥ reads agree.
        got.dedup();
        assert!(got.len() <= 1, "readers observed disagreeing values: {got:?}");
        system.shutdown();
    }

    #[test]
    fn history_is_recorded() {
        let system = sys(4, 26);
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(2));
        w.write(1u32).unwrap();
        let _ = r.read().unwrap();
        system.shutdown();
        let ops = reg.history().complete_ops();
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn majority_value_thresholds() {
        let slots = vec![Some(1u32), Some(1), None, Some(2)];
        assert_eq!(majority_value(&slots, 2), Some(1));
        assert_eq!(majority_value(&slots, 3), None);
        assert_eq!(majority_value::<u32>(&[None, None], 1), None);
    }
}
