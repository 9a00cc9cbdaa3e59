//! §10: the **test-or-set** object.
//!
//! A test-or-set object (Definition 26) is a register initialized to 0 that
//! one process (the *setter*) can set to 1 and others (*testers*) can test;
//! `Test` returns 1 iff a `Set` occurs before it. The paper uses it to prove
//! the `n > 3f` bound optimal:
//!
//! * Observation 30: test-or-set **is** implementable — wait-free, for any
//!   `n > f` — from a verifiable, authenticated, or sticky register. The
//!   three constructions are [`TosFromVerifiable`], [`TosFromAuthenticated`],
//!   and [`TosFromSticky`].
//! * Theorem 29: it is **not** implementable from plain SWMR registers when
//!   `3 ≤ n ≤ 3f`. The [`naive`] module implements the natural
//!   witness-quorum attempts sketched in §5.1 from plain registers; the
//!   Figure 1 histories (see `tests/impossibility.rs` and experiment E1)
//!   break each of them in exactly the way the proof's case analysis
//!   predicts.
//!
//! All implementations record their operations against the
//! [`TestOrSetSpec`](byzreg_spec::registers::TestOrSetSpec) alphabet so the
//! Lemma 28 monitor and the linearizability checker can audit them.

use byzreg_runtime::{Env, HistoryLog, ProcessId, Result, System};
use byzreg_spec::registers::{TosInv, TosResp};

use crate::authenticated::{AuthenticatedReader, AuthenticatedRegister, AuthenticatedWriter};
use crate::sticky::{StickyReader, StickyRegister, StickyWriter};
use crate::verifiable::{VerifiableReader, VerifiableRegister, VerifiableWriter};

/// The setter side of a test-or-set object.
pub trait TosSetter: Send {
    /// `Set` — sets the object to 1.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn set(&mut self) -> Result<()>;
}

/// The tester side of a test-or-set object.
pub trait TosTester: Send {
    /// `Test` — returns `true` for 1.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn test(&mut self) -> Result<bool>;
}

/// The recorded test-or-set history type.
pub type TosHistory = HistoryLog<TosInv, TosResp>;

// ---------------------------------------------------------------------------
// From a verifiable register (§10)
// ---------------------------------------------------------------------------

/// Test-or-set from a SWMR **verifiable** register initialized to `0`:
/// `Set = Write(1); Sign(1)`, `Test = Verify(1)`.
pub struct TosFromVerifiable {
    reg: VerifiableRegister<u8>,
    log: TosHistory,
}

impl TosFromVerifiable {
    /// Installs the construction on `system`.
    #[must_use]
    pub fn install(system: &System) -> Self {
        let reg = VerifiableRegister::install(system, 0u8);
        let log = HistoryLog::new(system.env().clock());
        TosFromVerifiable { reg, log }
    }

    /// The unique setter handle (process `p1`).
    #[must_use]
    pub fn setter(&self) -> VerifiableTosSetter {
        VerifiableTosSetter { writer: self.reg.writer(), log: self.log.clone() }
    }

    /// A tester handle for reader `pid`.
    #[must_use]
    pub fn tester(&self, pid: ProcessId) -> VerifiableTosTester {
        VerifiableTosTester { reader: self.reg.reader(pid), log: self.log.clone() }
    }

    /// The recorded test-or-set history.
    #[must_use]
    pub fn history(&self) -> TosHistory {
        self.log.clone()
    }

    /// The backing register (e.g. to take attack ports).
    #[must_use]
    pub fn backing(&self) -> &VerifiableRegister<u8> {
        &self.reg
    }
}

/// Setter over a verifiable register.
pub struct VerifiableTosSetter {
    writer: VerifiableWriter<u8>,
    log: TosHistory,
}

impl TosSetter for VerifiableTosSetter {
    fn set(&mut self) -> Result<()> {
        let op = self.log.invoke(ProcessId::new(1), TosInv::Set);
        self.writer.write(1)?;
        let signed = self.writer.sign(&1)?;
        debug_assert!(signed, "Sign(1) must succeed right after Write(1)");
        self.log.respond(op, ProcessId::new(1), TosResp::Done);
        Ok(())
    }
}

/// Tester over a verifiable register.
pub struct VerifiableTosTester {
    reader: VerifiableReader<u8>,
    log: TosHistory,
}

impl TosTester for VerifiableTosTester {
    fn test(&mut self) -> Result<bool> {
        let pid = self.reader.pid();
        let op = self.log.invoke(pid, TosInv::Test);
        let one = self.reader.verify(&1)?;
        self.log.respond(op, pid, TosResp::TestResult(one));
        Ok(one)
    }
}

// ---------------------------------------------------------------------------
// From an authenticated register (§10)
// ---------------------------------------------------------------------------

/// Test-or-set from a SWMR **authenticated** register initialized to `0`:
/// `Set = Write(1)`, `Test = Verify(1)`.
pub struct TosFromAuthenticated {
    reg: AuthenticatedRegister<u8>,
    log: TosHistory,
}

impl TosFromAuthenticated {
    /// Installs the construction on `system`.
    #[must_use]
    pub fn install(system: &System) -> Self {
        let reg = AuthenticatedRegister::install(system, 0u8);
        let log = HistoryLog::new(system.env().clock());
        TosFromAuthenticated { reg, log }
    }

    /// The unique setter handle (process `p1`).
    #[must_use]
    pub fn setter(&self) -> AuthenticatedTosSetter {
        AuthenticatedTosSetter { writer: self.reg.writer(), log: self.log.clone() }
    }

    /// A tester handle for reader `pid`.
    #[must_use]
    pub fn tester(&self, pid: ProcessId) -> AuthenticatedTosTester {
        AuthenticatedTosTester { reader: self.reg.reader(pid), log: self.log.clone() }
    }

    /// The recorded test-or-set history.
    #[must_use]
    pub fn history(&self) -> TosHistory {
        self.log.clone()
    }

    /// The backing register.
    #[must_use]
    pub fn backing(&self) -> &AuthenticatedRegister<u8> {
        &self.reg
    }
}

/// Setter over an authenticated register.
pub struct AuthenticatedTosSetter {
    writer: AuthenticatedWriter<u8>,
    log: TosHistory,
}

impl TosSetter for AuthenticatedTosSetter {
    fn set(&mut self) -> Result<()> {
        let op = self.log.invoke(ProcessId::new(1), TosInv::Set);
        self.writer.write(1)?;
        self.log.respond(op, ProcessId::new(1), TosResp::Done);
        Ok(())
    }
}

/// Tester over an authenticated register.
pub struct AuthenticatedTosTester {
    reader: AuthenticatedReader<u8>,
    log: TosHistory,
}

impl TosTester for AuthenticatedTosTester {
    fn test(&mut self) -> Result<bool> {
        let pid = self.reader.pid();
        let op = self.log.invoke(pid, TosInv::Test);
        let one = self.reader.verify(&1)?;
        self.log.respond(op, pid, TosResp::TestResult(one));
        Ok(one)
    }
}

// ---------------------------------------------------------------------------
// From a sticky register (§10)
// ---------------------------------------------------------------------------

/// Test-or-set from a SWMR **sticky** register initialized to `⊥`:
/// `Set = Write(1)`, `Test = (Read() == 1)`.
pub struct TosFromSticky {
    reg: StickyRegister<u8>,
    log: TosHistory,
}

impl TosFromSticky {
    /// Installs the construction on `system`.
    #[must_use]
    pub fn install(system: &System) -> Self {
        let reg = StickyRegister::install(system);
        let log = HistoryLog::new(system.env().clock());
        TosFromSticky { reg, log }
    }

    /// The unique setter handle (process `p1`).
    #[must_use]
    pub fn setter(&self) -> StickyTosSetter {
        StickyTosSetter { writer: self.reg.writer(), log: self.log.clone() }
    }

    /// A tester handle for reader `pid`.
    #[must_use]
    pub fn tester(&self, pid: ProcessId) -> StickyTosTester {
        StickyTosTester { reader: self.reg.reader(pid), log: self.log.clone() }
    }

    /// The recorded test-or-set history.
    #[must_use]
    pub fn history(&self) -> TosHistory {
        self.log.clone()
    }

    /// The backing register.
    #[must_use]
    pub fn backing(&self) -> &StickyRegister<u8> {
        &self.reg
    }
}

/// Setter over a sticky register.
pub struct StickyTosSetter {
    writer: StickyWriter<u8>,
    log: TosHistory,
}

impl TosSetter for StickyTosSetter {
    fn set(&mut self) -> Result<()> {
        let op = self.log.invoke(ProcessId::new(1), TosInv::Set);
        self.writer.write(1)?;
        self.log.respond(op, ProcessId::new(1), TosResp::Done);
        Ok(())
    }
}

/// Tester over a sticky register.
pub struct StickyTosTester {
    reader: StickyReader<u8>,
    log: TosHistory,
}

impl TosTester for StickyTosTester {
    fn test(&mut self) -> Result<bool> {
        let pid = self.reader.pid();
        let op = self.log.invoke(pid, TosInv::Test);
        let one = self.reader.read()? == Some(1);
        self.log.respond(op, pid, TosResp::TestResult(one));
        Ok(one)
    }
}

// ---------------------------------------------------------------------------
// Naive implementations from plain registers (provably breakable, Thm 29)
// ---------------------------------------------------------------------------

pub mod naive {
    //! The "partial algorithm" of §5.1, implemented from **plain** SWMR
    //! registers — the natural witness-quorum attempts whose impossibility
    //! Theorem 29 proves for `3 ≤ n ≤ 3f`.
    //!
    //! Each process `p_i` owns a boolean *vouch* register `V_i` ("I am a
    //! witness that `Set` happened"). The setter's `Set` raises `V_1`;
    //! correct processes propagate (Srikanth–Toueg style): vouch upon seeing
    //! `V_1` or `f + 1` vouchers. Two decision rules are provided, matching
    //! the two horns of the proof's case analysis:
    //!
    //! * [`Rule::Threshold`] — `Test` returns 1 only with `f + 1` vouchers
    //!   (or upon reading `V_1` directly and awaiting propagation). Sound
    //!   against forgery, but the Figure 1 history **H2** makes it violate
    //!   the relay property, Lemma 28(3): after the Byzantine coalition
    //!   resets its registers, only `f` honest vouchers remain.
    //! * [`Rule::Gullible`] — `Test` returns 1 on *any* voucher. Relay-proof,
    //!   but the Figure 1 history **H3** makes `f` Byzantine vouchers forge
    //!   a `Set` that never happened, violating Lemma 28(2).

    use byzreg_runtime::{register, HelpDemandGuard, ReadPort, WritePort};

    use super::*;

    /// Decision rule of the naive tester (see module docs).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Rule {
        /// Return 1 only with `f + 1` concurrent vouchers.
        Threshold,
        /// Return 1 on any voucher.
        Gullible,
    }

    /// Write ports of one process of the naive implementation, for
    /// adversaries.
    pub struct AttackPorts {
        /// The faulty process.
        pub pid: ProcessId,
        /// Its vouch register `V_pid`.
        pub vouch: WritePort<bool>,
        /// Read access to every vouch register.
        pub all: Vec<ReadPort<bool>>,
    }

    /// A naive test-or-set object from plain SWMR boolean registers.
    pub struct NaiveTestOrSet {
        env: Env,
        rule: Rule,
        vouch_r: Vec<ReadPort<bool>>,
        endpoints: parking_lot::Mutex<Vec<Option<WritePort<bool>>>>,
        log: TosHistory,
        /// Keeps the propagation tasks ticking while the object lives.
        _help: HelpDemandGuard,
    }

    impl NaiveTestOrSet {
        /// Installs the naive object with the given decision `rule`.
        ///
        /// Deliberately does **not** require `n > 3f`: the whole point is to
        /// run it at `n ≤ 3f` and watch Theorem 29 bite.
        #[must_use]
        pub fn install(system: &System, rule: Rule) -> Self {
            Self::install_with_sleepers(system, rule, std::collections::HashMap::new())
        }

        /// Like [`NaiveTestOrSet::install`], but processes listed in
        /// `sleepers` keep their help task suspended while their flag is
        /// `true` — this stages the "asleep until t6" processes of the
        /// Figure 1 histories (the scheduler is under adversary control in
        /// the proof of Theorem 29).
        #[must_use]
        pub fn install_with_sleepers(
            system: &System,
            rule: Rule,
            sleepers: std::collections::HashMap<
                ProcessId,
                std::sync::Arc<std::sync::atomic::AtomicBool>,
            >,
        ) -> Self {
            let env = system.env().clone();
            let n = env.n();
            let gate = env.gate();
            let mut vouch_w = Vec::with_capacity(n);
            let mut vouch_r = Vec::with_capacity(n);
            for i in 1..=n {
                let (w, r) =
                    register::swmr(gate.clone(), ProcessId::new(i), format!("V[{i}]"), false);
                vouch_w.push(w);
                vouch_r.push(r);
            }
            // Propagation help task (correct processes only): vouch upon
            // seeing V_1 or f+1 vouchers. No operation asks for it, so the
            // object keeps its shard's demand for its whole lifetime.
            let shard = system.new_help_shard();
            let demand = shard.new_demand();
            for j in 1..=n {
                let all = vouch_r.clone();
                let own = vouch_w[j - 1].clone();
                let f = env.f();
                let asleep = sleepers.get(&ProcessId::new(j)).cloned();
                system.add_sharded_help_task(
                    &shard,
                    ProcessId::new(j),
                    &demand,
                    Box::new(move || {
                        if let Some(flag) = &asleep {
                            if flag.load(std::sync::atomic::Ordering::SeqCst) {
                                return; // taking no steps, per the schedule
                            }
                        }
                        if own.read() {
                            return;
                        }
                        let count = all.iter().filter(|r| r.read()).count();
                        if all[0].read() || count >= f + 1 {
                            own.write(true);
                        }
                    }),
                );
            }
            NaiveTestOrSet {
                env: env.clone(),
                rule,
                vouch_r,
                endpoints: parking_lot::Mutex::new(vouch_w.into_iter().map(Some).collect()),
                log: HistoryLog::new(env.clock()),
                _help: demand.begin(),
            }
        }

        /// The recorded history.
        #[must_use]
        pub fn history(&self) -> TosHistory {
            self.log.clone()
        }

        fn take(&self, pid: ProcessId) -> WritePort<bool> {
            self.endpoints.lock()[pid.zero_based()]
                .take()
                .unwrap_or_else(|| panic!("ports of {pid} already taken"))
        }

        /// The setter handle (`p1`).
        ///
        /// # Panics
        ///
        /// Panics if taken twice or `p1` is Byzantine.
        #[must_use]
        pub fn setter(&self) -> NaiveSetter {
            let pid = ProcessId::new(1);
            assert!(!self.env.is_faulty(pid), "p1 is Byzantine; take attack_ports");
            NaiveSetter { env: self.env.clone(), v1: self.take(pid), log: self.log.clone() }
        }

        /// A tester handle.
        ///
        /// # Panics
        ///
        /// Panics if `pid` is the setter, taken twice, or Byzantine.
        #[must_use]
        pub fn tester(&self, pid: ProcessId) -> NaiveTester {
            assert!(!pid.is_writer(), "p1 is the setter");
            assert!(!self.env.is_faulty(pid), "{pid} is Byzantine; take attack_ports");
            NaiveTester {
                env: self.env.clone(),
                pid,
                rule: self.rule,
                own: self.take(pid),
                all: self.vouch_r.clone(),
                log: self.log.clone(),
            }
        }

        /// The raw ports of a declared-Byzantine process.
        ///
        /// # Panics
        ///
        /// Panics if `pid` is correct or taken.
        #[must_use]
        pub fn attack_ports(&self, pid: ProcessId) -> AttackPorts {
            assert!(self.env.is_faulty(pid), "{pid} is correct");
            AttackPorts { pid, vouch: self.take(pid), all: self.vouch_r.clone() }
        }
    }

    /// The naive setter.
    pub struct NaiveSetter {
        env: Env,
        v1: WritePort<bool>,
        log: TosHistory,
    }

    impl TosSetter for NaiveSetter {
        fn set(&mut self) -> Result<()> {
            self.env.check_running()?;
            let op = self.log.invoke(ProcessId::new(1), TosInv::Set);
            self.env.run_as(ProcessId::new(1), || self.v1.write(true));
            self.log.respond(op, ProcessId::new(1), TosResp::Done);
            Ok(())
        }
    }

    /// The naive tester.
    pub struct NaiveTester {
        env: Env,
        pid: ProcessId,
        rule: Rule,
        own: WritePort<bool>,
        all: Vec<ReadPort<bool>>,
        log: TosHistory,
    }

    impl TosTester for NaiveTester {
        fn test(&mut self) -> Result<bool> {
            self.env.check_running()?;
            let op = self.log.invoke(self.pid, TosInv::Test);
            let f = self.env.f();
            let result = self.env.run_as(self.pid, || -> Result<bool> {
                loop {
                    self.env.check_running()?;
                    let vouchers = self.all.iter().filter(|r| r.read()).count();
                    match self.rule {
                        Rule::Gullible => {
                            // Believe anyone. (Terminates immediately.)
                            return Ok(vouchers >= 1);
                        }
                        Rule::Threshold => {
                            if vouchers >= f + 1 {
                                // Join the witnesses ourselves, then accept.
                                self.own.write(true);
                                return Ok(true);
                            }
                            // No direct evidence from the setter and not
                            // enough vouchers: reject.
                            if !self.all[0].read() && vouchers <= f {
                                return Ok(false);
                            }
                            // V_1 is raised: wait for propagation.
                        }
                    }
                }
            })?;
            self.log.respond(op, self.pid, TosResp::TestResult(result));
            Ok(result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive::{NaiveTestOrSet, Rule};
    use super::*;
    use byzreg_runtime::{Scheduling, System};
    use byzreg_spec::monitors::test_or_set_monitor;

    fn sys(n: usize, seed: u64) -> System {
        System::builder(n).scheduling(Scheduling::Chaotic(seed)).build()
    }

    fn run_happy_path(
        mut setter: impl TosSetter,
        mut t1: impl TosTester,
        mut t2: impl TosTester,
    ) -> (bool, bool, bool) {
        let before = t1.test().unwrap();
        setter.set().unwrap();
        let after1 = t1.test().unwrap();
        let after2 = t2.test().unwrap();
        (before, after1, after2)
    }

    #[test]
    fn from_verifiable_obeys_observation_27() {
        let system = sys(4, 31);
        let tos = TosFromVerifiable::install(&system);
        let (before, after1, after2) = run_happy_path(
            tos.setter(),
            tos.tester(ProcessId::new(2)),
            tos.tester(ProcessId::new(3)),
        );
        assert!(!before && after1 && after2);
        assert!(test_or_set_monitor(true, &tos.history().complete_ops()).is_ok());
        system.shutdown();
    }

    #[test]
    fn from_authenticated_obeys_observation_27() {
        let system = sys(4, 32);
        let tos = TosFromAuthenticated::install(&system);
        let (before, after1, after2) = run_happy_path(
            tos.setter(),
            tos.tester(ProcessId::new(2)),
            tos.tester(ProcessId::new(3)),
        );
        assert!(!before && after1 && after2);
        assert!(test_or_set_monitor(true, &tos.history().complete_ops()).is_ok());
        system.shutdown();
    }

    #[test]
    fn from_sticky_obeys_observation_27() {
        let system = sys(4, 33);
        let tos = TosFromSticky::install(&system);
        let (before, after1, after2) = run_happy_path(
            tos.setter(),
            tos.tester(ProcessId::new(2)),
            tos.tester(ProcessId::new(3)),
        );
        assert!(!before && after1 && after2);
        assert!(test_or_set_monitor(true, &tos.history().complete_ops()).is_ok());
        system.shutdown();
    }

    #[test]
    fn naive_threshold_works_without_faults() {
        // With n > 3f and nobody Byzantine the naive algorithm is fine —
        // the impossibility only bites at n <= 3f with real adversaries.
        let system = sys(4, 34);
        let tos = NaiveTestOrSet::install(&system, Rule::Threshold);
        let (before, after1, after2) = run_happy_path(
            tos.setter(),
            tos.tester(ProcessId::new(2)),
            tos.tester(ProcessId::new(3)),
        );
        assert!(!before && after1 && after2);
        system.shutdown();
    }

    #[test]
    fn naive_gullible_works_without_faults() {
        let system = sys(4, 35);
        let tos = NaiveTestOrSet::install(&system, Rule::Gullible);
        let (before, after1, after2) = run_happy_path(
            tos.setter(),
            tos.tester(ProcessId::new(2)),
            tos.tester(ProcessId::new(3)),
        );
        assert!(!before && after1 && after2);
        system.shutdown();
    }
}
