//! The `SignatureRegister` trait layer: one interface over all three
//! register families of the paper.
//!
//! Algorithms 1–3 share a shape — a unique writer installs values, any
//! reader can later check them, and a check that once succeeded can never
//! be denied — but differ in *when* a value becomes checkable:
//!
//! | family | `sign_value` | `verify_value(v)` is `true` iff |
//! |---|---|---|
//! | [`VerifiableRegister`] | explicit `Sign(v)` | a successful `Sign(v)` happened |
//! | [`AuthenticatedRegister`] | implicit (each write auto-signs) | `v` was written (or `v = v0`) |
//! | [`StickyRegister`] | implicit (the first write wins) | `v` is the stuck value |
//!
//! The traits make that difference a *parameter* instead of three parallel
//! APIs: generic harnesses (see `byzreg-bench` and `tests/families.rs`)
//! drive every family through one code path, over any
//! [`RegisterFactory`] — including the message-passing emulation of
//! `byzreg-mp`.
//!
//! # Example
//!
//! ```
//! use byzreg_core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
//! use byzreg_core::{AuthenticatedRegister, StickyRegister, VerifiableRegister};
//! use byzreg_runtime::{ProcessId, Result, System};
//!
//! fn smoke<R: SignatureRegister<u64>>(system: &System) -> Result<bool> {
//!     let reg = R::install_default(system, 0);
//!     let mut writer = reg.signer();
//!     let mut reader = reg.verifier(ProcessId::new(2));
//!     writer.write_value(7)?;
//!     writer.sign_value(&7)?;
//!     reader.verify_value(&7)
//! }
//!
//! # fn main() -> Result<()> {
//! let system = System::builder(4).build();
//! assert!(smoke::<VerifiableRegister<u64>>(&system)?);
//! assert!(smoke::<AuthenticatedRegister<u64>>(&system)?);
//! assert!(smoke::<StickyRegister<u64>>(&system)?);
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use byzreg_runtime::{
    Env, HelpShard, LocalFactory, ProcessId, RegisterFactory, Result, System, Value,
};

use crate::quorum::{verify_groups, EngineParts};

use crate::authenticated::{AuthenticatedReader, AuthenticatedRegister, AuthenticatedWriter};
use crate::sticky::{read_groups, StickyReader, StickyRegister, StickyWriter};
use crate::verifiable::{VerifiableReader, VerifiableRegister, VerifiableWriter};

/// The shared `verify_fused` body of the two families whose readers run
/// the §5.1 `Verify` rule: one [`verify_groups`] run over each group
/// reader's engine handles.
fn verify_fused_parts<V: Value, R>(
    env: &Env,
    groups: &[(&R, &[V])],
    parts: fn(&R) -> &EngineParts<BTreeSet<V>>,
) -> Result<Vec<Vec<bool>>> {
    let groups: Vec<_> = groups.iter().map(|&(r, vs)| (parts(r), vs)).collect();
    verify_groups(env, &groups)
}

/// The three register families of the paper, for labeling generic output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Algorithm 1: explicit `Sign`/`Verify`.
    Verifiable,
    /// Algorithm 2: every write atomically signed.
    Authenticated,
    /// Algorithm 3: the first write sticks forever.
    Sticky,
}

impl Family {
    /// A short lowercase label (stable; used in bench ids and test names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Family::Verifiable => "verifiable",
            Family::Authenticated => "authenticated",
            Family::Sticky => "sticky",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A writer handle in the trait layer.
pub trait SignatureSigner<V: Value>: Send {
    /// Writes `v` into the register.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn write_value(&mut self, v: V) -> Result<()>;

    /// Makes `v` verifiable. Families whose writes are implicitly signed
    /// (authenticated, sticky) return `Ok(true)` without taking steps.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn sign_value(&mut self, v: &V) -> Result<bool>;
}

/// A reader handle in the trait layer.
pub trait SignatureVerifier<V: Value>: Send {
    /// The reader's process id.
    fn pid(&self) -> ProcessId;

    /// Reads the register; `None` is the sticky `⊥` (the other families
    /// always return `Some`).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn read_value(&mut self) -> Result<Option<V>>;

    /// Checks `v`'s signature property — `Verify(v)` for Algorithms 1–2,
    /// "is `v` the stuck value" for Algorithm 3. Once this returns `true`
    /// for a correct process, it returns `true` forever, for everyone.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn verify_value(&mut self, v: &V) -> Result<bool>;

    /// Checks the signature property of every value in `vs`, returning one
    /// outcome per value, in order.
    ///
    /// Semantically equivalent to calling
    /// [`verify_value`](SignatureVerifier::verify_value) once per value —
    /// which is exactly what the default does. Families override it to
    /// amortize the §5.1 quorum machinery across the batch: the
    /// verifiable/authenticated readers run **one** shared round sequence
    /// for the whole batch (`byzreg_core::quorum::verify_groups`), and
    /// the sticky reader answers every check from a single quorum read of
    /// its immutable content.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        vs.iter().map(|v| self.verify_value(v)).collect()
    }

    /// Checks every group's values against the group's reader handle in
    /// **one** fused run of the §5.1 engine
    /// ([`crate::quorum::quorum_groups`]): one shared round sequence with
    /// one logical asker counter per reader drives every touched register
    /// instance, returning one outcome vector per group. All handles must
    /// belong to the same reader of the same system `env`; the caller
    /// enters the step gate as that reader. The keyed store's
    /// `verify_many` is the consumer.
    ///
    /// Checks decided through a fused run are not recorded in any
    /// instance's operation history: the history log is per-instance
    /// (diagnostics and spec monitors), while a fused run spans many. Only
    /// a register built by its family's inherent `install` records at all;
    /// every other install, the keyed store's path included, records
    /// nothing (`HistoryLog::off`).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    fn verify_fused(env: &Env, groups: &[(&Self, &[V])]) -> Result<Vec<Vec<bool>>>
    where
        Self: Sized;
}

/// An installed register instance of one family.
///
/// `v0` is the family's initial value; the sticky register ignores it (its
/// initial content is `⊥` by Definition 21).
pub trait SignatureRegister<V: Value>: Sized + Send + Sync + 'static {
    /// This family's writer handle type.
    type Signer: SignatureSigner<V>;
    /// This family's reader handle type.
    type Verifier: SignatureVerifier<V>;

    /// Which family this is (for labels in generic harnesses).
    const FAMILY: Family;

    /// Installs the register on `system` with in-process base registers, a
    /// help shard of its own and `p1` as the writer.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (Theorem 31).
    fn install_default(system: &System, v0: V) -> Self {
        let shard = system.new_help_shard();
        Self::install_in_shard(system, v0, &LocalFactory, &shard, ProcessId::new(1))
    }

    /// Installs the register with `writer` playing the writer role, base
    /// registers from `factory` (e.g. the message-passing emulation of
    /// `byzreg-mp`) and its `Help()` tasks hosted on the demand-driven help
    /// shard `shard` (see `byzreg_runtime::HelpShard`): helpers tick only
    /// while an operation that depends on them is in flight on one of the
    /// shard's instances, and a shard with nothing pending parks. This is
    /// the one install path, the family's inherent `install_in_shard`: the
    /// keyed store installs every key under the key's shard, an application
    /// object puts all its per-sender registers on one shard, and
    /// [`install_default`](SignatureRegister::install_default) gets a shard
    /// of its own.
    ///
    /// The installed register records no operation history
    /// (`HistoryLog::off`): its operations append no events and never tick
    /// the system's clock. The family's inherent `install` records one.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    fn install_in_shard<F: RegisterFactory>(
        system: &System,
        v0: V,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self;

    /// The unique writer handle.
    ///
    /// # Panics
    ///
    /// Panics if taken twice or if the writer is declared Byzantine.
    fn signer(&self) -> Self::Signer;

    /// The reader handle for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer, taken twice, or declared Byzantine.
    fn verifier(&self, pid: ProcessId) -> Self::Verifier;
}

// ---------------------------------------------------------------------------
// Algorithm 1: verifiable
// ---------------------------------------------------------------------------

impl<V: Value> SignatureRegister<V> for VerifiableRegister<V> {
    type Signer = VerifiableWriter<V>;
    type Verifier = VerifiableReader<V>;
    const FAMILY: Family = Family::Verifiable;

    fn install_in_shard<F: RegisterFactory>(
        system: &System,
        v0: V,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self {
        VerifiableRegister::install_in_shard(system, v0, factory, shard, writer)
    }

    fn signer(&self) -> Self::Signer {
        self.writer()
    }

    fn verifier(&self, pid: ProcessId) -> Self::Verifier {
        self.reader(pid)
    }
}

impl<V: Value> SignatureSigner<V> for VerifiableWriter<V> {
    fn write_value(&mut self, v: V) -> Result<()> {
        self.write(v)
    }

    fn sign_value(&mut self, v: &V) -> Result<bool> {
        self.sign(v)
    }
}

impl<V: Value> SignatureVerifier<V> for VerifiableReader<V> {
    fn pid(&self) -> ProcessId {
        VerifiableReader::pid(self)
    }

    fn read_value(&mut self) -> Result<Option<V>> {
        self.read().map(Some)
    }

    fn verify_value(&mut self, v: &V) -> Result<bool> {
        self.verify(v)
    }

    fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        VerifiableReader::verify_many(self, vs)
    }

    fn verify_fused(env: &Env, groups: &[(&Self, &[V])]) -> Result<Vec<Vec<bool>>> {
        verify_fused_parts(env, groups, |r| &r.parts)
    }
}

// ---------------------------------------------------------------------------
// Algorithm 2: authenticated
// ---------------------------------------------------------------------------

impl<V: Value> SignatureRegister<V> for AuthenticatedRegister<V> {
    type Signer = AuthenticatedWriter<V>;
    type Verifier = AuthenticatedReader<V>;
    const FAMILY: Family = Family::Authenticated;

    fn install_in_shard<F: RegisterFactory>(
        system: &System,
        v0: V,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self {
        AuthenticatedRegister::install_in_shard(system, v0, factory, shard, writer)
    }

    fn signer(&self) -> Self::Signer {
        self.writer()
    }

    fn verifier(&self, pid: ProcessId) -> Self::Verifier {
        self.reader(pid)
    }
}

impl<V: Value> SignatureSigner<V> for AuthenticatedWriter<V> {
    fn write_value(&mut self, v: V) -> Result<()> {
        self.write(v)
    }

    /// Every authenticated write is atomically signed (Definition 15);
    /// there is nothing left to do.
    fn sign_value(&mut self, _v: &V) -> Result<bool> {
        Ok(true)
    }
}

impl<V: Value> SignatureVerifier<V> for AuthenticatedReader<V> {
    fn pid(&self) -> ProcessId {
        AuthenticatedReader::pid(self)
    }

    fn read_value(&mut self) -> Result<Option<V>> {
        self.read().map(Some)
    }

    fn verify_value(&mut self, v: &V) -> Result<bool> {
        self.verify(v)
    }

    fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        AuthenticatedReader::verify_many(self, vs)
    }

    fn verify_fused(env: &Env, groups: &[(&Self, &[V])]) -> Result<Vec<Vec<bool>>> {
        verify_fused_parts(env, groups, |r| &r.parts)
    }
}

// ---------------------------------------------------------------------------
// Algorithm 3: sticky
// ---------------------------------------------------------------------------

impl<V: Value> SignatureRegister<V> for StickyRegister<V> {
    type Signer = StickyWriter<V>;
    type Verifier = StickyReader<V>;
    const FAMILY: Family = Family::Sticky;

    /// The sticky register's initial value is ⊥ (Definition 21); `v0` is
    /// meaningless for this family and deliberately ignored.
    fn install_in_shard<F: RegisterFactory>(
        system: &System,
        _v0: V,
        factory: &F,
        shard: &HelpShard,
        writer: ProcessId,
    ) -> Self {
        StickyRegister::install_in_shard(system, factory, shard, writer)
    }

    fn signer(&self) -> Self::Signer {
        self.writer()
    }

    fn verifier(&self, pid: ProcessId) -> Self::Verifier {
        self.reader(pid)
    }
}

impl<V: Value> SignatureSigner<V> for StickyWriter<V> {
    fn write_value(&mut self, v: V) -> Result<()> {
        self.write(v)
    }

    /// A completed sticky write is already unforgeable and undeniable
    /// (Obs. 22–24); signing is implicit in `write_value`.
    fn sign_value(&mut self, _v: &V) -> Result<bool> {
        Ok(true)
    }
}

impl<V: Value> SignatureVerifier<V> for StickyReader<V> {
    fn pid(&self) -> ProcessId {
        StickyReader::pid(self)
    }

    fn read_value(&mut self) -> Result<Option<V>> {
        self.read()
    }

    /// `verify_value(v)` over a sticky register: "is `v` the register's
    /// immutable content" — first-write-wins makes this a signature check.
    fn verify_value(&mut self, v: &V) -> Result<bool> {
        Ok(self.read()?.as_ref() == Some(v))
    }

    /// One quorum read answers the whole batch: the register content never
    /// changes, so every check compares against the same stuck value.
    fn verify_many(&mut self, vs: &[V]) -> Result<Vec<bool>> {
        if vs.is_empty() {
            return Ok(Vec::new());
        }
        let stuck = self.read()?;
        Ok(vs.iter().map(|v| stuck.as_ref() == Some(v)).collect())
    }

    /// One fused sticky `Read` per group answers all of the group's checks.
    fn verify_fused(env: &Env, groups: &[(&Self, &[V])]) -> Result<Vec<Vec<bool>>> {
        let parts: Vec<_> = groups.iter().map(|&(r, _)| &r.parts).collect();
        let stuck = read_groups(env, &parts)?;
        Ok(groups
            .iter()
            .zip(stuck)
            .map(|(&(_, vs), s)| vs.iter().map(|v| s.as_ref() == Some(v)).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::{Scheduling, System};

    fn family_smoke<R: SignatureRegister<u32>>(system: &System) {
        let reg = R::install_default(system, 0);
        let mut w = reg.signer();
        let mut r = reg.verifier(ProcessId::new(2));
        assert!(!r.verify_value(&7).unwrap(), "{}: nothing signed yet", R::FAMILY);
        w.write_value(7).unwrap();
        assert!(w.sign_value(&7).unwrap(), "{}: sign must succeed", R::FAMILY);
        assert_eq!(r.read_value().unwrap(), Some(7), "{}", R::FAMILY);
        assert!(r.verify_value(&7).unwrap(), "{}: signed value verifies", R::FAMILY);
    }

    #[test]
    fn all_families_pass_one_generic_smoke() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(5)).build();
        family_smoke::<VerifiableRegister<u32>>(&system);
        family_smoke::<AuthenticatedRegister<u32>>(&system);
        family_smoke::<StickyRegister<u32>>(&system);
        system.shutdown();
    }

    fn batch_matches_loop<R: SignatureRegister<u32>>(system: &System) {
        let reg = R::install_default(system, 0);
        let mut w = reg.signer();
        let mut r = reg.verifier(ProcessId::new(2));
        w.write_value(3).unwrap();
        assert!(w.sign_value(&3).unwrap());
        let vs = [3u32, 8, 3, 5];
        let batched = r.verify_many(&vs).unwrap();
        let looped: Vec<bool> = vs.iter().map(|v| r.verify_value(v).unwrap()).collect();
        assert_eq!(batched, looped, "{}: batched != per-value loop", R::FAMILY);
        assert_eq!(batched, vec![true, false, true, false], "{}", R::FAMILY);
        assert!(r.verify_many(&[]).unwrap().is_empty(), "{}", R::FAMILY);
    }

    #[test]
    fn verify_many_agrees_with_per_value_verify_for_all_families() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(9)).build();
        batch_matches_loop::<VerifiableRegister<u32>>(&system);
        batch_matches_loop::<AuthenticatedRegister<u32>>(&system);
        batch_matches_loop::<StickyRegister<u32>>(&system);
        system.shutdown();
    }

    /// Runs one write, sign, read and verify on `reg` and returns how far
    /// they moved the system's history clock.
    fn clock_ticks_of_ops<R: SignatureRegister<u32>>(system: &System, reg: R) -> u64 {
        let clock = system.env().clock();
        let mut w = reg.signer();
        let mut r = reg.verifier(ProcessId::new(2));
        let before = clock.now();
        w.write_value(3).unwrap();
        assert!(w.sign_value(&3).unwrap(), "{}", R::FAMILY);
        assert_eq!(r.read_value().unwrap(), Some(3), "{}", R::FAMILY);
        assert!(r.verify_value(&3).unwrap(), "{}", R::FAMILY);
        clock.now() - before
    }

    /// Neither `install_default` nor the inherent `install_in_shard`
    /// (`inherent`, given a fresh shard) records: their ops leave the clock
    /// alone.
    fn records_nothing<R: SignatureRegister<u32>>(
        system: &System,
        inherent: impl FnOnce(&HelpShard) -> R,
    ) {
        let reg = R::install_default(system, 0);
        assert_eq!(clock_ticks_of_ops(system, reg), 0, "{}: install_default", R::FAMILY);
        let reg = inherent(&system.new_help_shard());
        assert_eq!(clock_ticks_of_ops(system, reg), 0, "{}: install_in_shard", R::FAMILY);
    }

    #[test]
    fn trait_installs_record_nothing_and_leave_the_clock_alone() {
        let system = System::builder(4).build();
        let (s, p3) = (&system, ProcessId::new(3));
        records_nothing(s, |h| VerifiableRegister::install_in_shard(s, 0, &LocalFactory, h, p3));
        records_nothing(s, |h| AuthenticatedRegister::install_in_shard(s, 0, &LocalFactory, h, p3));
        records_nothing(s, |h| StickyRegister::install_in_shard(s, &LocalFactory, h, p3));
        let reg =
            <AuthenticatedRegister<u32> as SignatureRegister<u32>>::install_default(&system, 0);
        reg.signer().write_value(1).unwrap();
        assert!(reg.history().is_empty());
        // The inherent `install` records, stamped by the clock.
        let reg = AuthenticatedRegister::install(&system, 0u32);
        let before = system.env().clock().now();
        reg.writer().write(1).unwrap();
        assert_eq!(reg.history().len(), 2);
        assert_eq!(system.env().clock().now() - before, 2);
        system.shutdown();
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(Family::Verifiable.label(), "verifiable");
        assert_eq!(Family::Authenticated.to_string(), "authenticated");
        assert_eq!(Family::Sticky.label(), "sticky");
    }

    #[test]
    fn sticky_verify_is_first_write_wins() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(6)).build();
        let reg = <StickyRegister<u32> as SignatureRegister<u32>>::install_default(&system, 0);
        let mut w = reg.signer();
        let mut r = reg.verifier(ProcessId::new(3));
        w.write_value(5).unwrap();
        w.write_value(9).unwrap(); // no-op: the register is stuck on 5
        assert!(r.verify_value(&5).unwrap());
        assert!(!r.verify_value(&9).unwrap(), "the second write never happened");
        system.shutdown();
    }
}
