//! The sharded multi-register store.
//!
//! A [`ByzStore`] maps keys to independent [`SignatureRegister`] instances
//! of one family, instantiated lazily on first touch. Routing is
//! shard-level: a key's shard is a stable hash of the key, and all store
//! metadata (the key → register map) is locked per shard, so operations on
//! keys in different shards never contend on the store itself — only the
//! hosting [`System`]'s help engines are shared.
//!
//! The batched paths are where the store earns its keep under load:
//! [`ByzStore::verify_many`] groups a batch of `(key, value)` checks by
//! key, dedupes identical checks, and **fuses** every key into one
//! cross-register §5.1 round sequence — a single logical asker counter
//! per reader drives all touched registers' voting loops in lockstep
//! ([`SignatureVerifier::verify_fused`]), so a batch spanning many keys
//! costs the slowest key's rounds, not the sum of every key's rounds.
//! [`ByzStore::read_many`] does the same for reads: each distinct key is
//! read once, and every key's quorum rounds run in one fused round
//! sequence ([`SignatureVerifier::read_fused`]). Under skewed (Zipf-like)
//! traffic the dedupe amortizes hot keys; under spread-out traffic the
//! fusion amortizes the cold ones. The single-key [`ByzStore::read`] and
//! [`ByzStore::verify`] are one-key batches.
//!
//! **Helping is partitioned by shard**: each store shard owns one
//! demand-driven help shard of the hosting [`System`], and every key's
//! `Help()` tasks are registered under its shard. A shard with no pending
//! quorum round parks its engine entirely — so background helping cost
//! (and, over the MP backend, background quorum traffic) scales with the
//! *actively used* keys of the touched shards instead of with every
//! instantiated key, and the help-engine thread budget is the shard count
//! regardless of how many keys are live. On backends that support it
//! (`byzreg-mp`), a shard's keys additionally share one scheduler task, so
//! a fused cross-key batch wakes one task per touched shard instead of one
//! per base register.

use std::collections::HashMap;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use byzreg_core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
use byzreg_runtime::{Env, HelpShard, ProcessId, RegisterFactory, Result, System, Value};

/// Store-level tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Number of shards the key space is routed over. More shards means
    /// less metadata contention between unrelated keys.
    pub shards: usize,
}

impl Default for StoreConfig {
    /// Eight shards — enough to keep a handful of worker threads off each
    /// other's locks without bloating per-store state.
    fn default() -> Self {
        StoreConfig { shards: 8 }
    }
}

/// One key's slot: the register instance plus its operation handles.
///
/// The signer is taken at install time (each register has a unique
/// writer); verifier handles are taken once per reader pid and shared
/// behind a mutex, since handles apply their process's operations
/// sequentially.
struct Entry<V: Value, R: SignatureRegister<V>> {
    register: R,
    signer: Mutex<R::Signer>,
    verifiers: Mutex<HashMap<ProcessId, Arc<Mutex<R::Verifier>>>>,
    _values: PhantomData<fn() -> V>,
}

impl<V: Value, R: SignatureRegister<V>> Entry<V, R> {
    fn verifier(&self, pid: ProcessId) -> Arc<Mutex<R::Verifier>> {
        let mut map = self.verifiers.lock();
        Arc::clone(
            map.entry(pid).or_insert_with(|| Arc::new(Mutex::new(self.register.verifier(pid)))),
        )
    }
}

struct Shard<K: Value, V: Value, R: SignatureRegister<V>> {
    entries: Mutex<HashMap<K, Arc<Entry<V, R>>>>,
}

/// A sharded map from keys to lazily-instantiated signature registers.
///
/// Generic over the key type `K`, the stored value type `V`, the register
/// family `R`, and the base-register backend `F` — pass `LocalFactory`
/// for in-process shared memory or (a reference to) `byzreg_mp::MpFactory`
/// to run every key's register over the message-passing emulation.
///
/// Any operation on a key instantiates its register on first touch; a
/// read of a never-written key therefore returns the family's initial
/// value (`v0` for verifiable/authenticated, `None` for sticky).
pub struct ByzStore<'s, K: Value, V: Value, R: SignatureRegister<V>, F: RegisterFactory> {
    system: &'s System,
    factory: F,
    v0: V,
    shards: Vec<Shard<K, V, R>>,
    /// One help shard per store shard: key `k`'s help tasks live on
    /// `help[shard_of(k)]`, demand-gated (see module docs).
    help: Vec<HelpShard>,
}

impl<'s, K: Value, V: Value, R: SignatureRegister<V>, F: RegisterFactory> ByzStore<'s, K, V, R, F> {
    /// Creates an empty store over `system`, sourcing every register's base
    /// registers from the shared `factory`.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    #[must_use]
    pub fn new(system: &'s System, factory: F, v0: V, config: StoreConfig) -> Self {
        assert!(config.shards >= 1, "a store needs at least one shard");
        let shards =
            (0..config.shards).map(|_| Shard { entries: Mutex::new(HashMap::new()) }).collect();
        let help = (0..config.shards).map(|_| system.new_help_shard()).collect();
        ByzStore { system, factory, v0, shards, help }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to (stable across the process lifetime).
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Number of keys whose registers have been instantiated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// `true` if no key has been touched yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instantiated keys per shard (routing-balance diagnostics).
    #[must_use]
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.entries.lock().len()).collect()
    }

    /// The entry for `key`, installing its register on first touch. Only
    /// `key`'s shard is locked; installation happens under that lock so a
    /// key can never get two competing register instances.
    ///
    /// Installation registers the key's help tasks on the shard's help
    /// shard (demand-driven) and hints the backend that the key's base
    /// registers belong to the shard's co-scheduling group.
    fn entry(&self, key: &K) -> Arc<Entry<V, R>> {
        let idx = self.shard_of(key);
        let shard = &self.shards[idx];
        let mut entries = shard.entries.lock();
        if let Some(e) = entries.get(key) {
            return Arc::clone(e);
        }
        let help = &self.help[idx];
        // Close the backend group even if the install panics (n <= 3f).
        struct GroupScope<'f, G: RegisterFactory>(&'f G);
        impl<G: RegisterFactory> Drop for GroupScope<'_, G> {
            fn drop(&mut self) {
                self.0.close_group();
            }
        }
        self.factory.open_group(help.id() as u64);
        let scope = GroupScope(&self.factory);
        let register = R::install_in_shard(
            self.system,
            self.v0.clone(),
            &self.factory,
            help,
            ProcessId::new(1),
        );
        drop(scope);
        let signer = Mutex::new(register.signer());
        let e = Arc::new(Entry {
            register,
            signer,
            verifiers: Mutex::new(HashMap::new()),
            _values: PhantomData,
        });
        entries.insert(key.clone(), Arc::clone(&e));
        e
    }

    /// Writes `v` under `key` and signs it (one atomic writer-side step
    /// pair; families with implicitly-signed writes make the sign a no-op).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn write(&self, key: K, v: V) -> Result<()> {
        let entry = self.entry(&key);
        let mut signer = entry.signer.lock();
        signer.write_value(v.clone())?;
        let signed = signer.sign_value(&v)?;
        debug_assert!(signed, "signing a just-written value always succeeds");
        Ok(())
    }

    /// Reads `key`'s register as reader `pid`. `None` is the sticky `⊥`.
    /// A one-key [`read_many`](ByzStore::read_many): for one key the fused
    /// read takes exactly the steps of the register's own `Read`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer or declared Byzantine.
    pub fn read(&self, pid: ProcessId, key: &K) -> Result<Option<V>> {
        Ok(self.read_many(pid, std::slice::from_ref(key))?.remove(0))
    }

    /// Checks `v`'s signature property under `key` as reader `pid`. A
    /// one-check [`verify_many`](ByzStore::verify_many): for one check the
    /// fused run takes exactly the steps of the register's own `Verify`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer or declared Byzantine.
    pub fn verify(&self, pid: ProcessId, key: &K, v: &V) -> Result<bool> {
        Ok(self.verify_many(pid, &[(key.clone(), v.clone())])?[0])
    }

    /// Reads a batch of keys in **one** fused cross-register read
    /// ([`SignatureVerifier::read_fused`]): each distinct key is read once,
    /// and every key's quorum rounds (the authenticated `Read`'s internal
    /// `Verify(−)`, the sticky `Read`) share one §5.1 round sequence driven
    /// by a single logical asker counter per reader, so a batch spanning
    /// `m` keys waits for the slowest key's rounds instead of the sum of
    /// all keys' rounds. Results are in input order; semantically
    /// equivalent to calling [`read`](ByzStore::read) once per key.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer or declared Byzantine.
    pub fn read_many(&self, pid: ProcessId, keys: &[K]) -> Result<Vec<Option<V>>> {
        self.fused(pid, keys, |env, readers, slots| {
            let values = R::Verifier::read_fused(env, readers)?;
            Ok(slots.iter().map(|&s| values[s].clone()).collect())
        })
    }

    /// Verifies a batch of `(key, value)` checks, amortizing the quorum
    /// machinery across the **whole batch, across keys**: checks are
    /// grouped by key, identical checks are deduped, and every key joins
    /// one **fused** cross-register round sequence driven by a single
    /// logical asker counter per reader
    /// ([`SignatureVerifier::verify_fused`]) — one shared round cursor
    /// fanned out to every touched register, so a batch spanning `m` keys
    /// waits for the slowest key's rounds instead of the sum of all keys'
    /// rounds. A sticky key's checks are all answered by one fused `Read`.
    /// Results are in input order; semantically equivalent to calling
    /// [`verify`](ByzStore::verify) once per check.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is the writer or declared Byzantine.
    pub fn verify_many(&self, pid: ProcessId, checks: &[(K, V)]) -> Result<Vec<bool>> {
        self.fused(pid, checks.iter().map(|(key, _)| key), |env, verifiers, slots| {
            // Dedupe identical values per key: verify once, fan the answer
            // back out to every duplicate check.
            let mut values: Vec<Vec<V>> = vec![Vec::new(); verifiers.len()];
            let at: Vec<(usize, usize)> = checks
                .iter()
                .zip(slots)
                .map(|((_, v), &s)| {
                    let vs = &mut values[s];
                    let i = vs.iter().position(|x| x == v).unwrap_or_else(|| {
                        vs.push(v.clone());
                        vs.len() - 1
                    });
                    (s, i)
                })
                .collect();
            let groups: Vec<_> =
                verifiers.iter().zip(&values).map(|(&r, vs)| (r, vs.as_slice())).collect();
            let outcomes = R::Verifier::verify_fused(env, &groups)?;
            Ok(at.into_iter().map(|(s, i)| outcomes[s][i]).collect())
        })
    }

    /// The prelude every batch shares. Takes `keys`' distinct keys in
    /// sorted order and their reader-`pid` verifier handles, and locks the
    /// handles in that order: one global lock order, so concurrent batches
    /// can never deadlock. Then runs `run(env, verifiers, slots)` as `pid`,
    /// where `slots[i]` is the index in `verifiers` of the `i`-th input
    /// key. Every handle stays locked for the whole run (a fused run owns
    /// each key's asker counter until the batch is decided).
    fn fused<'k, T>(
        &self,
        pid: ProcessId,
        keys: impl IntoIterator<Item = &'k K>,
        run: impl FnOnce(&Env, &[&R::Verifier], &[usize]) -> Result<T>,
    ) -> Result<T>
    where
        K: 'k,
    {
        let keys: Vec<&K> = keys.into_iter().collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let slots: Vec<usize> =
            keys.iter().map(|k| distinct.binary_search(k).expect("a batch key")).collect();
        let handles: Vec<_> = distinct.iter().map(|k| self.entry(k).verifier(pid)).collect();
        let guards: Vec<_> = handles.iter().map(|h| h.lock()).collect();
        let verifiers: Vec<&R::Verifier> = guards.iter().map(|g| &**g).collect();
        let env = self.system.env();
        env.check_running()?;
        env.run_as(pid, || run(env, &verifiers, &slots))
    }
}

impl<K: Value, V: Value, R: SignatureRegister<V>, F: RegisterFactory> std::fmt::Debug
    for ByzStore<'_, K, V, R, F>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzStore")
            .field("family", &R::FAMILY)
            .field("shards", &self.shard_count())
            .field("keys", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_core::{AuthenticatedRegister, Family, StickyRegister, VerifiableRegister};
    use byzreg_runtime::LocalFactory;

    fn roundtrip<R: SignatureRegister<u64>>() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, R, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
        assert!(store.is_empty());
        store.write(1, 100).unwrap();
        store.write(2, 200).unwrap();
        assert_eq!(store.len(), 2, "{}: lazily instantiated on write", R::FAMILY);
        let p2 = ProcessId::new(2);
        assert_eq!(store.read(p2, &1).unwrap(), Some(100), "{}", R::FAMILY);
        assert!(store.verify(p2, &1, &100).unwrap(), "{}", R::FAMILY);
        assert!(!store.verify(p2, &1, &200).unwrap(), "{}: 200 lives under key 2", R::FAMILY);
        system.shutdown();
    }

    #[test]
    fn write_read_verify_roundtrip_all_families() {
        roundtrip::<VerifiableRegister<u64>>();
        roundtrip::<AuthenticatedRegister<u64>>();
        roundtrip::<StickyRegister<u64>>();
    }

    #[test]
    fn sticky_store_keys_are_first_write_wins() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, StickyRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
        store.write(5, 50).unwrap();
        store.write(5, 99).unwrap(); // no-op: key 5 is stuck on 50
        let p3 = ProcessId::new(3);
        assert_eq!(store.read(p3, &5).unwrap(), Some(50));
        assert!(store.verify(p3, &5, &50).unwrap());
        assert!(!store.verify(p3, &5, &99).unwrap());
        system.shutdown();
    }

    #[test]
    fn verify_many_matches_per_check_loop_and_dedupes() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
        store.write(1, 10).unwrap();
        store.write(2, 20).unwrap();
        let p2 = ProcessId::new(2);
        // Hot key 1 appears four times (twice with an identical check).
        let checks = vec![(1u64, 10u64), (2, 20), (1, 11), (1, 10), (3, 30), (1, 12), (2, 21)];
        let batched = store.verify_many(p2, &checks).unwrap();
        let looped: Vec<bool> =
            checks.iter().map(|(k, v)| store.verify(p2, k, v).unwrap()).collect();
        assert_eq!(batched, looped);
        assert_eq!(batched, vec![true, true, false, true, false, false, false]);
        system.shutdown();
    }

    #[test]
    fn verify_many_fused_across_keys_matches_loop_for_all_families() {
        // Every family routes through the fused cross-key engine (one
        // logical asker counter per reader; sticky keys as one fused
        // `Read` each). All must agree with the per-check loop.
        fn drive<R: SignatureRegister<u64>>() {
            let system = System::builder(4).build();
            let store: ByzStore<'_, u64, u64, R, _> =
                ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
            for key in 1..=4u64 {
                store.write(key, key * 10).unwrap();
            }
            let p3 = ProcessId::new(3);
            let checks: Vec<(u64, u64)> =
                vec![(1, 10), (4, 40), (2, 99), (3, 30), (1, 11), (2, 20), (4, 40)];
            let batched = store.verify_many(p3, &checks).unwrap();
            let looped: Vec<bool> =
                checks.iter().map(|(k, v)| store.verify(p3, k, v).unwrap()).collect();
            assert_eq!(batched, looped, "{}", R::FAMILY);
            assert_eq!(batched, vec![true, true, false, true, false, true, true], "{}", R::FAMILY);
            system.shutdown();
        }
        drive::<VerifiableRegister<u64>>();
        drive::<AuthenticatedRegister<u64>>();
        drive::<StickyRegister<u64>>();
    }

    #[test]
    fn read_many_answers_duplicates_from_one_read() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, AuthenticatedRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
        store.write(7, 70).unwrap();
        let p2 = ProcessId::new(2);
        let got = store.read_many(p2, &[7, 8, 7, 7, 8]).unwrap();
        assert_eq!(got, vec![Some(70), Some(0), Some(70), Some(70), Some(0)]);
        system.shutdown();
    }

    #[test]
    fn read_many_matches_per_key_loop_for_all_families() {
        // Every family's batch runs as one fused read; it must agree with
        // the per-key loop, duplicate and never-written keys included.
        fn drive<R: SignatureRegister<u64>>() {
            let system = System::builder(4).build();
            let store: ByzStore<'_, u64, u64, R, _> =
                ByzStore::new(&system, LocalFactory, 5, StoreConfig { shards: 2 });
            for key in 1..=4u64 {
                store.write(key, key * 10).unwrap();
            }
            let p3 = ProcessId::new(3);
            let keys = [4u64, 9, 1, 4, 2, 9, 3, 1, 12];
            let batched = store.read_many(p3, &keys).unwrap();
            let looped: Vec<_> = keys.iter().map(|k| store.read(p3, k).unwrap()).collect();
            assert_eq!(batched, looped, "{}", R::FAMILY);
            let unwritten = if R::FAMILY == Family::Sticky { None } else { Some(5) };
            let want: Vec<_> =
                keys.iter().map(|&k| if k <= 4 { Some(k * 10) } else { unwritten }).collect();
            assert_eq!(batched, want, "{}", R::FAMILY);
            assert!(store.read_many(p3, &[]).unwrap().is_empty(), "{}", R::FAMILY);
            system.shutdown();
        }
        drive::<VerifiableRegister<u64>>();
        drive::<AuthenticatedRegister<u64>>();
        drive::<StickyRegister<u64>>();
    }

    #[test]
    fn shard_routing_is_stable_and_spreads_keys() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig { shards: 8 });
        assert_eq!(store.shard_count(), 8);
        for key in 0u64..64 {
            assert_eq!(store.shard_of(&key), store.shard_of(&key), "stable routing");
            store.write(key, key).unwrap();
        }
        let loads = store.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 64);
        let used = loads.iter().filter(|l| **l > 0).count();
        assert!(used >= 4, "64 keys should spread over most of 8 shards, got {loads:?}");
        system.shutdown();
    }

    #[test]
    fn reads_instantiate_with_the_initial_value() {
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 42, StoreConfig::default());
        let p2 = ProcessId::new(2);
        assert_eq!(store.read(p2, &999).unwrap(), Some(42), "v0 of a never-written key");
        assert_eq!(store.len(), 1, "the read instantiated the key");
        system.shutdown();
    }

    #[test]
    fn help_engine_threads_stay_within_the_shard_budget_at_512_keys() {
        // The partitioning guarantee: a store's help-engine thread count is
        // its shard count, independent of how many keys are instantiated.
        // (Pre-partitioning, helping also cost only n threads, but every
        // engine round looped over all keys; now a key costs engine work
        // only while its shard has pending demand.)
        let system = System::builder(4).build();
        let store: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig { shards: 8 });
        for key in 0..512u64 {
            store.write(key, key).unwrap();
        }
        assert_eq!(store.len(), 512);
        assert!(
            system.help_engine_threads() <= 8,
            "512 keys must share the 8 shard engines, got {}",
            system.help_engine_threads()
        );
        // The store stays serviceable: quorum verifies wake the right shard.
        let p2 = ProcessId::new(2);
        assert!(store.verify(p2, &17, &17).unwrap());
        assert!(!store.verify(p2, &17, &99).unwrap());
        system.shutdown();
    }

    #[test]
    fn sharded_helping_serves_all_families_with_byzantine_processes() {
        // Per-shard helping must preserve liveness with f processes silent:
        // every quorum decision below succeeds although the declared-
        // Byzantine pid contributes no help tasks to any shard.
        fn drive<R: SignatureRegister<u64>>() {
            let system = System::builder(4).byzantine(ProcessId::new(4)).build();
            let store: ByzStore<'_, u64, u64, R, _> =
                ByzStore::new(&system, LocalFactory, 0, StoreConfig { shards: 4 });
            for key in 0..16u64 {
                store.write(key, key + 100).unwrap();
            }
            let p2 = ProcessId::new(2);
            for key in 0..16u64 {
                assert_eq!(store.read(p2, &key).unwrap(), Some(key + 100), "{}", R::FAMILY);
                assert!(store.verify(p2, &key, &(key + 100)).unwrap(), "{}", R::FAMILY);
            }
            system.shutdown();
        }
        drive::<VerifiableRegister<u64>>();
        drive::<AuthenticatedRegister<u64>>();
        drive::<StickyRegister<u64>>();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let system = System::builder(4).build();
        let _: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
            ByzStore::new(&system, LocalFactory, 0, StoreConfig { shards: 0 });
    }
}
