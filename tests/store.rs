//! Store acceptance workloads: a seeded mixed workload over a 1024-key
//! space with 8 shards and a nonzero Byzantine fraction runs to completion
//! for every register family, on both the shared-memory and the
//! message-passing backend (the batched-vs-looped equivalence itself is
//! unit-tested in `byzreg-store`; the perf comparison lives in
//! `BENCH_store.json` via the `store_workload` driver). Also: fused
//! `read_many` batches racing a writer see each key's values in write
//! order, and overlapping batches in opposite key orders never deadlock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use byzreg::core::api::SignatureRegister;
use byzreg::core::{AuthenticatedRegister, Family, StickyRegister, VerifiableRegister};
use byzreg::mp::MpFactory;
use byzreg::runtime::{LocalFactory, ProcessId, RegisterFactory, System};
use byzreg::store::workload::{build_system, run_workload, WorkloadConfig};
use byzreg::store::{ByzStore, StoreConfig, WorkloadReport};

/// The shared-memory acceptance shape: full key space and shard count,
/// mixed 40/30/30 ops, two writer + two reader threads, one Byzantine
/// process out of five.
fn shm_cfg() -> WorkloadConfig {
    WorkloadConfig {
        keys: 1024,
        shards: 8,
        ops: 96,
        read_pct: 40,
        write_pct: 30,
        batch: 8,
        skew: 0.8,
        writers: 2,
        readers: 2,
        n: 5,
        byzantine: 1,
        prepopulate: false,
        seed: 13,
    }
}

/// The message-passing acceptance shape: same key space and shards, far
/// fewer operations and a hotter key set — every instantiated key spawns
/// an emulated register fabric with its own node threads.
fn mp_cfg() -> WorkloadConfig {
    WorkloadConfig {
        keys: 1024,
        shards: 8,
        ops: 12,
        read_pct: 40,
        write_pct: 35,
        batch: 4,
        skew: 0.97,
        writers: 1,
        readers: 1,
        n: 4,
        byzantine: 1,
        prepopulate: false,
        seed: 13,
    }
}

fn check(report: &WorkloadReport, cfg: &WorkloadConfig) {
    assert_eq!(report.ops, cfg.ops, "{}/{}", report.family, report.backend);
    assert_eq!(
        report.write.count + report.read.count + report.verify.count,
        cfg.ops,
        "{}/{}: every item must be measured",
        report.family,
        report.backend
    );
    assert!(report.byzantine > 0, "the acceptance workload requires a Byzantine fraction");
    assert!(report.distinct_keys > 0 && report.distinct_keys as u64 <= cfg.keys);
    assert!(report.ops_per_sec > 0.0);
}

fn shm_workload<R: SignatureRegister<u64>>() {
    let cfg = shm_cfg();
    let system = build_system(&cfg);
    let report = run_workload::<R, _>(&system, LocalFactory, "shm", &cfg).unwrap();
    system.shutdown();
    check(&report, &cfg);
}

fn mp_workload<R: SignatureRegister<u64>>() {
    let cfg = mp_cfg();
    let system = build_system(&cfg);
    let factory = MpFactory::default();
    let report = run_workload::<R, _>(&system, &factory, "mp", &cfg).unwrap();
    system.shutdown();
    check(&report, &cfg);
}

#[test]
fn shm_store_workload_verifiable() {
    shm_workload::<VerifiableRegister<u64>>();
}

#[test]
fn shm_store_workload_authenticated() {
    shm_workload::<AuthenticatedRegister<u64>>();
}

#[test]
fn shm_store_workload_sticky() {
    shm_workload::<StickyRegister<u64>>();
}

#[test]
fn mp_store_workload_verifiable() {
    mp_workload::<VerifiableRegister<u64>>();
}

#[test]
fn mp_store_workload_authenticated() {
    mp_workload::<AuthenticatedRegister<u64>>();
}

#[test]
fn mp_store_workload_sticky() {
    mp_workload::<StickyRegister<u64>>();
}

/// Rounds of the racing writer: round `i` writes `1000 k + i` to key `k`.
const ROUNDS: u64 = 24;
const KEYS: u64 = 8;

/// One writer thread writes increasing values to 8 keys while reader `p2`
/// calls `read_many` over all of them (in a shuffled order, with repeats)
/// until the writer is done; after each round of writes the writer waits
/// for two more batches, so every round races some reads. Every result
/// must be a value written to that key, or the initial value, and a key's
/// results never go backwards. The read after the writer finished sees
/// each key's last write (its first, for a sticky key).
fn read_many_races_a_writer<R: SignatureRegister<u64>, F: RegisterFactory + Sync>(factory: F) {
    let system = System::builder(4).build();
    let store: ByzStore<'_, u64, u64, R, F> =
        ByzStore::new(&system, factory, 0, StoreConfig { shards: 4 });
    let v0 = if R::FAMILY == Family::Sticky { None } else { Some(0) };
    let keys = [5, 0, 7, 2, 5, 1, 6, 3, 4, 0];
    let p2 = ProcessId::new(2);
    let check = |last: &mut Vec<Option<u64>>| {
        let got = store.read_many(p2, &keys).unwrap();
        for (&key, value) in keys.iter().zip(got) {
            if value != v0 {
                let v = value.expect("only the sticky v0 is None");
                assert!(
                    v / 1000 == key && (1..=ROUNDS).contains(&(v % 1000)),
                    "{}: key {key} read {v}, never written to it",
                    R::FAMILY
                );
            }
            let slot = &mut last[key as usize];
            assert!(
                value >= *slot,
                "{}: key {key} went back from {slot:?} to {value:?}",
                R::FAMILY
            );
            *slot = value;
        }
    };
    let mut last = vec![v0; KEYS as usize];
    let batches = AtomicU64::new(0);
    let reading = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 1..=ROUNDS {
                for key in 0..KEYS {
                    store.write(key, 1000 * key + i).unwrap();
                }
                let seen = batches.load(Ordering::SeqCst);
                while batches.load(Ordering::SeqCst) < seen + 2 && reading.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        });
        // If a check fails, stop the writer waiting for batches, so the
        // scope can join it and report the failure.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _release = Release(&reading);
        while !writer.is_finished() {
            check(&mut last);
            batches.fetch_add(1, Ordering::SeqCst);
        }
        writer.join().unwrap();
    });
    check(&mut last);
    let round = if R::FAMILY == Family::Sticky { 1 } else { ROUNDS };
    let want: Vec<_> = (0..KEYS).map(|key| Some(1000 * key + round)).collect();
    assert_eq!(last, want, "{}", R::FAMILY);
    system.shutdown();
}

#[test]
fn read_many_races_a_writer_shm() {
    read_many_races_a_writer::<VerifiableRegister<u64>, _>(LocalFactory);
    read_many_races_a_writer::<AuthenticatedRegister<u64>, _>(LocalFactory);
    read_many_races_a_writer::<StickyRegister<u64>, _>(LocalFactory);
}

#[test]
fn read_many_races_a_writer_mp() {
    read_many_races_a_writer::<VerifiableRegister<u64>, _>(&MpFactory::default());
    read_many_races_a_writer::<AuthenticatedRegister<u64>, _>(&MpFactory::default());
    read_many_races_a_writer::<StickyRegister<u64>, _>(&MpFactory::default());
}

/// Readers `p2` and `p3`, and a second `p2` thread, start together and
/// issue overlapping `read_many` and `verify_many` batches over the same
/// 12 keys: the two `p2` threads list the keys in opposite orders, and
/// each thread's verifies list them opposite to its reads. Batches lock
/// their keys' verifier handles in one global (sorted) order, so all of
/// them finish; the wait below is bounded, so a deadlock fails the test
/// instead of hanging it.
#[test]
fn overlapping_batches_in_reversed_key_orders_never_deadlock() {
    const ROUNDS: usize = 12;
    let system: &'static System = Box::leak(Box::new(System::builder(4).build()));
    let store: &'static ByzStore<'static, u64, u64, AuthenticatedRegister<u64>, LocalFactory> =
        Box::leak(Box::new(ByzStore::new(system, LocalFactory, 0, StoreConfig { shards: 4 })));
    for key in 0..12u64 {
        store.write(key, key + 100).unwrap();
    }
    let ascending: Vec<u64> = (0..12).collect();
    let descending: Vec<u64> = ascending.iter().rev().copied().collect();
    let (done, finished) = mpsc::channel();
    let start = Arc::new(Barrier::new(3));
    let threads: Vec<_> = [(2, &ascending), (3, &descending), (2, &descending)]
        .into_iter()
        .map(|(pid, keys)| {
            let (done, keys, start) = (done.clone(), keys.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let pid = ProcessId::new(pid);
                let checks: Vec<(u64, u64)> = keys.iter().rev().map(|&k| (k, k + 100)).collect();
                start.wait();
                for _ in 0..ROUNDS {
                    let read = store.read_many(pid, &keys).unwrap();
                    assert!(read.iter().zip(&keys).all(|(v, k)| *v == Some(k + 100)));
                    assert!(store.verify_many(pid, &checks).unwrap().iter().all(|ok| *ok));
                }
                done.send(()).unwrap();
            })
        })
        .collect();
    drop(done);
    for _ in 0..threads.len() {
        match finished.recv_timeout(Duration::from_secs(120)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => panic!("a batch thread is stuck after 120 s"),
            // Every thread has exited, one of them by a panic: the joins
            // below report it.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for thread in threads {
        thread.join().expect("a batch thread panicked");
    }
    system.shutdown();
}
