//! B6 — shared-memory vs message-passing instantiation: base-register
//! read/write latency on the local lock-backed cell versus the `n > 3f`
//! signature-free MP emulation (quorum round trips).
//!
//! The `substrate-mp` group times single emulated accesses in the shapes
//! the MP-backed store makes: `n = 4` with `p4` declared Byzantine and
//! silent, 200 µs of seeded jitter, one thread. It has an owner write and
//! a non-owner read of a reply-register value `(BTreeSet{1, 2}, counter)`
//! and an owner write of a fresh `u64` (the shape of the asker's `C_k`).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use byzreg_mp::{MpConfig, MpRegister, NetConfig};
use byzreg_runtime::{register, FreeGate, ProcessId, StepGate};

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));

    // Local shared-memory cell.
    let gate: Arc<dyn StepGate> = Arc::new(FreeGate::new());
    let (w, r) = register::swmr(gate, ProcessId::new(1), "R", 0u64);
    group.bench_function("local/write", |b| b.iter(|| w.write(7)));
    group.bench_function("local/read", |b| b.iter(|| assert_eq!(r.read(), 7)));

    // Message-passing emulation, n = 4, f = 1.
    let reg = MpRegister::spawn(&MpConfig::new(4), 0u64);
    let writer = reg.client(ProcessId::new(1));
    let reader = reg.client(ProcessId::new(2));
    writer.write(7);
    group.bench_function("mp/write", |b| b.iter(|| writer.write(7)));
    group.bench_function("mp/read", |b| {
        b.iter(|| {
            let (_, v) = reader.read();
            assert_eq!(v, 7);
        })
    });
    reg.shutdown();

    group.finish();
}

/// `n = 4`, `p4` silent, 200 µs jitter: the store's MP register shape.
fn store_shaped_config() -> MpConfig {
    let mut config = MpConfig::new(4);
    config.byzantine = vec![ProcessId::new(4)];
    config.net = NetConfig::jittery(Duration::from_micros(200), 7);
    config
}

fn bench_store_shaped_mp(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-mp");
    group.sample_size(2000);

    let set: BTreeSet<u64> = [1, 2].into_iter().collect();
    let reply = MpRegister::spawn(&store_shaped_config(), (BTreeSet::new(), 0u64));
    let writer = reply.client(ProcessId::new(1));
    let reader = reply.client(ProcessId::new(2));
    let mut counter = 0u64;
    group.bench_function("reply/owner-write", |b| {
        b.iter(|| {
            counter += 1;
            writer.write((set.clone(), counter));
        })
    });
    group.bench_function("reply/non-owner-read", |b| {
        b.iter(|| {
            let (_, (read, _)) = reader.read();
            assert_eq!(read, set);
        })
    });
    reply.shutdown();

    let cell = MpRegister::spawn(&store_shaped_config(), 0u64);
    let writer = cell.client(ProcessId::new(1));
    let mut next = 0u64;
    group.bench_function("u64/owner-update", |b| {
        b.iter(|| {
            next += 1;
            writer.write(next);
        })
    });
    cell.shutdown();

    group.finish();
}

criterion_group!(benches, bench_ops, bench_store_shaped_mp);
criterion_main!(benches);
