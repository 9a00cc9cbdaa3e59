//! E7 — the §1/§2 application claim: signature-free reliable broadcast and
//! atomic snapshot (the "first known" such implementations), compared
//! against the signature-based baseline, plus asset transfer.

use byzreg::apps::{AssetTransfer, AtomicSnapshot, NonEquivocatingBroadcast, ReliableBroadcast};
use byzreg::crypto::{CostModel, SignatureOracle, SignedVerifiableRegister};
use byzreg::runtime::{ProcessId, Scheduling, System};

/// Signature-free non-equivocation under an equivocating Byzantine sender:
/// the property the sticky register was designed for.
#[test]
fn non_equivocation_under_byzantine_sender() {
    let system = System::builder(4)
        .scheduling(Scheduling::Chaotic(101))
        .byzantine(ProcessId::new(1))
        .build();
    let neb = NonEquivocatingBroadcast::<u64>::install(&system);
    let ports = neb.attack_ports(ProcessId::new(1));
    let mut i = 0u64;
    system.spawn_byzantine(ProcessId::new(1), move || {
        i += 1;
        ports.echo.write(Some(i % 2));
        ports.fabric.reply_all(&ports.shared.fabric, &Some((i + 1) % 2));
        i < 30_000
    });
    let mut delivered = Vec::new();
    for k in 2..=4 {
        let mut ep = neb.endpoint(ProcessId::new(k));
        for _ in 0..3 {
            if let Some(m) = ep.deliver_from(ProcessId::new(1)).unwrap() {
                delivered.push(m);
            }
        }
    }
    delivered.dedup();
    assert!(delivered.len() <= 1, "correct processes delivered different messages: {delivered:?}");
    system.shutdown();
}

/// Reliable broadcast: validity + totality + FIFO across three senders.
#[test]
fn reliable_broadcast_stream_properties() {
    let system = System::builder(4).scheduling(Scheduling::Chaotic(102)).build();
    let rb = ReliableBroadcast::install(&system, 3);
    let mut eps: Vec<_> = (1..=4).map(|i| rb.endpoint(ProcessId::new(i))).collect();
    for (i, ep) in eps.iter_mut().enumerate() {
        for s in 0..3u32 {
            ep.broadcast((i as u32) * 10 + s).unwrap();
        }
    }
    // Every receiver gets every sender's full FIFO stream.
    for (i, ep) in eps.iter_mut().enumerate() {
        for s in 0..4usize {
            if i == s {
                continue;
            }
            let msgs = ep.deliver_all(ProcessId::new(s + 1)).unwrap();
            let expected: Vec<(usize, u32)> =
                (0..3).map(|x| (x, (s as u32) * 10 + x as u32)).collect();
            assert_eq!(msgs, expected, "receiver p{} sender p{}", i + 1, s + 1);
        }
    }
    system.shutdown();
}

/// Atomic snapshot under concurrent updates: the final scans agree and
/// contain the last completed updates.
#[test]
fn snapshot_under_concurrent_updates() {
    let system = System::builder(4).scheduling(Scheduling::Chaotic(103)).build();
    let snap = AtomicSnapshot::install(&system, 0u32);
    let mut handles = Vec::new();
    for k in 2..=4 {
        let mut h = snap.handle(ProcessId::new(k));
        handles.push(std::thread::spawn(move || {
            for v in 1..=3u32 {
                h.update(k as u32 * 100 + v).unwrap();
                let _ = h.scan().unwrap();
            }
            h
        }));
    }
    let mut finished: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let views: Vec<Vec<u32>> = finished.iter_mut().map(|h| h.scan().unwrap()).collect();
    for v in &views {
        assert_eq!(*v, views[0], "quiescent scans agree");
    }
    assert_eq!(views[0][1], 203);
    assert_eq!(views[0][2], 303);
    assert_eq!(views[0][3], 403);
    system.shutdown();
}

/// Help engines running on a fresh `n`-process system once `install` has
/// put one application object on it.
fn help_engines_of<T>(n: usize, install: impl FnOnce(&System) -> T) -> usize {
    let system = System::builder(n).build();
    let object = install(&system);
    let engines = system.help_engine_threads();
    drop(object);
    system.shutdown();
    engines
}

/// Every application object puts all of its per-sender registers on one
/// help shard, so it runs on one help engine however many registers it
/// holds (4, 32, 4 and 112 registers below).
#[test]
fn each_app_object_runs_on_one_help_engine() {
    assert_eq!(help_engines_of(4, NonEquivocatingBroadcast::<u64>::install), 1, "NEB, n = 4");
    let rb = help_engines_of(4, |s| ReliableBroadcast::<u64>::install(s, 8));
    assert_eq!(rb, 1, "RB, n = 4, 8 slots");
    let snapshot = help_engines_of(4, |s| AtomicSnapshot::install(s, 0u64));
    assert_eq!(snapshot, 1, "snapshot, n = 4");
    let transfer = help_engines_of(7, |s| AssetTransfer::install(s, 100, 16));
    assert_eq!(transfer, 1, "asset transfer, n = 7, 16 slots");
}

/// Asset transfer: a Byzantine account owner cannot double-spend, because
/// its outgoing transfers are a single agreed FIFO stream.
#[test]
fn asset_transfer_money_is_conserved() {
    let system = System::builder(4).scheduling(Scheduling::Chaotic(104)).build();
    let at = AssetTransfer::install(&system, 100, 4);
    let mut wallets: Vec<_> = (1..=4).map(|i| at.wallet(ProcessId::new(i))).collect();
    assert!(wallets[0].transfer(ProcessId::new(2), 60).unwrap());
    assert!(wallets[0].transfer(ProcessId::new(3), 40).unwrap());
    // Account p1 is now empty; a further transfer is rejected.
    assert!(!wallets[0].transfer(ProcessId::new(4), 1).unwrap());
    for w in wallets.iter_mut() {
        let total: u64 = (1..=4).map(|a| w.balance(a).unwrap()).sum();
        assert_eq!(total, 400);
        assert_eq!(w.balance(1).unwrap(), 0);
        assert_eq!(w.balance(2).unwrap(), 160);
    }
    system.shutdown();
}

/// The signature-based baseline provides the same verify/relay interface
/// with `n = 2f + 1` (fewer processes than the signature-free `3f + 1`) —
/// the trade-off the paper's abstract states.
#[test]
fn signed_baseline_needs_fewer_processes() {
    // n = 3, f = 1: impossible without signatures (Theorem 31), fine with.
    let system = System::builder(3).resilience(1).build();
    let oracle = SignatureOracle::new(CostModel::free());
    let reg = SignedVerifiableRegister::install(&system, 0u32, &oracle);
    let mut w = reg.writer();
    let mut r2 = reg.reader(ProcessId::new(2));
    let mut r3 = reg.reader(ProcessId::new(3));
    w.write(5).unwrap();
    w.sign(&5).unwrap();
    assert!(r2.verify(&5).unwrap());
    assert!(r3.verify(&5).unwrap());
    assert!(!r2.verify(&6).unwrap());
    system.shutdown();
}
