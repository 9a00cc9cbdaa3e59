//! E6 — the paper's message-passing corollary (§1, §11).
//!
//! SWMR registers exist in signature-free Byzantine message-passing systems
//! with `n > 3f` (Mostéfaoui–Petrolia–Raynal–Jard, cited as [11]), therefore
//! so do verifiable/authenticated/sticky registers. Here the corollary is
//! *executed*: the emulated register is checked for atomicity under faults,
//! and Algorithms 1 and 3 run unchanged over [`byzreg::mp::MpFactory`].

use std::time::Duration;

use byzreg::core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
use byzreg::core::{AuthenticatedRegister, Family, StickyRegister, VerifiableRegister};
use byzreg::mp::{MpConfig, MpFactory, MpRegister, Msg, NetConfig};
use byzreg::runtime::{ProcessId, System};
use byzreg::spec::linearize::check;
use byzreg::spec::registers::{RegInv, RegResp, SwmrSpec};
use byzreg_runtime::{CompleteOp, OpToken};

/// The emulated SWMR register is linearizable under concurrent readers and
/// a writer, with a Byzantine node flooding fabricated protocol messages.
#[test]
fn emulated_register_is_linearizable_under_attack() {
    let mut config = MpConfig::new(4);
    config.byzantine = vec![ProcessId::new(4)];
    config.net = NetConfig::jittery(Duration::from_micros(300), 99);
    let reg = MpRegister::spawn(&config, 0u32);
    let byz = reg.byzantine_endpoint(ProcessId::new(4));

    // Adversary: floods fabricated echoes/valids/states.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = std::sync::Arc::clone(&stop);
    let attacker = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            byz.broadcast(Msg::Echo { sn: 1_000 + i, v: 66u32 });
            byz.broadcast(Msg::Valid { sn: 2_000 + i, v: 67u32 });
            byz.broadcast(Msg::State { rid: i % 8, ts: 9_999, v: 68u32 });
            i += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    // Record a small concurrent history with a shared logical clock.
    let clock = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(1));
    let tick = {
        let c = std::sync::Arc::clone(&clock);
        move || c.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
    };

    let mut ops: Vec<CompleteOp<RegInv<u32>, RegResp<u32>>> = Vec::new();
    let ops_mutex = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));

    let writer = reg.client(ProcessId::new(1));
    let r2 = reg.client(ProcessId::new(2));
    let r3 = reg.client(ProcessId::new(3));

    let mut handles = Vec::new();
    {
        let ops_mutex = std::sync::Arc::clone(&ops_mutex);
        let tick = tick.clone();
        handles.push(std::thread::spawn(move || {
            for v in 1..=5u32 {
                let t0 = tick();
                writer.write(v);
                let t1 = tick();
                ops_mutex.lock().unwrap().push((t0, t1, RegInv::Write(v), RegResp::Done));
            }
        }));
    }
    for client in [r2, r3] {
        let ops_mutex = std::sync::Arc::clone(&ops_mutex);
        let tick = tick.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let t0 = tick();
                let (_, v) = client.read();
                let t1 = tick();
                ops_mutex.lock().unwrap().push((t0, t1, RegInv::Read, RegResp::ReadValue(v)));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    attacker.join().unwrap();

    for (i, (t0, t1, inv, resp)) in ops_mutex.lock().unwrap().drain(..).enumerate() {
        ops.push(CompleteOp {
            op: OpToken::synthetic(i as u64),
            pid: ProcessId::new(1),
            invoked_at: t0,
            responded_at: t1,
            invocation: inv,
            response: resp,
        });
    }
    let outcome = check(&SwmrSpec { v0: 0u32 }, &ops);
    assert!(outcome.is_linearizable(), "MP register history not linearizable: {ops:?}");
    reg.shutdown();
}

/// All three register families run unchanged over the MP substrate: one
/// generic workload through the `SignatureRegister` trait layer, with the
/// base registers sourced from `MpFactory` — every shared-memory step
/// becomes a quorum round trip.
fn family_over_message_passing<R: SignatureRegister<u32>>() {
    let fam = R::FAMILY;
    let system = System::builder(4).build();
    let factory = MpFactory::default();
    let reg =
        R::install_in_shard(&system, 0, &factory, &system.new_help_shard(), ProcessId::new(1));
    assert!(factory.spawned() > 0, "{fam}: base registers must be MP emulations");
    let mut w = reg.signer();
    let mut r = reg.verifier(ProcessId::new(2));

    w.write_value(7).unwrap();
    if fam == Family::Verifiable {
        assert!(!r.verify_value(&7).unwrap(), "verifiable: written but unsigned");
    }
    assert!(w.sign_value(&7).unwrap());
    assert_eq!(r.read_value().unwrap(), Some(7), "{fam} over MP");
    assert!(r.verify_value(&7).unwrap(), "{fam} over MP");
    let mut r3 = reg.verifier(ProcessId::new(3));
    assert!(r3.verify_value(&7).unwrap(), "{fam}: relay holds over message passing too");

    // Second write: sticky ignores it, the others follow it.
    w.write_value(9).unwrap();
    let expect = if fam == Family::Sticky { Some(7) } else { Some(9) };
    assert_eq!(r.read_value().unwrap(), expect, "{fam} over MP after rewrite");
    system.shutdown();
}

/// Algorithm 1 (verifiable register) runs unchanged over the MP substrate.
#[test]
fn verifiable_register_over_message_passing() {
    family_over_message_passing::<VerifiableRegister<u32>>();
}

/// Algorithm 2 (authenticated register) runs unchanged over the MP substrate.
#[test]
fn authenticated_register_over_message_passing() {
    family_over_message_passing::<AuthenticatedRegister<u32>>();
}

/// Algorithm 3 (sticky register) runs unchanged over the MP substrate.
#[test]
fn sticky_register_over_message_passing() {
    family_over_message_passing::<StickyRegister<u32>>();
}
