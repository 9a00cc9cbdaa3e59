//! Chaos tests for the seeded **adversarial delivery schedules** of the MP
//! reactor: every canned [`AdversaryPolicy`] must leave the emulated SWMR
//! register linearizable, leave all three register families' signature
//! properties intact over `MpFactory`, replay byte-identically from its
//! seed — and no bounded-reorder policy, canned or arbitrary, may ever
//! violate the per-link FIFO floor of the virtual-time heap.
//!
//! The uniform-jitter schedules of `tests/message_passing.rs` explore
//! interleavings blindly; these schedules *target* the corner cases the
//! register proofs actually fight (stale-quorum reads, writer/reader
//! races, a reader cut off until a quorum already moved on).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use byzreg::core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
use byzreg::core::{AuthenticatedRegister, Family, StickyRegister, VerifiableRegister};
use byzreg::mp::{
    adversarial_network, AdversaryPolicy, DeliverySchedule, MpConfig, MpFactory, MpRegister, Msg,
    NetConfig,
};
use byzreg::runtime::{CompleteOp, OpToken, ProcessId, System};
use byzreg::spec::linearize::check;
use byzreg::spec::registers::{RegInv, RegResp, SwmrSpec};

/// The canned suite for the 4-node, `f = 1` systems every test here uses.
fn canned() -> Vec<(&'static str, AdversaryPolicy)> {
    AdversaryPolicy::canned(4, 1)
}

/// Records a small concurrent writer/reader history over one emulated
/// register scheduled by `policy`, with a Byzantine node flooding
/// fabricated protocol messages, and checks it linearizable.
fn linearizable_under(name: &str, policy: AdversaryPolicy) {
    let mut config = MpConfig::new(4);
    config.byzantine = vec![ProcessId::new(4)];
    config.net = NetConfig::jittery(Duration::from_micros(300), 99);
    config.adversary = policy;
    let reg = MpRegister::spawn(&config, 0u32);
    let byz = reg.byzantine_endpoint(ProcessId::new(4));

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let attacker = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            byz.broadcast(Msg::Echo { sn: 1_000 + i, v: 66u32 });
            byz.broadcast(Msg::Valid { sn: 2_000 + i, v: 67u32 });
            byz.broadcast(Msg::State { rid: i % 8, ts: 9_999, v: 68u32 });
            i += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    let clock = Arc::new(AtomicU64::new(1));
    let tick = {
        let c = Arc::clone(&clock);
        move || c.fetch_add(1, Ordering::SeqCst)
    };

    let recorded = Arc::new(Mutex::new(Vec::new()));
    let writer = reg.client(ProcessId::new(1));
    let r2 = reg.client(ProcessId::new(2));
    let r3 = reg.client(ProcessId::new(3));

    let mut handles = Vec::new();
    {
        let recorded = Arc::clone(&recorded);
        let tick = tick.clone();
        handles.push(std::thread::spawn(move || {
            for v in 1..=5u32 {
                let t0 = tick();
                writer.write(v);
                let t1 = tick();
                recorded.lock().unwrap().push((t0, t1, RegInv::Write(v), RegResp::Done));
            }
        }));
    }
    for client in [r2, r3] {
        let recorded = Arc::clone(&recorded);
        let tick = tick.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let t0 = tick();
                let (_, v) = client.read();
                let t1 = tick();
                recorded.lock().unwrap().push((t0, t1, RegInv::Read, RegResp::ReadValue(v)));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    attacker.join().unwrap();

    let ops: Vec<CompleteOp<RegInv<u32>, RegResp<u32>>> = recorded
        .lock()
        .unwrap()
        .drain(..)
        .enumerate()
        .map(|(i, (t0, t1, inv, resp))| CompleteOp {
            op: OpToken::synthetic(i as u64),
            pid: ProcessId::new(1),
            invoked_at: t0,
            responded_at: t1,
            invocation: inv,
            response: resp,
        })
        .collect();
    let outcome = check(&SwmrSpec { v0: 0u32 }, &ops);
    assert!(outcome.is_linearizable(), "{name}: MP history not linearizable: {ops:?}");
    reg.shutdown();
}

#[test]
fn emulated_register_is_linearizable_under_every_canned_adversary() {
    for (name, policy) in canned() {
        linearizable_under(name, policy);
    }
}

/// The generic signature-property workload of `tests/message_passing.rs`,
/// with the factory's delivery schedules shaped by `policy`.
fn family_under_adversary<R: SignatureRegister<u32>>(name: &str, policy: AdversaryPolicy) {
    let fam = R::FAMILY;
    let system = System::builder(4).build();
    let factory =
        MpFactory::new(NetConfig::jittery(Duration::from_micros(300), 7)).adversarial(policy);
    let reg =
        R::install_in_shard(&system, 0, &factory, &system.new_help_shard(), ProcessId::new(1));
    let mut w = reg.signer();
    let mut r = reg.verifier(ProcessId::new(2));

    w.write_value(7).unwrap();
    if fam == Family::Verifiable {
        assert!(!r.verify_value(&7).unwrap(), "{name}/{fam}: written but unsigned");
    }
    assert!(w.sign_value(&7).unwrap());
    assert_eq!(r.read_value().unwrap(), Some(7), "{name}/{fam}: read over adversarial MP");
    assert!(r.verify_value(&7).unwrap(), "{name}/{fam}: verify over adversarial MP");
    let mut r3 = reg.verifier(ProcessId::new(3));
    assert!(r3.verify_value(&7).unwrap(), "{name}/{fam}: relay must hold");
    assert!(!r3.verify_value(&8).unwrap(), "{name}/{fam}: unwritten value must not verify");

    w.write_value(9).unwrap();
    let expect = if fam == Family::Sticky { Some(7) } else { Some(9) };
    assert_eq!(r.read_value().unwrap(), expect, "{name}/{fam}: after rewrite");
    system.shutdown();
}

#[test]
fn verifiable_register_keeps_properties_under_every_canned_adversary() {
    for (name, policy) in canned() {
        family_under_adversary::<VerifiableRegister<u32>>(name, policy);
    }
}

#[test]
fn authenticated_register_keeps_properties_under_every_canned_adversary() {
    for (name, policy) in canned() {
        family_under_adversary::<AuthenticatedRegister<u32>>(name, policy);
    }
}

#[test]
fn sticky_register_keeps_properties_under_every_canned_adversary() {
    for (name, policy) in canned() {
        family_under_adversary::<StickyRegister<u32>>(name, policy);
    }
}

/// One traced sequential run of a fixed command sequence under `policy`.
fn traced_run(seed: u64, policy: AdversaryPolicy) -> (Vec<(u64, u32)>, DeliverySchedule) {
    let mut config = MpConfig::new(4);
    config.net = NetConfig::jittery(Duration::from_millis(2), seed);
    config.adversary = policy;
    config.trace = true;
    let reg = MpRegister::spawn(&config, 0u32);
    let w = reg.client(ProcessId::new(1));
    let r = reg.client(ProcessId::new(2));
    let mut results = Vec::new();
    // Each command starts on a settled network: its virtual send instants
    // must not depend on how far the previous command's tail has drained.
    for i in 1..=5u32 {
        reg.settle();
        w.write(i);
        reg.settle();
        results.push(r.read());
    }
    reg.settle();
    let schedule = reg.delivery_schedule().expect("tracing on");
    reg.shutdown();
    (results, schedule)
}

#[test]
fn same_seed_same_policy_replays_the_delivery_schedule() {
    // The adversarial determinism contract, per canned policy: seed +
    // policy + a command sequence issued on a settled network fully
    // determine the delivery schedule —
    // what the CI `determinism` bin pins across whole process runs.
    for (name, policy) in canned() {
        let (reads_a, schedule_a) = traced_run(11, policy.clone());
        let (reads_b, schedule_b) = traced_run(11, policy);
        assert_eq!(schedule_a, schedule_b, "{name}: schedule must replay from the seed");
        assert_eq!(reads_a, reads_b, "{name}: read decisions must replay");
    }
}

#[test]
fn different_policies_explore_different_schedules() {
    let schedules: Vec<DeliverySchedule> =
        canned().into_iter().map(|(_, p)| traced_run(11, p).1).collect();
    let distinct = schedules
        .iter()
        .enumerate()
        .filter(|(i, s)| schedules[..*i].iter().all(|t| &t != s))
        .count();
    assert!(distinct >= 4, "canned policies should shape distinct schedules, got {distinct}/5");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary bounded-reorder policies (any depth, any seed, optionally
    /// composed with an arbitrary targeted delay, over arbitrary send
    /// patterns and base jitter) never violate the per-link FIFO floor:
    /// each receiver observes each sender's payload counter strictly
    /// increasing.
    #[test]
    fn arbitrary_bounded_reorder_preserves_per_link_fifo(
        depth in 0usize..6,
        seed in 0u64..1_000_000,
        jitter_us in 0u64..400,
        delay_us in 0u64..400,
        victim in 1usize..5,
        sends in prop::collection::vec(
            // One encoded (from, to) pair per send, over 4 nodes.
            (0usize..16).prop_map(|x| (x / 4 + 1, x % 4 + 1)),
            1..100,
        ),
    ) {
        let mut policy = AdversaryPolicy::bounded_reorder(depth, seed ^ 0xA5A5);
        if delay_us > 0 {
            policy = policy.also(byzreg::mp::Tactic::Delay {
                links: byzreg::mp::LinkSet::To(ProcessId::new(victim)),
                min: Duration::ZERO,
                max: Duration::from_micros(delay_us),
            });
        }
        let config = if jitter_us == 0 {
            NetConfig::instant()
        } else {
            NetConfig::jittery(Duration::from_micros(jitter_us), seed)
        };
        let eps = adversarial_network::<(usize, u64)>(4, config, policy);
        let mut next = [[0u64; 4]; 4];
        for (from, to) in &sends {
            let counter = &mut next[*from - 1][*to - 1];
            eps[*from - 1].send(ProcessId::new(*to), (*from, *counter));
            *counter += 1;
        }
        for (d, ep) in eps.iter().enumerate() {
            let mut last: [Option<u64>; 4] = [None; 4];
            let mut received = 0usize;
            while let Some((from, (f, c))) = ep.recv_timeout(Duration::from_millis(2)) {
                prop_assert_eq!(from.index(), f);
                if let Some(prev) = last[f - 1] {
                    prop_assert!(
                        c > prev,
                        "link p{f} -> p{} delivered #{c} after #{prev} (FIFO violated)",
                        d + 1
                    );
                }
                last[f - 1] = Some(c);
                received += 1;
            }
            let expected = sends.iter().filter(|(_, to)| *to == d + 1).count();
            prop_assert!(
                received == expected,
                "reliable channels must deliver everything: got {received}, want {expected}"
            );
        }
    }
}
