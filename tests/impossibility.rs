//! E1 — **Figure 1 / Theorem 29**: test-or-set is impossible from plain
//! SWMR registers when `3 ≤ n ≤ 3f`, and the naive witness-quorum attempts
//! of §5.1 break in exactly the ways the proof's case analysis predicts.
//!
//! The proof constructs histories H1/H2/H3 with partition
//! `{s}, {pa}, {pb}, Q1, Q2, Q3`. We execute them with `f = 1, n = 3`
//! (`s = p1`, `pa = p2`, `pb = p3`, all `Q_i` empty):
//!
//! * **History H2** (relay horn): the Byzantine coalition `{s} ∪ Q1` behaves
//!   correctly until `pa`'s `Test` returns 1 at `t4`, then resets its
//!   registers to their initial state; `pb` — asleep until `t6` — then runs
//!   `Test'`. A *threshold* tester (needs `f + 1` vouchers) now sees only
//!   `f` honest vouchers and returns 0, violating **Lemma 28(3)**.
//! * **History H3** (forgery horn): swap roles — `{pa} ∪ Q2` is Byzantine
//!   and fabricates exactly the register contents it had in H2; `s` is
//!   correct but never invokes `Set`. A *gullible* tester (accepts any
//!   voucher) returns 1, violating **Lemma 28(2)**.
//!
//! The same adversaries are then replayed against `n = 3f + 1 = 4`
//! (threshold rule) and against the register-based constructions of
//! Observation 30 — and fail, which is the possibility half of the story.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use byzreg::core::test_or_set::naive::{NaiveTestOrSet, Rule};
use byzreg::core::test_or_set::{TosFromVerifiable, TosTester};
use byzreg::runtime::{ProcessId, Scheduling, System};
use byzreg::spec::monitors::test_or_set_monitor;

/// History H2 with the threshold rule at `n = 3f`: the relay property
/// (Lemma 28(3)) is violated.
#[test]
fn h2_breaks_threshold_rule_at_n_3f() {
    let s = ProcessId::new(1); // the setter, Byzantine in H2
    let pa = ProcessId::new(2);
    let pb = ProcessId::new(3);

    let system =
        System::builder(3).resilience(1).scheduling(Scheduling::Chaotic(91)).byzantine(s).build();
    // pb is "asleep" until t6 (the adversary controls the schedule).
    let pb_asleep = Arc::new(AtomicBool::new(true));
    let mut sleepers = HashMap::new();
    sleepers.insert(pb, Arc::clone(&pb_asleep));
    let tos = NaiveTestOrSet::install_with_sleepers(&system, Rule::Threshold, sleepers);
    let ports = tos.attack_ports(s);

    // [t1, t2]: {s} behaves exactly like a correct setter: Set = V1 <- true.
    ports.vouch.write(true);

    // [t3, t4]: pa's Test returns 1 (Lemma 28(1) behavior).
    let mut tester_a = tos.tester(pa);
    assert!(tester_a.test().unwrap(), "H1/H2 prefix: pa's Test must return 1");

    // [t4, t5]: the Byzantine coalition resets its registers to initial
    // state "as if these processes never took any step".
    ports.vouch.write(false);

    // [t6, t7]: pb wakes up and runs Test'.
    pb_asleep.store(false, Ordering::SeqCst);
    let mut tester_b = tos.tester(pb);
    let test_b = tester_b.test().unwrap();

    assert!(!test_b, "the threshold tester is left with only f honest vouchers");
    // Lemma 28(3) is violated: Test -> 1 precedes Test' -> 0.
    let violation = test_or_set_monitor(false, &tos.history().complete_ops())
        .expect_err("Theorem 29: the naive implementation cannot be correct at n = 3f");
    assert_eq!(violation.property, "Lemma 28(3)");
    system.shutdown();
}

/// History H3 with the gullible rule: unforgeability (Lemma 28(2)) is
/// violated — `f` Byzantine vouchers forge a `Set` that never happened.
#[test]
fn h3_breaks_gullible_rule_at_n_3f() {
    let pa = ProcessId::new(2); // Byzantine in H3
    let pb = ProcessId::new(3);

    let system =
        System::builder(3).resilience(1).scheduling(Scheduling::Chaotic(92)).byzantine(pa).build();
    let tos = NaiveTestOrSet::install(&system, Rule::Gullible);
    let ports = tos.attack_ports(pa);

    // {pa} ∪ Q2 write exactly the register contents they had in H2 —
    // pa had vouched during its Test there.
    ports.vouch.write(true);

    // The correct setter s never invokes Set. pb's Test' still returns 1.
    let mut tester_b = tos.tester(pb);
    assert!(tester_b.test().unwrap(), "the gullible tester believes the forged voucher");

    let violation = test_or_set_monitor(true, &tos.history().complete_ops())
        .expect_err("Theorem 29: forgery horn");
    assert_eq!(violation.property, "Lemma 28(2)");
    system.shutdown();
}

/// The H2 adversary replayed at `n = 3f + 1`: the threshold rule survives,
/// because `f + 1` honest vouchers outlive the reset.
#[test]
fn h2_adversary_fails_at_n_3f_plus_1() {
    let s = ProcessId::new(1);
    let pa = ProcessId::new(2);
    let pb = ProcessId::new(4);

    let system =
        System::builder(4).resilience(1).scheduling(Scheduling::Chaotic(93)).byzantine(s).build();
    let pb_asleep = Arc::new(AtomicBool::new(true));
    let mut sleepers = HashMap::new();
    sleepers.insert(pb, Arc::clone(&pb_asleep));
    let tos = NaiveTestOrSet::install_with_sleepers(&system, Rule::Threshold, sleepers);
    let ports = tos.attack_ports(s);

    ports.vouch.write(true);
    let mut tester_a = tos.tester(pa);
    assert!(tester_a.test().unwrap());

    // Give the second honest helper (p3) time to vouch before the reset:
    // with n = 4 there are *two* honest vouchers besides V1.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ports.all.iter().filter(|r| r.read()).count() < 3 {
        assert!(std::time::Instant::now() < deadline, "propagation stalled");
        std::thread::yield_now();
    }
    ports.vouch.write(false);

    pb_asleep.store(false, Ordering::SeqCst);
    let mut tester_b = tos.tester(pb);
    assert!(tester_b.test().unwrap(), "f + 1 honest vouchers survive the reset");
    assert!(test_or_set_monitor(false, &tos.history().complete_ops()).is_ok());
    system.shutdown();
}

/// The H3 forgery adversary replayed against the Observation 30
/// construction (test-or-set from a verifiable register) at `n = 3f + 1`:
/// `f` forged witnesses cannot make `Verify` — and hence `Test` — return 1.
#[test]
fn forgery_fails_against_the_verifiable_register_construction() {
    let pa = ProcessId::new(2);
    let pb = ProcessId::new(3);

    let system = System::builder(4).scheduling(Scheduling::Chaotic(94)).byzantine(pa).build();
    let tos = TosFromVerifiable::install(&system);
    let ports = tos.backing().attack_ports(pa);
    system.spawn_byzantine(pa, move || {
        // Claim to witness "1" (the Set value) everywhere, forever.
        let one: std::collections::BTreeSet<u8> = std::iter::once(1u8).collect();
        ports.witness.write(one.clone());
        ports.fabric.reply_all(&ports.shared.fabric, &one);
        true
    });

    let mut tester_b = tos.tester(pb);
    for _ in 0..5 {
        assert!(!tester_b.test().unwrap(), "Obs. 12: one forger cannot fake the signature");
    }
    assert!(test_or_set_monitor(true, &tos.history().complete_ops()).is_ok());
    system.shutdown();
}

/// The H2 denial adversary replayed against the Observation 30 construction:
/// after `pa`'s Test returns 1, nothing the Byzantine setter erases can make
/// a later Test return 0 (the `set1` sets of the register never shrink).
#[test]
fn denial_fails_against_the_verifiable_register_construction() {
    let s = ProcessId::new(1);
    let pa = ProcessId::new(2);
    let pb = ProcessId::new(3);

    let system = System::builder(4).scheduling(Scheduling::Chaotic(95)).byzantine(s).build();
    let tos = TosFromVerifiable::install(&system);
    let ports = tos.backing().attack_ports(s);

    // Phase 1: the Byzantine setter performs an honest-looking Set:
    // Write(1) + Sign(1) = put 1 into R* and R1.
    ports.r_star.as_ref().unwrap().write(1);
    ports.witness.update(|set| {
        set.insert(1u8);
    });

    let mut tester_a = tos.tester(pa);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if tester_a.test().unwrap() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "Test never saw the Set");
    }

    // Phase 2: deny — erase R1 and R*.
    ports.witness.write(Default::default());
    ports.r_star.as_ref().unwrap().write(0);

    // Phase 3: every later Test still returns 1 (Lemma 28(3) preserved).
    let mut tester_b = tos.tester(pb);
    assert!(tester_b.test().unwrap(), "you can lie but not deny");
    assert!(test_or_set_monitor(false, &tos.history().complete_ops()).is_ok());
    system.shutdown();
}
