//! Property-based tests: randomized operation schedules, seeds, and
//! adversary choices, with the monitors and checkers as oracles.

use proptest::prelude::*;

use byzreg::core::api::{SignatureRegister, SignatureSigner, SignatureVerifier};
use byzreg::core::{attacks, AuthenticatedRegister, StickyRegister, VerifiableRegister};
use byzreg::runtime::{ProcessId, Scheduling, System};
use byzreg::spec::augment::{check_byzantine_sticky, check_byzantine_verifiable};
use byzreg::spec::linearize::check;
use byzreg::spec::monitors::{
    authenticated_monitor, sticky_uniqueness, verifiable_monitor, verifiable_relay,
};
use byzreg::spec::registers::{AuthenticatedSpec, VerifiableSpec};

/// One randomized reader schedule: which value to verify/read at each step.
#[derive(Clone, Debug)]
enum ReaderStep {
    Read,
    Verify(u8),
}

fn reader_steps() -> impl Strategy<Value = Vec<ReaderStep>> {
    prop::collection::vec(
        prop_oneof![Just(ReaderStep::Read), (0u8..4).prop_map(ReaderStep::Verify)],
        1..5,
    )
}

/// One boundary-resilience workload through the trait layer: random writes
/// (each signed), then the signature contract — the first written value
/// verifies (it is signed for Algorithms 1–2 and the stuck value for
/// Algorithm 3), a never-written probe does not, and the batched
/// `verify_many` agrees with the per-value loop. Exercises the generic
/// `quorum_groups` engine at the given `(n, f)`.
fn boundary_workload<R: SignatureRegister<u8>>(n: usize, f: usize, seed: u64, writes: &[u8]) {
    let system = System::builder(n).resilience(f).scheduling(Scheduling::Chaotic(seed)).build();
    let reg = R::install_default(&system, 200);
    let mut w = reg.signer();
    let mut r = reg.verifier(ProcessId::new(2));
    for v in writes {
        w.write_value(*v).unwrap();
        assert!(w.sign_value(v).unwrap(), "{}: signing a written value", R::FAMILY);
    }
    let target = writes[0];
    assert!(
        r.verify_value(&target).unwrap(),
        "{} at n={n}, f={f}: the first signed value must verify",
        R::FAMILY
    );
    assert!(
        !r.verify_value(&99).unwrap(),
        "{} at n={n}, f={f}: a never-written value must not verify",
        R::FAMILY
    );
    let batched = r.verify_many(&[target, 99]).unwrap();
    assert_eq!(batched, vec![true, false], "{} at n={n}, f={f}: batched != loop", R::FAMILY);
    system.shutdown();
}

fn boundary_all_families(n: usize, f: usize, seed: u64, writes: &[u8]) {
    boundary_workload::<VerifiableRegister<u8>>(n, f, seed, writes);
    boundary_workload::<AuthenticatedRegister<u8>>(n, f, seed, writes);
    boundary_workload::<StickyRegister<u8>>(n, f, seed, writes);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `f = 0` boundary: quorums degenerate to unanimity (`n − f = n`) and
    /// a single dissent (`f + 1 = 1`) decides false. The smallest systems
    /// the model admits (n = 2, 3) drive the generic `quorum_groups`
    /// engine through both decision rules.
    #[test]
    fn quorum_engine_f0_boundary(
        seed in 0u64..1_000,
        writes in prop::collection::vec(0u8..4, 1..3),
    ) {
        for n in [2usize, 3] {
            boundary_all_families(n, 0, seed, &writes);
        }
    }

    /// `n = 3f + 1` boundary: the minimal resilience the paper proves
    /// sufficient (and Theorem 31 proves necessary). `(4, 1)` and `(7, 2)`
    /// leave no slack between `n − f` and `2f + 1`.
    #[test]
    fn quorum_engine_minimal_n_boundary(
        seed in 0u64..1_000,
        writes in prop::collection::vec(0u8..4, 1..3),
    ) {
        for (n, f) in [(4usize, 1usize), (7, 2)] {
            boundary_all_families(n, f, seed, &writes);
        }
    }

    /// Verifiable register: random writer values, random reader schedules,
    /// random seed — the history always linearizes and satisfies
    /// Observations 11–13.
    #[test]
    fn verifiable_random_schedules_linearize(
        seed in 0u64..1_000,
        writes in prop::collection::vec(0u8..4, 1..4),
        signs in prop::collection::vec(0u8..4, 0..3),
        schedule in reader_steps(),
    ) {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(seed)).build();
        let reg = VerifiableRegister::install(&system, 0u8);
        let mut w = reg.writer();
        let schedule2 = schedule.clone();
        let mut r = reg.reader(ProcessId::new(2));
        let t = std::thread::spawn(move || {
            for step in schedule2 {
                match step {
                    ReaderStep::Read => { let _ = r.read().unwrap(); }
                    ReaderStep::Verify(v) => { let _ = r.verify(&v).unwrap(); }
                }
            }
        });
        for v in writes {
            w.write(v).unwrap();
        }
        for v in signs {
            let _ = w.sign(&v).unwrap();
        }
        t.join().unwrap();
        system.shutdown();
        let ops = reg.history().complete_ops();
        prop_assert!(verifiable_monitor(&ops).is_ok(), "monitor: {:?}", ops);
        prop_assert!(check(&VerifiableSpec { v0: 0u8 }, &ops).is_linearizable(), "{:?}", ops);
    }

    /// Verifiable register with a Byzantine writer chosen from the attack
    /// library: relay always holds and the reader history is Byzantine
    /// linearizable.
    #[test]
    fn verifiable_byzantine_writer_relay_holds(
        seed in 0u64..1_000,
        attack_choice in 0usize..2,
        schedule in reader_steps(),
    ) {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(seed))
            .byzantine(ProcessId::new(1))
            .build();
        let reg = VerifiableRegister::install(&system, 0u8);
        let ports = reg.attack_ports(ProcessId::new(1));
        match attack_choice {
            0 => system.spawn_byzantine(
                ProcessId::new(1),
                attacks::verifiable::lie_then_deny(ports, 1, 2),
            ),
            _ => system.spawn_byzantine(
                ProcessId::new(1),
                attacks::verifiable::vote_flipper(ports, 1),
            ),
        }
        let mut r2 = reg.reader(ProcessId::new(2));
        let mut r3 = reg.reader(ProcessId::new(3));
        for step in &schedule {
            match step {
                ReaderStep::Read => { let _ = r2.read().unwrap(); }
                ReaderStep::Verify(v) => {
                    let _ = r2.verify(v).unwrap();
                    let _ = r3.verify(v).unwrap();
                }
            }
        }
        system.shutdown();
        let ops = reg.history().complete_ops();
        prop_assert!(verifiable_relay(&ops).is_ok(), "relay: {:?}", ops);
        prop_assert!(check_byzantine_verifiable(&0u8, &ops).is_linearizable(), "{:?}", ops);
    }

    /// Authenticated register: random correct schedules linearize.
    #[test]
    fn authenticated_random_schedules_linearize(
        seed in 0u64..1_000,
        writes in prop::collection::vec(0u8..4, 1..4),
        schedule in reader_steps(),
    ) {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(seed)).build();
        let reg = AuthenticatedRegister::install(&system, 0u8);
        let mut w = reg.writer();
        let mut r = reg.reader(ProcessId::new(3));
        let t = std::thread::spawn(move || {
            for step in schedule {
                match step {
                    ReaderStep::Read => { let _ = r.read().unwrap(); }
                    ReaderStep::Verify(v) => { let _ = r.verify(&v).unwrap(); }
                }
            }
        });
        for v in writes {
            w.write(v).unwrap();
        }
        t.join().unwrap();
        system.shutdown();
        let ops = reg.history().complete_ops();
        prop_assert!(authenticated_monitor(&0u8, &ops).is_ok(), "{:?}", ops);
        prop_assert!(check(&AuthenticatedSpec { v0: 0u8 }, &ops).is_linearizable(), "{:?}", ops);
    }

    /// Sticky register under a random equivocating adversary: uniqueness
    /// and Byzantine linearizability always hold.
    #[test]
    fn sticky_equivocator_never_defeats_uniqueness(
        seed in 0u64..1_000,
        a in 0u8..4,
        b in 4u8..8,
        reads in 1usize..4,
    ) {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(seed))
            .byzantine(ProcessId::new(1))
            .build();
        let reg = StickyRegister::install(&system);
        let ports = reg.attack_ports(ProcessId::new(1));
        system.spawn_byzantine(ProcessId::new(1), attacks::sticky::equivocator(ports, a, b));
        let mut handles = Vec::new();
        for k in 2..=4 {
            let mut r = reg.reader(ProcessId::new(k));
            handles.push(std::thread::spawn(move || {
                for _ in 0..reads {
                    let _ = r.read().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        system.shutdown();
        let ops = reg.history().complete_ops();
        prop_assert!(sticky_uniqueness(&ops).is_ok(), "{:?}", ops);
        prop_assert!(check_byzantine_sticky(&ops).is_linearizable(), "{:?}", ops);
    }
}
