//! The experiment driver: prints the E1–E7 tables (each section's header
//! names the paper's claim it checks: E1 Theorem 29, E2–E4 Theorems
//! 14/20/25, E5 Observation 30, E6 the message-passing corollary, E7 the
//! applications) and the quick B latency summary.
//!
//! ```sh
//! cargo run --release -p byzreg-bench --bin experiments          # all
//! cargo run --release -p byzreg-bench --bin experiments -- e1   # one
//! ```
//!
//! Ids are `e1`..`e7` and `b`; any other argument prints the valid ids to
//! stderr and exits with status 2.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use byzreg_apps::{AssetTransfer, AtomicSnapshot, ReliableBroadcast};
use byzreg_bench::generic::quick_family_latencies;
use byzreg_bench::{fmt_ns, measure};
use byzreg_core::api::SignatureRegister;
use byzreg_core::test_or_set::naive::{NaiveTestOrSet, Rule};
use byzreg_core::test_or_set::{
    TosFromAuthenticated, TosFromSticky, TosFromVerifiable, TosSetter, TosTester,
};
use byzreg_core::{attacks, AuthenticatedRegister, StickyRegister, VerifiableRegister};
use byzreg_crypto::{CostModel, SignatureOracle, SignedVerifiableRegister};
use byzreg_mp::{MpConfig, MpFactory, MpRegister};
use byzreg_runtime::{ProcessId, Scheduling, System};
use byzreg_spec::augment::{
    check_byzantine_authenticated, check_byzantine_sticky, check_byzantine_verifiable,
};
use byzreg_spec::linearize::check;
use byzreg_spec::monitors::{
    authenticated_relay, sticky_uniqueness, test_or_set_monitor, verifiable_monitor,
    verifiable_relay,
};
use byzreg_spec::registers::{AuthenticatedSpec, TestOrSetSpec, VerifiableSpec};

/// The ids the driver accepts as its one optional argument.
const IDS: [&str; 9] = ["all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "b"];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if !IDS.contains(&arg.as_str()) {
        eprintln!("unknown experiment id {arg:?}; valid ids: {}", IDS.join(" "));
        std::process::exit(2);
    }
    let run = |id: &str| arg == "all" || arg == id;
    println!("byzreg experiment driver — reproduction of Hu & Toueg, PODC 2025");
    println!("================================================================\n");
    if run("e1") {
        e1_impossibility();
    }
    if run("e2") {
        e2_verifiable();
    }
    if run("e3") {
        e3_authenticated();
    }
    if run("e4") {
        e4_sticky();
    }
    if run("e5") {
        e5_test_or_set();
    }
    if run("e6") {
        e6_message_passing();
    }
    if run("e7") {
        e7_applications();
    }
    if run("b") {
        b_latency_summary();
    }
}

// ---------------------------------------------------------------------------
// E1 — Figure 1 / Theorem 29
// ---------------------------------------------------------------------------

fn e1_impossibility() {
    println!("E1  Figure 1 / Theorem 29: test-or-set from plain registers, 3 <= n <= 3f");
    println!("    history H2 (relay horn) and H3 (forgery horn), then the n > 3f contrast\n");
    println!("    {:<34} {:>6} {:>6} {:>22}", "scenario", "n", "f", "outcome");

    // H2: threshold rule, n = 3f = 3.
    {
        let s = ProcessId::new(1);
        let system = System::builder(3)
            .resilience(1)
            .scheduling(Scheduling::Chaotic(1))
            .byzantine(s)
            .build();
        let pb_asleep = Arc::new(AtomicBool::new(true));
        let mut sleepers = HashMap::new();
        sleepers.insert(ProcessId::new(3), Arc::clone(&pb_asleep));
        let tos = NaiveTestOrSet::install_with_sleepers(&system, Rule::Threshold, sleepers);
        let ports = tos.attack_ports(s);
        ports.vouch.write(true); // t1-t2: Set
        let mut ta = tos.tester(ProcessId::new(2));
        let a = ta.test().unwrap(); // t3-t4
        ports.vouch.write(false); // t5: reset
        pb_asleep.store(false, std::sync::atomic::Ordering::SeqCst); // t6
        let mut tb = tos.tester(ProcessId::new(3));
        let b = tb.test().unwrap(); // t6-t7
        let verdict = test_or_set_monitor(false, &tos.history().complete_ops());
        println!(
            "    {:<34} {:>6} {:>6} {:>22}",
            "H2: naive/threshold, byz reset",
            3,
            1,
            match &verdict {
                Err(v) => format!("VIOLATED {}", v.property),
                Ok(()) => "no violation".into(),
            }
        );
        println!(
            "      pa.Test -> {}, pb.Test' -> {}  (paper: both must be 1)",
            u8::from(a),
            u8::from(b)
        );
        system.shutdown();
    }

    // H3: gullible rule, n = 3.
    {
        let pa = ProcessId::new(2);
        let system = System::builder(3)
            .resilience(1)
            .scheduling(Scheduling::Chaotic(2))
            .byzantine(pa)
            .build();
        let tos = NaiveTestOrSet::install(&system, Rule::Gullible);
        let ports = tos.attack_ports(pa);
        ports.vouch.write(true); // forged voucher; the correct setter never Set
        let mut tb = tos.tester(ProcessId::new(3));
        let b = tb.test().unwrap();
        let verdict = test_or_set_monitor(true, &tos.history().complete_ops());
        println!(
            "    {:<34} {:>6} {:>6} {:>22}",
            "H3: naive/gullible, forged voucher",
            3,
            1,
            match &verdict {
                Err(v) => format!("VIOLATED {}", v.property),
                Ok(()) => "no violation".into(),
            }
        );
        println!("      pb.Test' -> {} with no Set by the correct setter", u8::from(b));
        system.shutdown();
    }

    // Contrast: same reset adversary at n = 3f + 1 = 4.
    {
        let s = ProcessId::new(1);
        let system = System::builder(4)
            .resilience(1)
            .scheduling(Scheduling::Chaotic(3))
            .byzantine(s)
            .build();
        let pb_asleep = Arc::new(AtomicBool::new(true));
        let mut sleepers = HashMap::new();
        sleepers.insert(ProcessId::new(4), Arc::clone(&pb_asleep));
        let tos = NaiveTestOrSet::install_with_sleepers(&system, Rule::Threshold, sleepers);
        let ports = tos.attack_ports(s);
        ports.vouch.write(true);
        let mut ta = tos.tester(ProcessId::new(2));
        let _ = ta.test().unwrap();
        while ports.all.iter().filter(|r| r.read()).count() < 3 {
            std::thread::yield_now();
        }
        ports.vouch.write(false);
        pb_asleep.store(false, std::sync::atomic::Ordering::SeqCst);
        let mut tb = tos.tester(ProcessId::new(4));
        let b = tb.test().unwrap();
        let ok = test_or_set_monitor(false, &tos.history().complete_ops()).is_ok();
        println!(
            "    {:<34} {:>6} {:>6} {:>22}",
            "H2 adversary vs naive/threshold",
            4,
            1,
            if ok && b { "survives (f+1 honest)" } else { "unexpected" }
        );
        system.shutdown();
    }

    // Contrast: Obs. 30 construction under both adversaries at n = 4.
    {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(4))
            .byzantine(ProcessId::new(1))
            .build();
        let tos = TosFromVerifiable::install(&system);
        let ports = tos.backing().attack_ports(ProcessId::new(1));
        ports.r_star.as_ref().unwrap().write(1);
        ports.witness.update(|s| {
            s.insert(1u8);
        });
        let mut ta = tos.tester(ProcessId::new(2));
        while !ta.test().unwrap() {}
        ports.witness.write(Default::default());
        ports.r_star.as_ref().unwrap().write(0);
        let mut tb = tos.tester(ProcessId::new(3));
        let b = tb.test().unwrap();
        let ok = test_or_set_monitor(false, &tos.history().complete_ops()).is_ok();
        println!(
            "    {:<34} {:>6} {:>6} {:>22}",
            "reset vs Obs.30 (verifiable reg)",
            4,
            1,
            if ok && b { "survives (lie!=deny)" } else { "unexpected" }
        );
        system.shutdown();
    }
    println!();
}

// ---------------------------------------------------------------------------
// E2-E4 — Theorems 14 / 20 / 25
// ---------------------------------------------------------------------------

const GRID: [(usize, usize); 3] = [(4, 1), (7, 2), (10, 3)];
const SEEDS: std::ops::Range<u64> = 0..8;

fn e2_verifiable() {
    println!("E2  Theorem 14: verifiable register (Algorithm 1)");
    println!(
        "    {:>4} {:>4} {:>10} {:>12} {:>12} {:>14}",
        "n", "f", "runs", "correct-wr", "byz-writer", "all checks"
    );
    for (n, f) in GRID {
        let mut pass_correct = 0;
        let mut pass_byz = 0;
        for seed in SEEDS {
            // Correct run.
            let system =
                System::builder(n).resilience(f).scheduling(Scheduling::Chaotic(seed)).build();
            let reg = VerifiableRegister::install(&system, 0u32);
            let mut w = reg.writer();
            let mut r = reg.reader(ProcessId::new(2));
            let t = std::thread::spawn(move || {
                for v in 1..=3u32 {
                    w.write(v).unwrap();
                    w.sign(&v).unwrap();
                }
            });
            for v in 1..=3u32 {
                let _ = r.read().unwrap();
                let _ = r.verify(&v).unwrap();
            }
            t.join().unwrap();
            system.shutdown();
            let ops = reg.history().complete_ops();
            if verifiable_monitor(&ops).is_ok()
                && check(&VerifiableSpec { v0: 0u32 }, &ops).is_linearizable()
            {
                pass_correct += 1;
            }

            // Byzantine-writer run.
            let system = System::builder(n)
                .resilience(f)
                .scheduling(Scheduling::Chaotic(seed))
                .byzantine(ProcessId::new(1))
                .build();
            let reg = VerifiableRegister::install(&system, 0u32);
            let ports = reg.attack_ports(ProcessId::new(1));
            system.spawn_byzantine(
                ProcessId::new(1),
                attacks::verifiable::lie_then_deny(ports, 7, 9),
            );
            let mut r2 = reg.reader(ProcessId::new(2));
            let mut r3 = reg.reader(ProcessId::new(3));
            for _ in 0..3 {
                let _ = r2.verify(&7).unwrap();
                let _ = r3.verify(&7).unwrap();
                let _ = r2.read().unwrap();
            }
            system.shutdown();
            let ops = reg.history().complete_ops();
            if verifiable_relay(&ops).is_ok()
                && check_byzantine_verifiable(&0u32, &ops).is_linearizable()
            {
                pass_byz += 1;
            }
        }
        let total = SEEDS.end - SEEDS.start;
        println!(
            "    {:>4} {:>4} {:>10} {:>11}/{} {:>11}/{} {:>14}",
            n,
            f,
            2 * total,
            pass_correct,
            total,
            pass_byz,
            total,
            if pass_correct == total && pass_byz == total { "PASS" } else { "FAIL" }
        );
    }
    println!();
}

fn e3_authenticated() {
    println!("E3  Theorem 20: authenticated register (Algorithm 2)");
    println!(
        "    {:>4} {:>4} {:>10} {:>12} {:>12} {:>14}",
        "n", "f", "runs", "correct-wr", "byz-writer", "all checks"
    );
    for (n, f) in GRID {
        let mut pass_correct = 0;
        let mut pass_byz = 0;
        for seed in SEEDS {
            let system =
                System::builder(n).resilience(f).scheduling(Scheduling::Chaotic(seed)).build();
            let reg = AuthenticatedRegister::install(&system, 0u32);
            let mut w = reg.writer();
            let mut r = reg.reader(ProcessId::new(2));
            let t = std::thread::spawn(move || {
                for v in 1..=3u32 {
                    w.write(v).unwrap();
                }
            });
            for v in 1..=3u32 {
                let _ = r.read().unwrap();
                let _ = r.verify(&v).unwrap();
            }
            t.join().unwrap();
            system.shutdown();
            let ops = reg.history().complete_ops();
            if check(&AuthenticatedSpec { v0: 0u32 }, &ops).is_linearizable() {
                pass_correct += 1;
            }

            let system = System::builder(n)
                .resilience(f)
                .scheduling(Scheduling::Chaotic(seed))
                .byzantine(ProcessId::new(1))
                .build();
            let reg = AuthenticatedRegister::install(&system, 0u32);
            let ports = reg.attack_ports(ProcessId::new(1));
            system.spawn_byzantine(
                ProcessId::new(1),
                attacks::authenticated::write_then_erase(ports, 5),
            );
            let mut r2 = reg.reader(ProcessId::new(2));
            for _ in 0..3 {
                let _ = r2.read().unwrap();
                let _ = r2.verify(&5).unwrap();
            }
            system.shutdown();
            let ops = reg.history().complete_ops();
            if authenticated_relay(&ops).is_ok()
                && check_byzantine_authenticated(&0u32, &ops).is_linearizable()
            {
                pass_byz += 1;
            }
        }
        let total = SEEDS.end - SEEDS.start;
        println!(
            "    {:>4} {:>4} {:>10} {:>11}/{} {:>11}/{} {:>14}",
            n,
            f,
            2 * total,
            pass_correct,
            total,
            pass_byz,
            total,
            if pass_correct == total && pass_byz == total { "PASS" } else { "FAIL" }
        );
    }
    println!();
}

fn e4_sticky() {
    println!("E4  Theorem 25: sticky register (Algorithm 3)");
    println!(
        "    {:>4} {:>4} {:>10} {:>12} {:>12} {:>14}",
        "n", "f", "runs", "correct-wr", "equivocator", "all checks"
    );
    for (n, f) in GRID {
        let mut pass_correct = 0;
        let mut pass_byz = 0;
        for seed in SEEDS {
            let system =
                System::builder(n).resilience(f).scheduling(Scheduling::Chaotic(seed)).build();
            let reg = StickyRegister::install(&system);
            let mut w = reg.writer();
            let mut r = reg.reader(ProcessId::new(2));
            let t = std::thread::spawn(move || {
                w.write(5u32).unwrap();
            });
            for _ in 0..3 {
                let _ = r.read().unwrap();
            }
            t.join().unwrap();
            system.shutdown();
            let ops = reg.history().complete_ops();
            if check(&byzreg_spec::registers::StickySpec::<u32>::new(), &ops).is_linearizable() {
                pass_correct += 1;
            }

            let system = System::builder(n)
                .resilience(f)
                .scheduling(Scheduling::Chaotic(seed))
                .byzantine(ProcessId::new(1))
                .build();
            let reg = StickyRegister::install(&system);
            let ports = reg.attack_ports(ProcessId::new(1));
            system.spawn_byzantine(ProcessId::new(1), attacks::sticky::equivocator(ports, 1, 2));
            let mut r2 = reg.reader(ProcessId::new(2));
            let mut r3 = reg.reader(ProcessId::new(3));
            for _ in 0..3 {
                let _ = r2.read().unwrap();
                let _ = r3.read().unwrap();
            }
            system.shutdown();
            let ops = reg.history().complete_ops();
            if sticky_uniqueness(&ops).is_ok() && check_byzantine_sticky(&ops).is_linearizable() {
                pass_byz += 1;
            }
        }
        let total = SEEDS.end - SEEDS.start;
        println!(
            "    {:>4} {:>4} {:>10} {:>11}/{} {:>11}/{} {:>14}",
            n,
            f,
            2 * total,
            pass_correct,
            total,
            pass_byz,
            total,
            if pass_correct == total && pass_byz == total { "PASS" } else { "FAIL" }
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — Observation 30
// ---------------------------------------------------------------------------

fn e5_test_or_set() {
    println!("E5  Observation 30: test-or-set from each register type (n = 4, f = 1)");
    println!("    {:<20} {:>10} {:>16}", "construction", "runs", "Lemma 28 + lin.");
    let total = SEEDS.end - SEEDS.start;
    for which in ["verifiable", "authenticated", "sticky"] {
        let mut pass = 0;
        for seed in SEEDS {
            let system = System::builder(4).scheduling(Scheduling::Chaotic(seed)).build();
            let history = match which {
                "verifiable" => {
                    let tos = TosFromVerifiable::install(&system);
                    drive_tos(
                        tos.setter(),
                        vec![tos.tester(ProcessId::new(2)), tos.tester(ProcessId::new(3))],
                    );
                    tos.history()
                }
                "authenticated" => {
                    let tos = TosFromAuthenticated::install(&system);
                    drive_tos(
                        tos.setter(),
                        vec![tos.tester(ProcessId::new(2)), tos.tester(ProcessId::new(3))],
                    );
                    tos.history()
                }
                _ => {
                    let tos = TosFromSticky::install(&system);
                    drive_tos(
                        tos.setter(),
                        vec![tos.tester(ProcessId::new(2)), tos.tester(ProcessId::new(3))],
                    );
                    tos.history()
                }
            };
            system.shutdown();
            let ops = history.complete_ops();
            if test_or_set_monitor(true, &ops).is_ok()
                && check(&TestOrSetSpec, &ops).is_linearizable()
            {
                pass += 1;
            }
        }
        println!(
            "    {:<20} {:>10} {:>13}/{} {}",
            which,
            total,
            pass,
            total,
            if pass == total { "PASS" } else { "FAIL" }
        );
    }
    println!();
}

fn drive_tos<S: TosSetter + 'static, T: TosTester + Send + 'static>(
    mut setter: S,
    testers: Vec<T>,
) {
    let mut handles = Vec::new();
    handles.push(std::thread::spawn(move || {
        setter.set().unwrap();
    }));
    for mut t in testers {
        handles.push(std::thread::spawn(move || {
            let _ = t.test().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// E6 — message passing
// ---------------------------------------------------------------------------

fn e6_message_passing() {
    println!("E6  §1/§11: the registers exist in message-passing systems with n > 3f");
    // Emulated base register under a fabricating Byzantine node.
    let mut config = MpConfig::new(4);
    config.byzantine = vec![ProcessId::new(4)];
    let reg = MpRegister::spawn(&config, 0u32);
    let byz = reg.byzantine_endpoint(ProcessId::new(4));
    byz.broadcast(byzreg_mp::Msg::Echo { sn: 999, v: 66u32 });
    byz.broadcast(byzreg_mp::Msg::Valid { sn: 999, v: 66u32 });
    let w = reg.client(ProcessId::new(1));
    let r = reg.client(ProcessId::new(2));
    w.write(3);
    let (ts, v) = r.read();
    println!(
        "    base MP register, n=4, 1 Byzantine flooder: read -> ({ts}, {v})  [expect (1, 3)]"
    );
    reg.shutdown();

    // Algorithm 1 composed over the MP factory.
    let system = System::builder(4).build();
    let factory = MpFactory::default();
    let shard = system.new_help_shard();
    let reg =
        VerifiableRegister::install_in_shard(&system, 0u32, &factory, &shard, ProcessId::new(1));
    let mut w = reg.writer();
    let mut r = reg.reader(ProcessId::new(2));
    w.write(7).unwrap();
    w.sign(&7).unwrap();
    let verified = r.verify(&7).unwrap();
    println!(
        "    Algorithm 1 over MP substrate ({} emulated registers): verify(7) -> {verified}",
        factory.spawned()
    );
    system.shutdown();
    println!();
}

// ---------------------------------------------------------------------------
// E7 — applications
// ---------------------------------------------------------------------------

fn e7_applications() {
    println!("E7  §1/§2: signature-free applications (first known), n > 3f");
    // Reliable broadcast round trip.
    let system = System::builder(4).build();
    let rb = ReliableBroadcast::install(&system, 2);
    let mut tx = rb.endpoint(ProcessId::new(2));
    let mut rx = rb.endpoint(ProcessId::new(3));
    tx.broadcast("m1").unwrap();
    let got = rx.try_deliver(ProcessId::new(2)).unwrap();
    println!("    reliable broadcast (sticky, n=4):  deliver -> {got:?}");

    // Snapshot.
    let snap = AtomicSnapshot::install(&system, 0u32);
    let mut h2 = snap.handle(ProcessId::new(2));
    let mut h3 = snap.handle(ProcessId::new(3));
    h2.update(22).unwrap();
    h3.update(33).unwrap();
    let view = h2.scan().unwrap();
    println!("    atomic snapshot (authenticated):   scan -> {view:?}");

    // Asset transfer conservation.
    let at = AssetTransfer::install(&system, 100, 4);
    let mut w2 = at.wallet(ProcessId::new(2));
    let mut w3 = at.wallet(ProcessId::new(3));
    w2.transfer(ProcessId::new(3), 40).unwrap();
    let b2 = w3.balance(2).unwrap();
    let b3 = w3.balance(3).unwrap();
    println!("    asset transfer:                    balances p2={b2}, p3={b3} (total conserved)");
    system.shutdown();

    // Baseline contrast: signatures need only n = 2f + 1.
    let system = System::builder(3).resilience(1).build();
    let oracle = SignatureOracle::new(CostModel::free());
    let reg = SignedVerifiableRegister::install(&system, 0u32, &oracle);
    let mut w = reg.writer();
    let mut r = reg.reader(ProcessId::new(2));
    w.write(5).unwrap();
    w.sign(&5).unwrap();
    println!(
        "    signed baseline at n=3 (2f+1):     verify -> {}  [impossible without signatures: Thm 31]",
        r.verify(&5).unwrap()
    );
    system.shutdown();
    println!();
}

// ---------------------------------------------------------------------------
// B — latency summary (quick version of the Criterion benches)
// ---------------------------------------------------------------------------

fn b_family_rows<R: SignatureRegister<u64>>(id: &str) {
    // One generic measurement loop for all three register families
    // (write/read/verify through the SignatureRegister trait layer).
    for n in [4usize, 7, 10] {
        let (write, read, verify) = quick_family_latencies::<R>(n);
        let fam = R::FAMILY;
        println!("    {:<44} {:>12}", format!("{id} {fam} n={n}: write"), fmt_ns(write));
        println!("    {:<44} {:>12}", format!("{id} {fam} n={n}: read"), fmt_ns(read));
        println!("    {:<44} {:>12}", format!("{id} {fam} n={n}: verify(true)"), fmt_ns(verify));
    }
}

fn b_latency_summary() {
    println!("B   latency summary (quick in-process measurements; see `cargo bench` for stats)");
    println!("    {:<44} {:>12}", "operation", "mean");

    b_family_rows::<VerifiableRegister<u64>>("B1");
    b_family_rows::<AuthenticatedRegister<u64>>("B2");
    b_family_rows::<StickyRegister<u64>>("B3");

    // B3: sticky first-write wait.
    let first_write = measure(2, 20, || {
        let system = byzreg_bench::bench_system(4);
        let reg = StickyRegister::install(&system);
        let mut w = reg.writer();
        w.write(7u64).unwrap();
        system.shutdown();
    });
    println!(
        "    {:<44} {:>12}",
        "B3 sticky n=4: install + first write (n-f wait)",
        fmt_ns(first_write)
    );

    // B4: signature baseline at 50 µs crypto.
    let system = byzreg_bench::bench_system(4);
    let oracle = SignatureOracle::new(CostModel::uniform(Duration::from_micros(50)));
    let reg = SignedVerifiableRegister::install(&system, 0u64, &oracle);
    let mut w = reg.writer();
    let mut r = reg.reader(ProcessId::new(2));
    w.write(7).unwrap();
    w.sign(&7).unwrap();
    let signed_verify = measure(5, 50, || {
        assert!(r.verify(&7).unwrap());
    });
    println!(
        "    {:<44} {:>12}",
        "B4 signed baseline (50µs crypto): verify",
        fmt_ns(signed_verify)
    );
    system.shutdown();

    // B6: MP substrate.
    let reg = MpRegister::spawn(&MpConfig::new(4), 0u64);
    let w = reg.client(ProcessId::new(1));
    let r = reg.client(ProcessId::new(2));
    w.write(7);
    let mp_write = measure(5, 50, || w.write(7));
    let mp_read = measure(5, 50, || {
        let _ = r.read();
    });
    println!("    {:<44} {:>12}", "B6 MP register n=4: write (quorum)", fmt_ns(mp_write));
    println!("    {:<44} {:>12}", "B6 MP register n=4: read (quorum)", fmt_ns(mp_read));
    reg.shutdown();
    println!();
}
