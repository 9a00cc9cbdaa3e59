//! The CI determinism probe: same seed ⇒ **byte-identical** output.
//!
//! Emits a timing-free JSON report from two seeded probes and exits; CI
//! runs the binary twice and `diff`s the outputs, pinning the
//! replayability promises of the reactor rewrite in CI:
//!
//! 1. **MP delivery-schedule probe** — one emulated SWMR register over a
//!    jittery seeded virtual-time network with tracing on, driven through
//!    a fixed write/read command sequence, each command issued on a settled
//!    network (`MpRegister::settle`). The full `(from, to)` delivery
//!    schedule and every read decision go into the report: the schedule is
//!    a pure function of the seed and the command sequence.
//! 2. **Adversary-policy probes** — the same register and command sequence
//!    replayed under every canned [`AdversaryPolicy`] (targeted delays,
//!    bounded reorder, partition/heal, hold-back pens). Each policy's read
//!    decisions, delivery count, and a fold of its full `(from, to)`
//!    schedule go into the report: the adversarial schedule is a pure
//!    function of `(net seed, policy, command sequence)`.
//! 3. **Store workload fingerprint** — a single-threaded seeded slice of
//!    the store workload (Zipf key sampling, deterministic values, shard
//!    routing) over every register family on the shm backend. Distinct
//!    keys, per-shard loads, and every read/verify outcome go into the
//!    report: key sampling and shard routing are seed-stable across
//!    processes.
//!
//! ```sh
//! determinism out.json   # default DETERMINISM.json
//! ```

use std::time::Duration;

use byzreg_core::api::SignatureRegister;
use byzreg_core::{AuthenticatedRegister, StickyRegister, VerifiableRegister};
use byzreg_mp::{AdversaryPolicy, MpConfig, MpRegister, NetConfig};
use byzreg_runtime::{LocalFactory, ProcessId, System};
use byzreg_store::store::{ByzStore, StoreConfig};
use byzreg_store::workload::{bogus_value_of, sample_key, value_of};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "DETERMINISM.json".to_string());
    let mp = mp_schedule_probe(42);
    let adversaries = mp_adversary_probe(42);
    let stores: Vec<String> = vec![
        store_fingerprint::<VerifiableRegister<u64>>("verifiable", 7),
        store_fingerprint::<AuthenticatedRegister<u64>>("authenticated", 7),
        store_fingerprint::<StickyRegister<u64>>("sticky", 7),
    ];
    let json = format!(
        "{{\n  \"probe\": \"determinism\",\n  \"mp_schedule\": {},\n  \
         \"mp_adversary\": {},\n  \"stores\": [\n    {}\n  ]\n}}\n",
        mp,
        adversaries,
        stores.join(",\n    ")
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out} ({} bytes)", json.len());
}

/// One seeded register over a jittery traced network: renders the read
/// decisions and the complete delivery schedule.
fn mp_schedule_probe(seed: u64) -> String {
    let mut config = MpConfig::new(4);
    config.net = NetConfig::jittery(Duration::from_millis(2), seed);
    config.trace = true;
    let reg = MpRegister::spawn(&config, 0u32);
    let w = reg.client(ProcessId::new(1));
    let r = reg.client(ProcessId::new(2));
    let mut reads = Vec::new();
    for i in 1..=6u32 {
        reg.settle();
        w.write(i * 10);
        reg.settle();
        let (ts, v) = r.read();
        reads.push(format!("[{ts},{v}]"));
    }
    reg.settle();
    let schedule = reg.delivery_schedule().expect("tracing on");
    let pairs: Vec<String> =
        schedule.iter().map(|(from, to)| format!("[{},{}]", from.index(), to.index())).collect();
    reg.shutdown();
    format!(
        "{{\"seed\":{seed},\"reads\":[{}],\"deliveries\":{},\"schedule\":[{}]}}",
        reads.join(","),
        pairs.len(),
        pairs.join(",")
    )
}

/// The fixed command sequence of the MP probes replayed under every canned
/// adversary policy: per policy, the read decisions, the delivery count,
/// and an FNV fold of the complete `(from, to)` schedule. Any divergence
/// between two runs — a reordered delivery, a pen released one event late —
/// changes the fold, so `diff` catches it byte-for-byte.
fn mp_adversary_probe(seed: u64) -> String {
    let entries: Vec<String> = AdversaryPolicy::canned(4, 1)
        .into_iter()
        .map(|(name, policy)| {
            let mut config = MpConfig::new(4);
            config.net = NetConfig::jittery(Duration::from_millis(2), seed);
            config.adversary = policy;
            config.trace = true;
            let reg = MpRegister::spawn(&config, 0u32);
            let w = reg.client(ProcessId::new(1));
            let r = reg.client(ProcessId::new(2));
            let mut reads = Vec::new();
            for i in 1..=6u32 {
                reg.settle();
                w.write(i * 10);
                reg.settle();
                let (ts, v) = r.read();
                reads.push(format!("[{ts},{v}]"));
            }
            reg.settle();
            let schedule = reg.delivery_schedule().expect("tracing on");
            let mut fold = 0xcbf2_9ce4_8422_2325_u64;
            for (from, to) in &schedule {
                fold = (fold ^ (from.index() as u64 * 64 + to.index() as u64))
                    .wrapping_mul(0x0000_0100_0000_01b3);
            }
            reg.shutdown();
            format!(
                "{{\"policy\":\"{name}\",\"seed\":{seed},\"reads\":[{}],\
                 \"deliveries\":{},\"schedule_fold\":\"{fold:016x}\"}}",
                reads.join(","),
                schedule.len()
            )
        })
        .collect();
    format!("[\n    {}\n  ]", entries.join(",\n    "))
}

/// A single-threaded seeded workload slice over a store of family `R`:
/// every sampled key, shard route, read value, and verify outcome is a
/// pure function of the seed (no concurrency, so no racy outcomes).
fn store_fingerprint<R: SignatureRegister<u64>>(label: &str, seed: u64) -> String {
    const KEYS: u64 = 256;
    const OPS: usize = 120;
    let system = System::builder(4).build();
    let store: ByzStore<'_, u64, u64, R, _> =
        ByzStore::new(&system, LocalFactory, 0, StoreConfig { shards: 8 });
    let mut rng = StdRng::seed_from_u64(seed);
    let pid = ProcessId::new(2);
    let mut outcomes = String::new();
    let mut read_sum = 0u64;
    for _ in 0..OPS {
        let key = sample_key(&mut rng, KEYS, 0.8);
        match rng.random_range(0..3u8) {
            0 => store.write(key, value_of(key)).expect("write"),
            1 => {
                let got = store.read(pid, &key).expect("read");
                read_sum = read_sum.wrapping_add(got.unwrap_or(0));
            }
            _ => {
                let v = if rng.random_bool(0.5) { value_of(key) } else { bogus_value_of(key) };
                outcomes.push(if store.verify(pid, &key, &v).expect("verify") { '1' } else { '0' });
            }
        }
    }
    let loads: Vec<String> = store.shard_loads().iter().map(usize::to_string).collect();
    let fingerprint = format!(
        "{{\"family\":\"{label}\",\"seed\":{seed},\"distinct_keys\":{},\
         \"shard_loads\":[{}],\"read_sum\":{read_sum},\"verify_outcomes\":\"{outcomes}\"}}",
        store.len(),
        loads.join(",")
    );
    system.shutdown();
    fingerprint
}
