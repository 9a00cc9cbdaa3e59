//! One benchmark run: set up a store, drive it for a timed window from two
//! client threads, check every result, and collect the figures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use byzreg_core::api::SignatureRegister;
use byzreg_core::AuthenticatedRegister;
use byzreg_mp::{MpFactory, NetConfig};
use byzreg_runtime::{LocalFactory, ProcessId, RegisterFactory, System};
use byzreg_store::workload::value_of;
use byzreg_store::{ByzStore, StoreConfig};

use crate::gen::{
    session_seed, ReadOp, ReaderStream, Workload, WriterStream, KEYS, SHARDS, WARMUP_S,
};
use crate::procstat::{self, ThreadCpu};
use crate::stats::{mean, median, quantile};
use crate::trace::{
    Class, Hub, Op, Role, ThreadSpans, Totals, TracedFactory, READER_THREAD, WRITER_THREAD,
};

/// System size: `n = 4` tolerates `f = 1`.
pub const N: usize = 4;
/// The reader `p2`, a correct non-writer (the writer of every key is `p1`).
#[must_use]
pub fn reader() -> ProcessId {
    ProcessId::new(2)
}

/// The declared-Byzantine process `p4`; it stays silent.
#[must_use]
pub fn byzantine() -> ProcessId {
    ProcessId::new(N)
}

/// Largest virtual delivery jitter of the MP network.
pub const MP_JITTER: Duration = Duration::from_micros(200);

/// A register backend the benchmark can set up, with access to the MP
/// factory's public counters where there is one.
pub trait Backend: RegisterFactory {
    /// The MP factory behind this backend, if any.
    fn mp(&self) -> Option<&MpFactory>;
}

impl Backend for LocalFactory {
    fn mp(&self) -> Option<&MpFactory> {
        None
    }
}

impl Backend for MpFactory {
    fn mp(&self) -> Option<&MpFactory> {
        Some(self)
    }
}

impl<B: Backend> Backend for TracedFactory<B> {
    fn mp(&self) -> Option<&MpFactory> {
        self.inner().mp()
    }
}

/// What the two client threads did in the window.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall-clock length of the window, in seconds.
    pub elapsed_s: f64,
    /// Items completed (a batch of `BATCH` keys counts `BATCH`).
    pub items: u64,
    /// Store calls attempted.
    pub attempted: u64,
    /// Calls that returned `Err` or a result contradicting the known value.
    pub failed: u64,
    /// Latency of each `read_many` call, in nanoseconds.
    pub read_ns: Vec<u64>,
    /// Latency of each `verify_many` call, in nanoseconds.
    pub verify_ns: Vec<u64>,
    /// Latency of each write call, from its due time, in nanoseconds.
    pub write_ns: Vec<u64>,
    /// How late each open-loop write started after its due time.
    pub late_ns: Vec<u64>,
    /// Distinct keys summed over the reader's calls.
    pub distinct_keys: u64,
    /// CPU seconds the client threads used in the window.
    pub client_cpu_s: f64,
}

impl Window {
    /// Reader calls (reads and verifies).
    #[must_use]
    pub fn reader_calls(&self) -> u64 {
        (self.read_ns.len() + self.verify_ns.len()) as u64
    }

    /// Items completed per second.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.items as f64 / self.elapsed_s
    }
}

/// Layer figures sampled around the window.
#[derive(Debug, Default)]
pub struct Probe {
    /// Gate steps taken during the window.
    pub steps: u64,
    /// CPU seconds of help-shard engines in the window.
    pub help_cpu_s: f64,
    /// CPU seconds of MP reactor workers in the window.
    pub reactor_cpu_s: f64,
    /// `System::help_engine_threads()` at the end of the window.
    pub help_threads: usize,
    /// `ByzStore::len()` at the end of the window.
    pub live_keys: usize,
    /// `ByzStore::shard_loads()` at the end of the window.
    pub shard_loads: Vec<usize>,
    /// `(spawned, group_count, worker_count)` of the MP factory.
    pub mp: Option<(usize, usize, usize)>,
    /// Live threads at the end of the window.
    pub threads: usize,
    /// Resident memory at the end of the window, in MiB.
    pub rss_mb_end: f64,
    /// High-water resident memory of the process at the end of the window.
    pub peak_rss_mb: f64,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the window (`steal` in `/proc/stat`).
    pub steal_share: f64,
}

/// One set-up, and the window driven on it.
#[derive(Debug)]
pub struct Session {
    /// System build, store creation and prepopulation, in seconds.
    pub setup_s: f64,
    /// What the clients did in the window.
    pub window: Window,
    /// Layer figures sampled around the window.
    pub probe: Probe,
}

/// Sessions per run: a run of `seconds` drives this many fresh set-ups,
/// each measured for `seconds / SESSIONS`.
pub const SESSIONS: usize = 5;

/// Runs `SESSIONS` sessions of `workload` that share `seconds` between
/// them; session `i` draws its inputs from `session_seed(seed, i)`.
#[must_use]
pub fn sessions(
    workload: Workload,
    seed: u64,
    seconds: f64,
    hub: Option<&Arc<Hub>>,
) -> Vec<Session> {
    (0..SESSIONS as u64)
        .map(|i| session(workload, session_seed(seed, i), seconds / SESSIONS as f64, hub))
        .collect()
}

/// Sets `workload` up once (timed) and drives one window of `seconds` on
/// it. With a `hub`, the backend is wrapped in a [`TracedFactory`] and the
/// hub records during the window.
#[must_use]
pub fn session(workload: Workload, seed: u64, seconds: f64, hub: Option<&Arc<Hub>>) -> Session {
    let (setup_s, driven) = set_up(workload, seed, Some(seconds), hub);
    let (window, probe) = driven.expect("a window was driven");
    Session { setup_s, window, probe }
}

/// Sets `workload` up once and tears it down again; returns the set-up
/// time in seconds.
#[must_use]
pub fn setup_s(workload: Workload, seed: u64) -> f64 {
    set_up(workload, seed, None, None).0
}

/// A set-up time, and the window driven after it if one was asked for.
type Driven = (f64, Option<(Window, Probe)>);

fn set_up(workload: Workload, seed: u64, seconds: Option<f64>, hub: Option<&Arc<Hub>>) -> Driven {
    match workload {
        Workload::ShmAuthenticated => with_backend(seed, seconds, hub, || LocalFactory),
        Workload::MpAuthenticated => {
            with_backend(seed, seconds, hub, || MpFactory::new(NetConfig::jittery(MP_JITTER, seed)))
        }
    }
}

fn with_backend<B: Backend>(
    seed: u64,
    seconds: Option<f64>,
    hub: Option<&Arc<Hub>>,
    backend: impl Fn() -> B,
) -> Driven {
    match hub {
        Some(hub) => set_up_and_drive(seed, seconds, Some(hub), || {
            TracedFactory::new(backend(), Arc::clone(hub))
        }),
        None => set_up_and_drive(seed, seconds, None, backend),
    }
}

/// The system every workload runs on: `n = 4`, `p4` declared Byzantine.
#[must_use]
pub fn build_system() -> System {
    System::builder(N).byzantine(byzantine()).build()
}

fn set_up_and_drive<B: Backend>(
    seed: u64,
    seconds: Option<f64>,
    hub: Option<&Arc<Hub>>,
    backend: impl FnOnce() -> B,
) -> Driven {
    let t0 = Instant::now();
    let factory = backend();
    let system = build_system();
    let store: ByzStore<'_, u64, u64, AuthenticatedRegister<u64>, &B> =
        ByzStore::new(&system, &factory, 0, StoreConfig { shards: SHARDS });
    for key in 0..KEYS {
        store.write(key, value_of(key)).expect("prepopulate");
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let driven = seconds.map(|seconds| {
        let (window, (cpu0, steps0, host0)) =
            drive(seed, seconds, &store, hub.map(|h| &**h), || {
                if let Some(hub) = hub {
                    hub.set_recording(true);
                }
                (procstat::thread_cpu(), system.env().gate().steps(), procstat::host_ticks())
            });
        if let Some(hub) = hub {
            hub.set_recording(false);
        }
        let steps = system.env().gate().steps() - steps0;
        let cpu1 = procstat::thread_cpu();
        let mut probe = probe(&system, &store, &factory, steps, &cpu0, &cpu1);
        probe.steal_share = procstat::steal_share(host0, procstat::host_ticks());
        (window, probe)
    });
    drop(store);
    system.shutdown();
    drop(factory);
    (setup_s, driven)
}

fn probe<R: SignatureRegister<u64>, B: Backend>(
    system: &System,
    store: &ByzStore<'_, u64, u64, R, &B>,
    factory: &B,
    steps: u64,
    cpu0: &ThreadCpu,
    cpu1: &ThreadCpu,
) -> Probe {
    Probe {
        steps,
        help_cpu_s: procstat::cpu_between(cpu0, cpu1, |name| Role::of(name) == Role::Help),
        reactor_cpu_s: procstat::cpu_between(cpu0, cpu1, |name| Role::of(name) == Role::Reactor),
        help_threads: system.help_engine_threads(),
        live_keys: store.len(),
        shard_loads: store.shard_loads(),
        mp: factory.mp().map(|mp| (mp.spawned(), mp.group_count(), mp.worker_count())),
        threads: procstat::thread_count(),
        rss_mb_end: procstat::status_mb("VmRSS"),
        peak_rss_mb: procstat::status_mb("VmHWM"),
        steal_share: 0.0,
    }
}

/// Runs `f` as a traced store call when a hub is given.
fn call<T>(hub: Option<&Hub>, kind: &'static str, f: impl FnOnce() -> T) -> T {
    match hub {
        Some(hub) => hub.call(kind, f),
        None => f(),
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The timeline of one session: clients start at `begin`, samples count
/// from `start` (after the warm-up) to `deadline`.
#[derive(Clone, Copy)]
struct Timeline {
    begin: Instant,
    start: Instant,
    deadline: Instant,
}

/// Drives the writer and reader threads through the warm-up and then a
/// window of `seconds`; `mark` runs on the calling thread when the window
/// opens, and its result is returned with the window.
fn drive<R: SignatureRegister<u64>, F: RegisterFactory, T>(
    seed: u64,
    seconds: f64,
    store: &ByzStore<'_, u64, u64, R, F>,
    hub: Option<&Hub>,
    mark: impl FnOnce() -> T,
) -> (Window, T) {
    let begin = Instant::now();
    let start = begin + Duration::from_secs_f64(WARMUP_S);
    let time = Timeline { begin, start, deadline: start + Duration::from_secs_f64(seconds) };
    let (writer, reader, marked) = std::thread::scope(|s| {
        let writer = std::thread::Builder::new()
            .name(WRITER_THREAD.into())
            .spawn_scoped(s, || client(hub, || writer_loop(seed, store, time, hub)))
            .expect("spawn writer");
        let reader = std::thread::Builder::new()
            .name(READER_THREAD.into())
            .spawn_scoped(s, || client(hub, || reader_loop(seed, store, time, hub)))
            .expect("spawn reader");
        if let Some(wait) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let marked = mark();
        (writer.join().expect("writer panicked"), reader.join().expect("reader panicked"), marked)
    });
    let window = Window {
        elapsed_s: start.elapsed().as_secs_f64(),
        items: writer.items + reader.items,
        attempted: writer.attempted + reader.attempted,
        failed: writer.failed + reader.failed,
        read_ns: reader.read_ns,
        verify_ns: reader.verify_ns,
        write_ns: writer.write_ns,
        late_ns: writer.late_ns,
        distinct_keys: reader.distinct_keys,
        client_cpu_s: writer.client_cpu_s + reader.client_cpu_s,
    };
    (window, marked)
}

/// Runs one client loop on the calling thread and hands its spans over.
fn client(hub: Option<&Hub>, body: impl FnOnce() -> Window) -> Window {
    let log = body();
    if let Some(hub) = hub {
        hub.finish_thread();
    }
    log
}

/// The calling thread's CPU time from its first measured call on.
#[derive(Default)]
struct WindowCpu(Option<f64>);

impl WindowCpu {
    fn mark(&mut self, measured: bool) {
        if measured && self.0.is_none() {
            self.0 = Some(procstat::own_cpu_s());
        }
    }

    fn seconds(&self) -> f64 {
        self.0.map_or(0.0, |start| procstat::own_cpu_s() - start)
    }
}

fn writer_loop<R: SignatureRegister<u64>, F: RegisterFactory>(
    seed: u64,
    store: &ByzStore<'_, u64, u64, R, F>,
    time: Timeline,
    hub: Option<&Hub>,
) -> Window {
    let mut log = Window::default();
    let mut cpu = WindowCpu::default();
    for op in WriterStream::new(seed) {
        // Open loop: sleep until due, and time from the due instant.
        let due = time.begin + Duration::from_nanos(op.due_ns);
        if due >= time.deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late_ns = ns_since(due);
        let measured = due >= time.start;
        cpu.mark(measured);
        log.attempted += 1;
        let ok = call(hub.filter(|_| measured), "write", || store.write(op.key, value_of(op.key)))
            .is_ok();
        if measured {
            log.late_ns.push(late_ns);
            log.write_ns.push(ns_since(due));
        }
        if ok {
            log.items += u64::from(measured);
        } else {
            log.failed += 1;
        }
    }
    log.client_cpu_s = cpu.seconds();
    log
}

fn reader_loop<R: SignatureRegister<u64>, F: RegisterFactory>(
    seed: u64,
    store: &ByzStore<'_, u64, u64, R, F>,
    time: Timeline,
    hub: Option<&Hub>,
) -> Window {
    let mut log = Window::default();
    let mut cpu = WindowCpu::default();
    for op in ReaderStream::new(seed) {
        let began = Instant::now();
        if began >= time.deadline {
            break;
        }
        let measured = began >= time.start;
        cpu.mark(measured);
        let hub = hub.filter(|_| measured);
        log.attempted += 1;
        // (correct, items, is a verify, distinct keys)
        let (ok, items, verify, keys) = match &op {
            ReadOp::ReadMany(keys) => {
                let got = call(hub, "read_many", || store.read_many(reader(), keys));
                let ok =
                    got.is_ok_and(|vs| vs.iter().zip(keys).all(|(v, k)| *v == Some(value_of(*k))));
                (ok, keys.len(), false, distinct(keys.iter().copied()))
            }
            ReadOp::VerifyMany(checks) => {
                let got = call(hub, "verify_many", || store.verify_many(reader(), checks));
                let ok = got.is_ok_and(|bs| {
                    bs.iter().zip(checks).all(|(b, (k, v))| *b == (*v == value_of(*k)))
                });
                (ok, checks.len(), true, distinct(checks.iter().map(|(k, _)| *k)))
            }
        };
        let ns = ns_since(began);
        if !ok {
            log.failed += 1;
        }
        if measured {
            if verify {
                log.verify_ns.push(ns);
            } else {
                log.read_ns.push(ns);
            }
            log.items += if ok { items as u64 } else { 0 };
            log.distinct_keys += keys;
        }
    }
    log.client_cpu_s = cpu.seconds();
    log
}

fn distinct(keys: impl Iterator<Item = u64>) -> u64 {
    let mut keys: Vec<u64> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() as u64
}

/// A metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run. `ops_per_s` and the latency
/// medians are the median over the sessions of each session's figure, so
/// one session slowed by the host (CPU steal) does not move them;
/// `peak_rss_mb` is the high-water mark over the sessions; `setup_s` is
/// given. The p99s are not among them: on a 2-core shared host they swing
/// with the host's load far more than the bounds allow, so they go to the
/// metadata line instead ([`tails_us`]).
#[must_use]
pub fn end_to_end(sessions: Vec<Session>, setup_s: f64) -> (Vec<Metric>, Window, Probe) {
    let peak_rss_mb = sessions.iter().map(|s| s.probe.peak_rss_mb).fold(0.0, f64::max);
    let per_session = |f: &dyn Fn(&Window) -> f64| {
        median(&sessions.iter().map(|s| f(&s.window)).collect::<Vec<_>>())
    };
    let ops_per_s = per_session(&Window::ops_per_s);
    let read_p50_us = per_session(&|w| quantile(&w.read_ns, 0.5) / 1e3);
    let verify_p50_us = per_session(&|w| quantile(&w.verify_ns, 0.5) / 1e3);
    let write_p50_us = per_session(&|w| quantile(&w.write_ns, 0.5) / 1e3);
    let (w, probe) = merge(sessions);
    let metrics = vec![
        ("ops_per_s", ops_per_s, "1/s"),
        ("read_p50_us", read_p50_us, "us"),
        ("verify_p50_us", verify_p50_us, "us"),
        ("write_p50_us", write_p50_us, "us"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    (metrics, w, probe)
}

/// The pooled p99 latencies of a window, in microseconds.
#[must_use]
pub fn tails_us(w: &Window) -> Vec<Metric> {
    vec![
        ("read_p99_us", quantile(&w.read_ns, 0.99) / 1e3, "us"),
        ("verify_p99_us", quantile(&w.verify_ns, 0.99) / 1e3, "us"),
        ("write_p99_us", quantile(&w.write_ns, 0.99) / 1e3, "us"),
    ]
}

/// Folds a run's sessions into one window and one probe: counts, samples
/// and CPU times add up; gauges (live keys, threads, memory, MP counters)
/// are those of the last session.
#[must_use]
pub fn merge(sessions: Vec<Session>) -> (Window, Probe) {
    let mut window = Window::default();
    let mut probe = Probe::default();
    for s in sessions {
        let w = s.window;
        window.elapsed_s += w.elapsed_s;
        window.items += w.items;
        window.attempted += w.attempted;
        window.failed += w.failed;
        window.read_ns.extend(w.read_ns);
        window.verify_ns.extend(w.verify_ns);
        window.write_ns.extend(w.write_ns);
        window.late_ns.extend(w.late_ns);
        window.distinct_keys += w.distinct_keys;
        window.client_cpu_s += w.client_cpu_s;
        let p = s.probe;
        probe = Probe {
            steps: probe.steps + p.steps,
            help_cpu_s: probe.help_cpu_s + p.help_cpu_s,
            reactor_cpu_s: probe.reactor_cpu_s + p.reactor_cpu_s,
            ..p
        };
    }
    (window, probe)
}

/// The per-layer metrics of a traced run, from its merged sessions.
/// `tracing_overhead` is `1 − traced / untraced ops_per_s`, each pooled
/// over its sessions.
#[must_use]
pub fn per_layer(
    window: &Window,
    probe: &Probe,
    t: &Totals,
    spans: &[ThreadSpans],
    tracing_overhead: f64,
) -> Vec<Metric> {
    let items = window.items.max(1) as f64;
    let per_op = |x: u64| x as f64 / items;
    let ms_per_kop = |cpu_s: f64| cpu_s * 1e3 / (items / 1e3);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let client =
        |class: Class, op: Op| t.count(Role::Reader, class, op) + t.count(Role::Writer, class, op);
    let help = |class: Class, op: Op| t.count(Role::Help, class, op);
    let rounds = client(Class::Counter, Op::Rmw);
    let self_us: Vec<f64> = spans
        .iter()
        .flat_map(|s| &s.calls)
        .map(|c| c.dur_ns.saturating_sub(c.child_ns) as f64 / 1e3)
        .collect();
    let loads = &probe.shard_loads;
    let load_mean = loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64;
    let load_max = loads.iter().copied().max().unwrap_or(0) as f64;
    let is_mp = probe.mp.is_some();
    let mp_us = |op: Op, q: f64| if is_mp { t.quantile_ns(op, q) / 1e3 } else { 0.0 };
    let (registers, groups, workers) = probe.mp.unwrap_or((0, 0, 0));
    vec![
        ("core.reply_reads_per_round", ratio(client(Class::Reply, Op::Read), rounds), "count"),
        ("core.rounds_per_call", ratio(rounds, window.reader_calls()), "count"),
        ("store.self_us_per_call", mean(&self_us), "us"),
        ("store.live_keys", probe.live_keys as f64, "count"),
        (
            "store.shard_load_max_over_mean",
            if load_mean > 0.0 { load_max / load_mean } else { 0.0 },
            "ratio",
        ),
        (
            "store.distinct_keys_per_batch",
            ratio(window.distinct_keys, window.reader_calls()),
            "count",
        ),
        ("runtime.steps_per_op", per_op(probe.steps), "count"),
        ("runtime.help_accesses_per_op", per_op(t.role_count(Role::Help)), "count"),
        ("runtime.help_asker_polls_per_op", per_op(help(Class::Counter, Op::Read)), "count"),
        ("runtime.help_reply_writes_per_op", per_op(help(Class::Reply, Op::Write)), "count"),
        ("runtime.help_witness_rmw_per_op", per_op(help(Class::Witness, Op::Rmw)), "count"),
        ("runtime.help_cpu_ms_per_kop", ms_per_kop(probe.help_cpu_s), "ms"),
        ("runtime.client_cpu_ms_per_kop", ms_per_kop(window.client_cpu_s), "ms"),
        ("runtime.help_threads", probe.help_threads as f64, "count"),
        ("runtime.base_access_ns_mean", ratio(t.all_nanos(), t.all_count()), "ns"),
        ("mp.read_us_p50", mp_us(Op::Read, 0.5), "us"),
        ("mp.read_us_p99", mp_us(Op::Read, 0.99), "us"),
        ("mp.write_us_p50", mp_us(Op::Write, 0.5), "us"),
        ("mp.rmw_us_p50", mp_us(Op::Rmw, 0.5), "us"),
        ("mp.accesses_per_op", if is_mp { per_op(t.all_count()) } else { 0.0 }, "count"),
        ("mp.reactor_cpu_ms_per_kop", ms_per_kop(probe.reactor_cpu_s), "ms"),
        ("mp.registers", registers as f64, "count"),
        ("mp.groups", groups as f64, "count"),
        ("mp.workers", workers as f64, "count"),
        ("proc.threads", probe.threads as f64, "count"),
        ("proc.rss_mb_end", probe.rss_mb_end, "MB"),
        ("bench.tracing_overhead", tracing_overhead, "share"),
    ]
}
