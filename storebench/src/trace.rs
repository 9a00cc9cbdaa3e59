//! Per-layer measurement from outside the program.
//!
//! [`TracedFactory`] wraps the real [`RegisterFactory`] (`LocalFactory` or
//! `MpFactory`). Each port the real factory returns is wrapped in a
//! `custom_swmr` cell gated by a private [`FreeGate`] that no thread
//! participates in, so the wrapper adds no step to the system's gate and
//! changes no scheduling: every access still takes exactly one step of the
//! real port. The wrapper classifies each cell by the name the algorithm
//! gives it and attributes each access to a thread role by thread name.
//!
//! While a [`Hub`] records, every base access is counted and timed, and a
//! client thread's store call is a span whose children are the base
//! accesses made on that thread during the call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use byzreg_runtime::{
    custom_swmr, CellBackend, Env, FreeGate, ProcessId, ReadPort, RegisterFactory, StepGate, Value,
    WritePort,
};
use parking_lot::Mutex;

/// What a base register is, by the name the algorithm creates it under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `C[k]`: reader `k`'s asker counter.
    Counter,
    /// `R[j,k]`: helper `j`'s reply register for asker `k`.
    Reply,
    /// `R[i]`: process `i`'s witness (or echo) set.
    Witness,
    /// `R*`: the verifiable writer's value register.
    RStar,
    /// `R1`: the authenticated writer's record.
    R1,
    /// `E[i]`: the sticky echo register of process `i`.
    Echo,
    /// Any other name.
    Other,
}

impl Class {
    /// Number of classes.
    pub const COUNT: usize = 7;

    /// Classifies a register by its name.
    #[must_use]
    pub fn of(name: &str) -> Class {
        if name.starts_with("C[") {
            Class::Counter
        } else if name.starts_with("R[") {
            if name.contains(',') {
                Class::Reply
            } else {
                Class::Witness
            }
        } else if name == "R*" {
            Class::RStar
        } else if name == "R1" {
            Class::R1
        } else if name.starts_with("E[") {
            Class::Echo
        } else {
            Class::Other
        }
    }
}

/// The kind of a base access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A read of the register.
    Read,
    /// An owner write.
    Write,
    /// An owner read-modify-write.
    Rmw,
}

impl Op {
    /// Number of access kinds.
    pub const COUNT: usize = 3;
}

/// Which thread made an access, by thread name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The benchmark's reader client (`bench-reader`).
    Reader,
    /// The benchmark's writer client (`bench-writer`).
    Writer,
    /// A help-shard engine of the system (`help-s*`).
    Help,
    /// An MP reactor worker (`mp-reactor-*`).
    Reactor,
    /// Anything else.
    Other,
}

impl Role {
    /// Number of roles.
    pub const COUNT: usize = 5;

    /// The role of a thread with this name.
    #[must_use]
    pub fn of(name: &str) -> Role {
        if name == READER_THREAD {
            Role::Reader
        } else if name == WRITER_THREAD {
            Role::Writer
        } else if name.starts_with("help-") {
            Role::Help
        } else if name.starts_with("mp-reactor") {
            Role::Reactor
        } else {
            Role::Other
        }
    }
}

/// Thread name of the reader client.
pub const READER_THREAD: &str = "bench-reader";
/// Thread name of the writer client.
pub const WRITER_THREAD: &str = "bench-writer";

/// A log-bucketed latency histogram: 16 buckets per power of two, so a
/// quantile is read to within about 6 %.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

const HIST_BUCKETS: usize = 32 + 59 * 16;

impl Histogram {
    fn new() -> Histogram {
        Histogram { buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect() }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 32 {
            return ns as usize;
        }
        let e = 63 - u64::from(ns.leading_zeros());
        let sub = (ns >> (e - 4)) & 15;
        32 + (e as usize - 5) * 16 + sub as usize
    }

    /// The midpoint of bucket `i`, in nanoseconds.
    fn midpoint(i: usize) -> f64 {
        if i < 32 {
            return i as f64;
        }
        let e = (i - 32) / 16 + 5;
        let sub = ((i - 32) % 16) as u64;
        let low = (16 + sub) << (e - 4);
        low as f64 + (1u64 << (e - 4)) as f64 / 2.0
    }

    fn record(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn add_into(&self, acc: &mut [u64]) {
        for (a, b) in acc.iter_mut().zip(&self.buckets) {
            *a += b.load(Ordering::Relaxed);
        }
    }
}

/// The `q`-quantile (0..=1) of bucket counts, in nanoseconds; 0 if empty.
#[must_use]
pub fn hist_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Histogram::midpoint(i);
        }
    }
    unreachable!("rank is at most the total")
}

/// Counters of one thread, updated only by that thread.
struct ThreadStats {
    role: Role,
    counts: Vec<AtomicU64>,
    nanos: Vec<AtomicU64>,
    hist: [Histogram; Op::COUNT],
}

fn slot(class: Class, op: Op) -> usize {
    class as usize * Op::COUNT + op as usize
}

/// One store call of a client thread.
#[derive(Clone, Debug)]
pub struct CallSpan {
    /// `read_many`, `verify_many`, `read`, `verify` or `write`.
    pub kind: &'static str,
    /// Start, in nanoseconds since the hub was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Base accesses made on the calling thread during the call.
    pub child_count: u64,
    /// Time inside those accesses, in nanoseconds.
    pub child_ns: u64,
}

/// One base access inside a store call (kept for the first calls only).
#[derive(Clone, Copy, Debug)]
pub struct ChildSpan {
    /// Index of the parent call in its thread's call list.
    pub call: u32,
    /// Register class.
    pub class: Class,
    /// Access kind.
    pub op: Op,
    /// Start, in nanoseconds since the hub was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The spans of one client thread.
#[derive(Debug, Default)]
pub struct ThreadSpans {
    /// The thread's name.
    pub thread: String,
    /// Every store call made while recording.
    pub calls: Vec<CallSpan>,
    /// The base accesses of the first calls, up to [`CHILD_SPAN_CAP`].
    pub children: Vec<ChildSpan>,
    /// Base accesses not kept as child spans (still counted).
    pub dropped_children: u64,
}

/// Child spans kept per thread; later accesses are only counted.
pub const CHILD_SPAN_CAP: usize = 100_000;

#[derive(Default)]
struct OpenCall {
    start: Option<Instant>,
    child_count: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    hub: usize,
    stats: Option<Arc<ThreadStats>>,
    call: OpenCall,
    spans: ThreadSpans,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static HUB_IDS: AtomicUsize = AtomicUsize::new(1);

/// Aggregated counters of every thread, by role, class and access kind.
#[derive(Clone, Debug)]
pub struct Totals {
    counts: Vec<u64>,
    nanos: Vec<u64>,
    hist: Vec<Vec<u64>>,
}

impl Totals {
    fn index(role: Role, class: Class, op: Op) -> usize {
        role as usize * Class::COUNT * Op::COUNT + slot(class, op)
    }

    /// Accesses of `class` by `op` made by threads of `role`.
    #[must_use]
    pub fn count(&self, role: Role, class: Class, op: Op) -> u64 {
        self.counts[Self::index(role, class, op)]
    }

    /// All accesses made by threads of `role`.
    #[must_use]
    pub fn role_count(&self, role: Role) -> u64 {
        let per_role = Class::COUNT * Op::COUNT;
        self.counts[role as usize * per_role..][..per_role].iter().sum()
    }

    /// All accesses.
    #[must_use]
    pub fn all_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total time inside all accesses, in nanoseconds.
    #[must_use]
    pub fn all_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// The `q`-quantile duration of accesses of kind `op`, in nanoseconds.
    #[must_use]
    pub fn quantile_ns(&self, op: Op, q: f64) -> f64 {
        hist_quantile(&self.hist[op as usize], q)
    }
}

/// Collects counters and spans while recording is on.
pub struct Hub {
    id: usize,
    origin: Instant,
    recording: AtomicBool,
    threads: Mutex<Vec<Arc<ThreadStats>>>,
    spans: Mutex<Vec<ThreadSpans>>,
}

impl Default for Hub {
    fn default() -> Self {
        Hub::new()
    }
}

impl Hub {
    /// A hub that does not record yet.
    #[must_use]
    pub fn new() -> Hub {
        Hub {
            id: HUB_IDS.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops counting accesses.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` against the calling thread's state for this hub,
    /// registering the thread on first use.
    fn with_local<R>(&self, f: impl FnOnce(&mut Local, &ThreadStats) -> R) -> R {
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            if local.hub != self.id || local.stats.is_none() {
                let name = std::thread::current().name().unwrap_or("").to_string();
                let stats = Arc::new(ThreadStats {
                    role: Role::of(&name),
                    counts: (0..Class::COUNT * Op::COUNT).map(|_| AtomicU64::new(0)).collect(),
                    nanos: (0..Class::COUNT * Op::COUNT).map(|_| AtomicU64::new(0)).collect(),
                    hist: [Histogram::new(), Histogram::new(), Histogram::new()],
                });
                self.threads.lock().push(Arc::clone(&stats));
                *local = Local {
                    hub: self.id,
                    stats: Some(stats),
                    spans: ThreadSpans { thread: name, ..ThreadSpans::default() },
                    ..Local::default()
                };
            }
            let stats = Arc::clone(local.stats.as_ref().expect("registered above"));
            f(&mut local, &stats)
        })
    }

    /// Times and counts one base access.
    fn access<R>(&self, class: Class, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.recording.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.with_local(|local, stats| {
            let i = slot(class, op);
            stats.counts[i].fetch_add(1, Ordering::Relaxed);
            stats.nanos[i].fetch_add(dur_ns, Ordering::Relaxed);
            stats.hist[op as usize].record(dur_ns);
            if local.call.start.is_some() {
                local.call.child_count += 1;
                local.call.child_ns += dur_ns;
                if local.spans.children.len() < CHILD_SPAN_CAP {
                    let child = ChildSpan {
                        call: local.spans.calls.len() as u32,
                        class,
                        op,
                        start_ns: self.ns_since_origin(start),
                        dur_ns,
                    };
                    local.spans.children.push(child);
                } else {
                    local.spans.dropped_children += 1;
                }
            }
        });
        out
    }

    /// Runs one store call of a client thread as a span.
    pub fn call<R>(&self, kind: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        self.with_local(|local, _| {
            local.call = OpenCall { start: Some(start), ..OpenCall::default() }
        });
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.with_local(|local, _| {
            let call = std::mem::take(&mut local.call);
            local.spans.calls.push(CallSpan {
                kind,
                start_ns: self.ns_since_origin(start),
                dur_ns,
                child_count: call.child_count,
                child_ns: call.child_ns,
            });
        });
        out
    }

    /// Hands the calling thread's spans to the hub; client threads call
    /// this once, when their loop ends.
    pub fn finish_thread(&self) {
        let spans = self.with_local(|local, _| std::mem::take(&mut local.spans));
        if !spans.calls.is_empty() {
            self.spans.lock().push(spans);
        }
    }

    /// The spans handed over by client threads.
    #[must_use]
    pub fn take_spans(&self) -> Vec<ThreadSpans> {
        std::mem::take(&mut *self.spans.lock())
    }

    /// Sums every thread's counters.
    #[must_use]
    pub fn totals(&self) -> Totals {
        let per_role = Class::COUNT * Op::COUNT;
        let mut counts = vec![0; Role::COUNT * per_role];
        let mut nanos = vec![0; Role::COUNT * per_role];
        let mut hist = vec![vec![0; HIST_BUCKETS]; Op::COUNT];
        for stats in self.threads.lock().iter() {
            let base = stats.role as usize * per_role;
            for i in 0..per_role {
                counts[base + i] += stats.counts[i].load(Ordering::Relaxed);
                nanos[base + i] += stats.nanos[i].load(Ordering::Relaxed);
            }
            for (h, acc) in stats.hist.iter().zip(hist.iter_mut()) {
                h.add_into(acc);
            }
        }
        Totals { counts, nanos, hist }
    }
}

/// A [`RegisterFactory`] that counts and times every base access of the
/// registers it creates, forwarding creation and grouping to `inner`.
pub struct TracedFactory<F> {
    inner: F,
    hub: Arc<Hub>,
    gate: Arc<dyn StepGate>,
}

impl<F: RegisterFactory> TracedFactory<F> {
    /// Wraps `inner`, reporting to `hub`.
    pub fn new(inner: F, hub: Arc<Hub>) -> Self {
        TracedFactory { inner, hub, gate: Arc::new(FreeGate::new()) }
    }

    /// The wrapped factory.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

struct TracedCell<T> {
    write: WritePort<T>,
    read: ReadPort<T>,
    class: Class,
    hub: Arc<Hub>,
}

impl<T: Value> CellBackend<T> for TracedCell<T> {
    fn load(&self) -> T {
        self.hub.access(self.class, Op::Read, || self.read.read())
    }

    fn store(&self, v: T) {
        self.hub.access(self.class, Op::Write, || self.write.write(v));
    }

    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T {
        self.hub.access(self.class, Op::Rmw, || {
            self.write.update(|v| {
                f(v);
                v.clone()
            })
        })
    }
}

impl<F: RegisterFactory> RegisterFactory for TracedFactory<F> {
    fn create<T: Value>(
        &self,
        env: &Env,
        owner: ProcessId,
        name: String,
        init: T,
    ) -> (WritePort<T>, ReadPort<T>) {
        let class = Class::of(&name);
        let (write, read) = self.inner.create(env, owner, name.clone(), init);
        let cell = TracedCell { write, read, class, hub: Arc::clone(&self.hub) };
        custom_swmr(Arc::clone(&self.gate), owner, name, Box::new(cell))
    }

    fn open_group(&self, label: u64) {
        self.inner.open_group(label);
    }

    fn close_group(&self) {
        self.inner.close_group();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_register_names() {
        assert_eq!(Class::of("C[2]"), Class::Counter);
        assert_eq!(Class::of("R[3,2]"), Class::Reply);
        assert_eq!(Class::of("R[3]"), Class::Witness);
        assert_eq!(Class::of("R*"), Class::RStar);
        assert_eq!(Class::of("R1"), Class::R1);
        assert_eq!(Class::of("E[1]"), Class::Echo);
        assert_eq!(Class::of("X"), Class::Other);
    }

    #[test]
    fn roles_follow_thread_names() {
        assert_eq!(Role::of(READER_THREAD), Role::Reader);
        assert_eq!(Role::of(WRITER_THREAD), Role::Writer);
        assert_eq!(Role::of("help-s3"), Role::Help);
        assert_eq!(Role::of("mp-reactor-0"), Role::Reactor);
        assert_eq!(Role::of("main"), Role::Other);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let h = Histogram::new();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        let mut acc = vec![0; HIST_BUCKETS];
        h.add_into(&mut acc);
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = hist_quantile(&acc, q);
            assert!((got / want - 1.0).abs() < 0.07, "q{q}: {got} vs {want}");
        }
        assert_eq!(hist_quantile(&[0; 4], 0.5), 0.0);
    }
}
