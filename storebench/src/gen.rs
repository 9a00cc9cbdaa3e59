//! Seeded inputs: every key, mix choice, value and writer due time of a run
//! is drawn from the workload seed, so the same seed gives the same inputs.
//!
//! Keys and verify checks come from the store's own workload samplers
//! (`byzreg_store::workload::{sample_key, build_check_batch}`), one
//! `StdRng` stream per client role.

use byzreg_store::workload::{build_check_batch, sample_key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workloads of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Authenticated family on in-process shared memory.
    ShmAuthenticated,
    /// The same shape exactly on the message-passing backend.
    MpAuthenticated,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 2] = [Workload::ShmAuthenticated, Workload::MpAuthenticated];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShmAuthenticated => "shm-authenticated",
            Workload::MpAuthenticated => "mp-authenticated",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Keys written before the window.
pub const KEYS: u64 = 1024;
/// Store shards.
pub const SHARDS: usize = 8;
/// Keys per `read_many`/`verify_many` batch.
pub const BATCH: usize = 16;
/// Zipf skew of the key samplers.
pub const SKEW: f64 = 0.8;
/// Unmeasured warm-up of each session, in seconds: the first second is
/// slow while caches and the MP backend's per-register state fill.
pub const WARMUP_S: f64 = 1.0;
/// Mean rate of the open-loop writer. No workload the code serves fixes a
/// rate (the store's own driver is closed-loop), so this one is a choice,
/// not a measured rate (see README.md).
pub const WRITES_PER_S: f64 = 50.0;

/// Stream tags of the two client roles (the idiom of
/// `byzreg_store::workload`: the seed xor a per-role tag).
const WRITER_STREAM: u64 = 0x5752_0000;
const READER_STREAM: u64 = 0x5244_0000;

/// The seed of session `i` of a run under `seed`.
#[must_use]
pub fn session_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x1_0000).wrapping_add(i)
}

/// Uniform in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One writer call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOp {
    /// When the call is due, in nanoseconds after the clients start.
    pub due_ns: u64,
    /// The key written; the value is always `value_of(key)`.
    pub key: u64,
}

/// One reader call.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadOp {
    /// `read_many` of a batch of keys.
    ReadMany(Vec<u64>),
    /// `verify_many` of a batch of `(key, value)` checks, half of them of
    /// the genuine value and half of `bogus_value_of(key)`.
    VerifyMany(Vec<(u64, u64)>),
}

/// The writer's call sequence under `seed`: Poisson arrivals at
/// [`WRITES_PER_S`] on Zipf-skewed keys.
#[derive(Clone, Debug)]
pub struct WriterStream {
    rng: StdRng,
    due_ns: f64,
}

impl WriterStream {
    /// The stream under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> WriterStream {
        WriterStream { rng: StdRng::seed_from_u64(seed ^ WRITER_STREAM), due_ns: 0.0 }
    }
}

impl Iterator for WriterStream {
    type Item = WriteOp;

    fn next(&mut self) -> Option<WriteOp> {
        // Poisson arrivals: exponential gaps at the mean rate.
        let gap_s = -(1.0 - unit(&mut self.rng)).ln() / WRITES_PER_S;
        self.due_ns += gap_s * 1e9;
        Some(WriteOp { due_ns: self.due_ns as u64, key: sample_key(&mut self.rng, KEYS, SKEW) })
    }
}

/// The reader's call sequence under `seed`: batches of [`BATCH`]
/// Zipf-skewed keys, half of them reads and half verifies.
#[derive(Clone, Debug)]
pub struct ReaderStream {
    rng: StdRng,
}

impl ReaderStream {
    /// The stream under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ReaderStream {
        ReaderStream { rng: StdRng::seed_from_u64(seed ^ READER_STREAM) }
    }
}

impl Iterator for ReaderStream {
    type Item = ReadOp;

    fn next(&mut self) -> Option<ReadOp> {
        let rng = &mut self.rng;
        Some(if rng.random_bool(0.5) {
            ReadOp::VerifyMany(build_check_batch(rng, KEYS, SKEW, BATCH))
        } else {
            ReadOp::ReadMany((0..BATCH).map(|_| sample_key(rng, KEYS, SKEW)).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_due_times_are_increasing_at_the_mean_rate() {
        let ops: Vec<WriteOp> = WriterStream::new(3).take(3000).collect();
        assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let rate = 3000.0 / (ops[2999].due_ns as f64 / 1e9);
        assert!((rate / WRITES_PER_S - 1.0).abs() < 0.1, "mean rate {rate}");
        assert!(ops.iter().all(|op| op.key < KEYS));
    }
}
