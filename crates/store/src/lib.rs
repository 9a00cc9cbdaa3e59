//! # byzreg-store
//!
//! From *one* register to a keyed *store* of many: a sharded map from keys
//! to lazily-instantiated [`SignatureRegister`] instances — any family,
//! over any [`RegisterFactory`] backend (in-process shared memory or the
//! message-passing emulation of `byzreg-mp`) — plus a seeded workload
//! driver that measures it under realistic mixed traffic.
//!
//! [`SignatureRegister`]: byzreg_core::api::SignatureRegister
//! [`RegisterFactory`]: byzreg_runtime::RegisterFactory
//!
//! Three layers:
//!
//! * [`store`] — [`ByzStore`](store::ByzStore): shard-level routing (keys
//!   in different shards never contend on store metadata), per-key
//!   register instantiation on first touch, and batched
//!   [`verify_many`](store::ByzStore::verify_many) /
//!   [`read_many`](store::ByzStore::read_many) paths — each dedupes per
//!   key and then fuses **all** engine-backed keys into one
//!   cross-register §5.1 round sequence sharing a single logical asker
//!   counter per reader;
//! * [`workload`] — a deterministic, seeded driver: read/write/verify mix,
//!   Zipf-like key skew, configurable writer/reader thread counts and
//!   Byzantine fraction;
//! * [`report`] — throughput and latency-percentile aggregation with a
//!   machine-readable JSON rendering (the `BENCH_store.json` baseline).
//!
//! # Example
//!
//! ```
//! use byzreg_core::VerifiableRegister;
//! use byzreg_runtime::{LocalFactory, ProcessId, System};
//! use byzreg_store::store::{ByzStore, StoreConfig};
//!
//! # fn main() -> byzreg_runtime::Result<()> {
//! let system = System::builder(4).build();
//! let store: ByzStore<'_, u64, u64, VerifiableRegister<u64>, _> =
//!     ByzStore::new(&system, LocalFactory, 0, StoreConfig::default());
//!
//! store.write(7, 700)?;
//! store.write(9, 900)?;
//! let p2 = ProcessId::new(2);
//! assert_eq!(store.read(p2, &7)?, Some(700));
//! // One batched call: key 7 pays a single quorum round sequence for
//! // both of its checks.
//! let got = store.verify_many(p2, &[(7, 700), (9, 900), (7, 123)])?;
//! assert_eq!(got, vec![true, true, false]);
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod store;
pub mod workload;

pub use report::{OpStats, WorkloadReport};
pub use store::{ByzStore, StoreConfig};
pub use workload::{run_workload, WorkloadConfig};
