//! Atomic SWMR/SWSR base registers with structural single-writer enforcement.
//!
//! The paper's base objects (§3) are atomic single-writer multi-reader
//! registers. A register is materialized as a lock-backed cell; the *write
//! port* is only handed to the owning process, which captures the Remark of
//! §1: *"no process, even a Byzantine one, can access the 'write port' of any
//! SWMR register that it does not own."*
//!
//! Every access is one shared-memory *step* and passes through the system's
//! [`StepGate`](crate::gate::StepGate), so the deterministic scheduler can
//! serialize and reorder accesses.
//!
//! # Owner read-modify-write
//!
//! The pseudocode contains owner updates such as `R1 ← R1 ∪ {v}` (Alg. 1
//! line 5). In the paper each process is *sequential* — its operation steps
//! and its `Help()` steps interleave in a single stream — so such an update
//! can never race with another update by the same process. This runtime runs
//! a process's operations and its `Help()` procedure on different threads
//! (the proofs require `Help` to keep running *during* the process's own
//! operations, cf. Claim 40). [`WritePort::update`] performs the owner's
//! read-modify-write as a single step, which exactly recovers the paper's
//! sequential-process semantics without giving readers or other processes
//! any additional power.
//!
//! # Write versions
//!
//! Every register counts its completed writes ([`ReadPort::version`]), so a
//! reader that polls a register in a loop can skip a re-read that would
//! return what it already saw.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::gate::{self, StepGate};
use crate::pid::ProcessId;

/// A pluggable register backend.
///
/// The default backend is an in-process lock-backed cell; `byzreg-mp`
/// provides a backend that runs each access through a message-passing
/// emulation of a SWMR register (Mostéfaoui–Petrolia–Raynal–Jard style),
/// which is how the paper's §1 claim — the register algorithms also work in
/// message-passing systems with `n > 3f` — is executed rather than merely
/// cited.
pub trait CellBackend<T>: Send + Sync {
    /// Atomically reads the register.
    fn load(&self) -> T;
    /// Atomically writes the register (owner only, by construction).
    fn store(&self, v: T);
    /// Owner read-modify-write (see the module docs on why the owner's RMW
    /// is one step). Returns the value after modification.
    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T;
}

struct LocalCell<T>(RwLock<T>);

impl<T: Clone + Send + Sync> CellBackend<T> for LocalCell<T> {
    fn load(&self) -> T {
        self.0.read().clone()
    }

    fn store(&self, v: T) {
        *self.0.write() = v;
    }

    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T {
        let mut guard = self.0.write();
        f(&mut guard);
        guard.clone()
    }
}

struct Cell<T> {
    /// Boxed rather than a `String`: the eight bytes saved pay for `version`.
    name: Box<str>,
    owner: ProcessId,
    value: Box<dyn CellBackend<T>>,
    gate: Arc<dyn StepGate>,
    /// The number of completed writes and updates (see [`ReadPort::version`]).
    version: AtomicU64,
}

impl<T> Cell<T> {
    fn new(
        gate: Arc<dyn StepGate>,
        owner: ProcessId,
        name: String,
        value: Box<dyn CellBackend<T>>,
    ) -> Arc<Self> {
        let name = name.into_boxed_str();
        Arc::new(Cell { name, owner, value, gate, version: AtomicU64::new(0) })
    }

    /// Counts a write whose backend access has returned.
    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// The owner's handle to a SWMR register.
///
/// Cloning is allowed so the owner can use the register both from its
/// operation thread and from its `Help()` thread; constructors must hand all
/// clones to the owning process only.
pub struct WritePort<T> {
    cell: Arc<Cell<T>>,
}

/// A reader's handle to a SWMR register. Freely clonable.
pub struct ReadPort<T> {
    cell: Arc<Cell<T>>,
}

impl<T> Clone for WritePort<T> {
    fn clone(&self) -> Self {
        WritePort { cell: Arc::clone(&self.cell) }
    }
}

impl<T> Clone for ReadPort<T> {
    fn clone(&self) -> Self {
        ReadPort { cell: Arc::clone(&self.cell) }
    }
}

impl<T: Clone + Send + Sync + 'static> WritePort<T> {
    /// Atomically writes `v` into the register (one step).
    pub fn write(&self, v: T) {
        gate::step(&self.cell.gate, || {
            self.cell.value.store(v);
            self.cell.bump();
        });
    }

    /// Reads the register (one step). Owners may read their own registers.
    #[must_use]
    pub fn read(&self) -> T {
        gate::step(&self.cell.gate, || self.cell.value.load())
    }

    /// Owner read-modify-write as a single step.
    ///
    /// See the module docs for why this is sound: it recovers the sequential
    /// interleaving of the owner's own accesses that the paper's model
    /// guarantees.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        gate::step(&self.cell.gate, || {
            let mut out = None;
            self.cell.value.rmw(Box::new(|v| out = Some(f(v))));
            self.cell.bump();
            out.expect("rmw closure ran")
        })
    }

    /// A read-only view of the same register.
    #[must_use]
    pub fn read_port(&self) -> ReadPort<T> {
        ReadPort { cell: Arc::clone(&self.cell) }
    }

    /// The owning process.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.cell.owner
    }

    /// The diagnostic name of the register (e.g. `"R[3]"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.cell.name
    }
}

impl<T: Clone + Send + Sync + 'static> ReadPort<T> {
    /// Atomically reads the register (one step).
    #[must_use]
    pub fn read(&self) -> T {
        gate::step(&self.cell.gate, || self.cell.value.load())
    }

    /// The register's write version: how many [`WritePort::write`]s and
    /// [`WritePort::update`]s have completed. Not a step.
    ///
    /// A reader that samples the version, reads, and later samples the same
    /// version again may skip the re-read: it would return what the first
    /// read returned. Why that is sound:
    ///
    /// * The version is bumped inside the write's step, **after** the
    ///   backend's `store`/`rmw` returned. So every write that has completed
    ///   has bumped it, and any write the sample does not count was still in
    ///   progress at the sample.
    /// * The reader samples the version **before** it reads. A write
    ///   counted by the first sample finished before the read began, so the
    ///   read saw it or a later value. A write that completes later bumps the
    ///   version and forces the next read.
    /// * Only a [`WritePort`] changes a register made by [`swmr`] or by a
    ///   factory over [`custom_swmr`] whose backend is reached through no
    ///   other handle (`LocalFactory`, and `byzreg-mp`'s `MpFactory`, which
    ///   hands out no Byzantine endpoint). So the version sees every change a
    ///   reader could observe.
    ///
    /// Skipping is therefore the same as issuing the re-read later, which
    /// asynchrony already allows: a polling loop that acts only on content
    /// it has not seen behaves as in a run where that read was delayed, and
    /// the write that moves the version makes it read again.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.cell.version.load(Ordering::Acquire)
    }

    /// The owning (writing) process.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.cell.owner
    }

    /// The diagnostic name of the register.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.cell.name
    }
}

impl<T> fmt::Debug for WritePort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WritePort({} owned by {})", self.cell.name, self.cell.owner)
    }
}

impl<T> fmt::Debug for ReadPort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReadPort({} owned by {})", self.cell.name, self.cell.owner)
    }
}

/// Creates an atomic SWMR register owned by `owner` with initial value
/// `init`, gated by `gate`.
///
/// Returns the unique write port and a clonable read port. SWSR registers
/// (such as the paper's `R_{j,k}`) use the same cell type: simply hand the
/// read port to a single reader.
pub fn swmr<T: Clone + Send + Sync + 'static>(
    gate: Arc<dyn StepGate>,
    owner: ProcessId,
    name: impl Into<String>,
    init: T,
) -> (WritePort<T>, ReadPort<T>) {
    let cell = Cell::new(gate, owner, name.into(), Box::new(LocalCell(RwLock::new(init))));
    (WritePort { cell: Arc::clone(&cell) }, ReadPort { cell })
}

/// Creates a register backed by a custom [`CellBackend`] — e.g. the
/// message-passing emulation of `byzreg-mp`. Semantics (single writer,
/// gated steps) are identical to [`swmr`].
pub fn custom_swmr<T: Clone + Send + Sync + 'static>(
    gate: Arc<dyn StepGate>,
    owner: ProcessId,
    name: impl Into<String>,
    backend: Box<dyn CellBackend<T>>,
) -> (WritePort<T>, ReadPort<T>) {
    let cell = Cell::new(gate, owner, name.into(), backend);
    (WritePort { cell: Arc::clone(&cell) }, ReadPort { cell })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::FreeGate;

    fn gate() -> Arc<dyn StepGate> {
        Arc::new(FreeGate::new())
    }

    #[test]
    fn read_your_write() {
        let (w, r) = swmr(gate(), ProcessId::new(1), "R*", 0u64);
        assert_eq!(r.read(), 0);
        w.write(17);
        assert_eq!(r.read(), 17);
        assert_eq!(w.read(), 17);
    }

    #[test]
    fn update_is_read_modify_write() {
        let (w, r) = swmr(gate(), ProcessId::new(1), "R1", Vec::<u32>::new());
        w.update(|set| set.push(1));
        w.update(|set| set.push(2));
        assert_eq!(r.read(), vec![1, 2]);
    }

    #[test]
    fn concurrent_owner_updates_do_not_lose_writes() {
        // Two threads of the *same* owner (op thread + help thread) racing on
        // R1 <- R1 ∪ {v}: update() must not lose elements.
        let (w, r) = swmr(gate(), ProcessId::new(1), "R1", std::collections::BTreeSet::new());
        let w2 = w.clone();
        let t = std::thread::spawn(move || {
            for i in 0..500u32 {
                w2.update(|s| {
                    s.insert(i * 2);
                });
            }
        });
        for i in 0..500u32 {
            w.update(|s| {
                s.insert(i * 2 + 1);
            });
        }
        t.join().unwrap();
        assert_eq!(r.read().len(), 1000);
    }

    #[test]
    fn ports_report_owner_and_name() {
        let (w, r) = swmr(gate(), ProcessId::new(4), "E[4]", 0u8);
        assert_eq!(w.owner(), ProcessId::new(4));
        assert_eq!(r.owner(), ProcessId::new(4));
        assert_eq!(w.name(), "E[4]");
        assert_eq!(format!("{r:?}"), "ReadPort(E[4] owned by p4)");
    }

    #[test]
    fn writes_and_updates_bump_the_version_reads_and_clones_do_not() {
        let (w, r) = swmr(gate(), ProcessId::new(1), "R", 0u32);
        assert_eq!(r.version(), 0);
        let (_, _) = (w.read(), r.read());
        let (w2, r2) = (w.clone(), r.clone());
        assert_eq!((r.version(), w.read_port().version()), (0, 0), "reads and clones");
        w.write(1);
        assert_eq!(r.version(), 1, "write");
        w2.update(|x| *x += 1);
        assert_eq!(r2.version(), 2, "update, seen through every clone");
        w.update(|_| ()); // an update that changes nothing still counts
        assert_eq!(r.version(), 3);
    }

    #[test]
    fn the_version_counts_custom_backend_writes_once_each() {
        use std::sync::atomic::AtomicUsize;
        struct Counting(RwLock<u32>, Arc<AtomicUsize>);
        impl CellBackend<u32> for Counting {
            fn load(&self) -> u32 {
                self.1.fetch_add(1, Ordering::SeqCst);
                *self.0.read()
            }
            fn store(&self, v: u32) {
                *self.0.write() = v;
            }
            fn rmw(&self, f: Box<dyn FnOnce(&mut u32) + '_>) -> u32 {
                let mut g = self.0.write();
                f(&mut g);
                *g
            }
        }
        let loads = Arc::new(AtomicUsize::new(0));
        let backend = Box::new(Counting(RwLock::new(0), Arc::clone(&loads)));
        let (w, r) = custom_swmr(gate(), ProcessId::new(2), "C", backend);
        w.write(4);
        w.update(|x| *x += 1);
        assert_eq!((r.version(), loads.load(Ordering::SeqCst)), (2, 0), "version is no load");
        assert_eq!(r.read(), 5);
        assert_eq!((r.version(), loads.load(Ordering::SeqCst)), (2, 1));
    }

    #[test]
    fn every_access_is_a_gated_step() {
        let g: Arc<dyn StepGate> = Arc::new(FreeGate::new());
        let (w, r) = swmr(Arc::clone(&g), ProcessId::new(1), "R", 0u8);
        let _p = crate::gate::Participation::enter(Arc::clone(&g), ProcessId::new(1));
        w.write(1);
        let _ = r.read();
        w.update(|x| *x += 1);
        assert_eq!(g.steps(), 3);
    }
}
