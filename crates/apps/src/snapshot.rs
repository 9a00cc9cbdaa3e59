//! **Byzantine atomic snapshot** — signature-free, `n > 3f`.
//!
//! Cohen & Keidar [5] give a Byzantine-linearizable atomic snapshot from
//! SWMR registers with signatures (`n > 2f`); signing each written value is
//! what stops a Byzantine process from presenting different cell values to
//! different scanners. Here each process's cell is an **authenticated
//! register** (Algorithm 2), whose `Read` only returns verified values with
//! the relay property — so a scanned value can be justified to everyone.
//!
//! The scan uses the classic double collect of Afek et al. [1]: repeat until
//! two successive collects are equal. Unlike [5] we do not implement the
//! embedded-scan helping mechanism, so scans are **obstruction-free** rather
//! than wait-free (a bounded retry count with a best-effort fallback keeps
//! tests and benches terminating). This is a deliberate deviation from [5]:
//! the snapshot is an application demo (E7), not one of the paper's
//! constructions.

use byzreg_core::authenticated::AuthenticatedRegister;
use byzreg_core::{AuthenticatedReader, AuthenticatedWriter};
use byzreg_runtime::{LocalFactory, ProcessId, Result, System};

/// A cell value: `(sequence, value)` — the sequence keeps successive updates
/// by the same process distinct so double collects detect motion.
pub type Cell<V> = (u64, V);

/// One installed snapshot object: an authenticated register per process.
pub struct AtomicSnapshot<V: Ord> {
    cells: Vec<AuthenticatedRegister<Cell<V>>>,
    n: usize,
    v0: V,
}

impl<V: byzreg_runtime::Value> AtomicSnapshot<V> {
    /// Installs the object with every segment initialized to `v0`, on one help shard.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    #[must_use]
    pub fn install(system: &System, v0: V) -> Self {
        let n = system.env().n();
        let shard = system.new_help_shard();
        let cells = ProcessId::all(n)
            .map(|i| {
                AuthenticatedRegister::install_in_shard(
                    system,
                    (0, v0.clone()),
                    &LocalFactory,
                    &shard,
                    i,
                )
            })
            .collect();
        AtomicSnapshot { cells, n, v0 }
    }

    /// The handle of a correct process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is declared Byzantine or the handle was taken.
    #[must_use]
    pub fn handle(&self, pid: ProcessId) -> SnapshotHandle<V> {
        let writer = self.cells[pid.zero_based()].writer();
        let readers = (1..=self.n)
            .map(|i| {
                let owner = ProcessId::new(i);
                (owner != pid).then(|| self.cells[i - 1].reader(pid))
            })
            .collect();
        SnapshotHandle { pid, seq: 0, last_own: (0, self.v0.clone()), writer, readers }
    }
}

impl<V: byzreg_runtime::Value> std::fmt::Debug for AtomicSnapshot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicSnapshot(n = {})", self.n)
    }
}

/// A process's update/scan handle.
pub struct SnapshotHandle<V: Ord> {
    pid: ProcessId,
    seq: u64,
    last_own: Cell<V>,
    writer: AuthenticatedWriter<Cell<V>>,
    readers: Vec<Option<AuthenticatedReader<Cell<V>>>>,
}

impl<V: byzreg_runtime::Value> SnapshotHandle<V> {
    /// This handle's process.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `update_i(v)`: publishes `v` in this process's segment.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    pub fn update(&mut self, v: V) -> Result<()> {
        self.seq += 1;
        self.last_own = (self.seq, v);
        self.writer.write(self.last_own.clone())
    }

    fn collect(&mut self) -> Result<Vec<Cell<V>>> {
        let mut out = Vec::with_capacity(self.readers.len());
        for slot in &mut self.readers {
            match slot {
                Some(reader) => out.push(reader.read()?),
                None => out.push(self.last_own.clone()),
            }
        }
        Ok(out)
    }

    /// `scan()`: a double collect, retried until clean (at most `retries`
    /// times; on exhaustion the last collect is returned, which can only
    /// happen under continuous interference).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    pub fn scan_with_retries(&mut self, retries: usize) -> Result<Vec<V>> {
        let mut previous = self.collect()?;
        for _ in 0..retries {
            let current = self.collect()?;
            if current == previous {
                break;
            }
            previous = current;
        }
        Ok(previous.into_iter().map(|(_, v)| v).collect())
    }

    /// `scan()` with the default retry budget (64).
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    pub fn scan(&mut self) -> Result<Vec<V>> {
        self.scan_with_retries(64)
    }
}

impl<V: byzreg_runtime::Value> std::fmt::Debug for SnapshotHandle<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SnapshotHandle({})", self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::Scheduling;

    #[test]
    fn scan_sees_completed_updates() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(71)).build();
        let snap = AtomicSnapshot::install(&system, 0u32);
        let mut h2 = snap.handle(ProcessId::new(2));
        let mut h3 = snap.handle(ProcessId::new(3));
        h2.update(22).unwrap();
        h3.update(33).unwrap();
        let view = h2.scan().unwrap();
        assert_eq!(view[1], 22);
        assert_eq!(view[2], 33);
        assert_eq!(view[0], 0, "p1 never updated");
        system.shutdown();
    }

    #[test]
    fn scans_are_comparable_when_sequential() {
        // Two sequential scans by different processes: the second must
        // dominate the first (snapshot monotonicity under quiescence).
        let system = System::builder(4).scheduling(Scheduling::Chaotic(72)).build();
        let snap = AtomicSnapshot::install(&system, 0u32);
        let mut h2 = snap.handle(ProcessId::new(2));
        let mut h3 = snap.handle(ProcessId::new(3));
        h2.update(1).unwrap();
        let s1 = h3.scan().unwrap();
        h2.update(2).unwrap();
        let s2 = h3.scan().unwrap();
        assert_eq!(s1[1], 1);
        assert_eq!(s2[1], 2);
        system.shutdown();
    }

    #[test]
    fn own_segment_is_reflected_without_self_read() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(73)).build();
        let snap = AtomicSnapshot::install(&system, 0u32);
        let mut h2 = snap.handle(ProcessId::new(2));
        h2.update(9).unwrap();
        let view = h2.scan().unwrap();
        assert_eq!(view[1], 9);
        system.shutdown();
    }
}
