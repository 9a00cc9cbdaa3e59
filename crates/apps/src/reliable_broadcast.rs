//! **Byzantine reliable broadcast** — signature-free, `n > 3f`.
//!
//! Cohen & Keidar [5] build a Byzantine-linearizable reliable broadcast from
//! SWMR registers *with signatures* for `n > 2f`. The paper (§1, §2) points
//! out that the signature properties their construction relies on are
//! provided by the registers of this crate's `byzreg-core`, yielding *"the
//! first known implementations of these objects in systems with Byzantine
//! processes without signatures"* — at the cost of requiring `n > 3f`.
//!
//! This module realizes that translation: each `(sender, slot)` pair is one
//! **sticky register**. Because a completed sticky `Write` is visible to all
//! correct readers and can never change (Obs. 22–24), the broadcast enjoys:
//!
//! * **validity** — a correct sender's message is deliverable by everyone
//!   as soon as `broadcast` returns;
//! * **integrity / no-duplication** — at most one message per slot;
//! * **agreement (non-equivocation)** — correct processes never deliver
//!   different messages for the same slot, even from a Byzantine sender;
//! * **totality/relay** — once one correct process delivers, every correct
//!   process that polls the slot delivers the same message.

use std::collections::HashMap;

use byzreg_core::sticky::StickyRegister;
use byzreg_core::{StickyReader, StickyWriter};
use byzreg_runtime::{LocalFactory, ProcessId, Result, System};

/// FIFO Byzantine reliable broadcast with a bounded number of slots per
/// sender (slots are pre-allocated sticky registers).
pub struct ReliableBroadcast<M> {
    registers: Vec<Vec<StickyRegister<M>>>, // [sender][slot]
    n: usize,
    slots: usize,
}

impl<M: byzreg_runtime::Value> ReliableBroadcast<M> {
    /// Installs the object with `slots` broadcast slots per sender, on one help shard.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    #[must_use]
    pub fn install(system: &System, slots: usize) -> Self {
        let n = system.env().n();
        let shard = system.new_help_shard();
        let install = |s| StickyRegister::install_in_shard(system, &LocalFactory, &shard, s);
        let registers =
            ProcessId::all(n).map(|s| (0..slots).map(|_| install(s)).collect()).collect();
        ReliableBroadcast { registers, n, slots }
    }

    /// Slots per sender.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The endpoint of a correct process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is declared Byzantine or the endpoint was taken.
    #[must_use]
    pub fn endpoint(&self, pid: ProcessId) -> RbEndpoint<M> {
        let writers = self.registers[pid.zero_based()].iter().map(|r| r.writer()).collect();
        let mut readers = HashMap::new();
        for s in 1..=self.n {
            let sender = ProcessId::new(s);
            if sender != pid {
                let slot_readers: Vec<StickyReader<M>> =
                    self.registers[s - 1].iter().map(|r| r.reader(pid)).collect();
                readers.insert(sender, slot_readers);
            }
        }
        RbEndpoint { pid, next_slot: 0, next_deliver: HashMap::new(), writers, readers }
    }
}

impl<M: byzreg_runtime::Value> std::fmt::Debug for ReliableBroadcast<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReliableBroadcast(n = {}, slots = {})", self.n, self.slots)
    }
}

/// A process's handle on the reliable-broadcast object.
pub struct RbEndpoint<M> {
    pid: ProcessId,
    next_slot: usize,
    next_deliver: HashMap<ProcessId, usize>,
    writers: Vec<StickyWriter<M>>,
    readers: HashMap<ProcessId, Vec<StickyReader<M>>>,
}

impl<M: byzreg_runtime::Value> RbEndpoint<M> {
    /// This endpoint's process.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Broadcasts `m` in this process's next slot.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    ///
    /// # Panics
    ///
    /// Panics if all slots were used.
    pub fn broadcast(&mut self, m: M) -> Result<()> {
        assert!(self.next_slot < self.writers.len(), "out of broadcast slots");
        let slot = self.next_slot;
        self.next_slot += 1;
        self.writers[slot].write(m)
    }

    /// Attempts to deliver `sender`'s next undelivered message (FIFO).
    /// Returns `None` if the next slot is still empty.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    pub fn try_deliver(&mut self, sender: ProcessId) -> Result<Option<(usize, M)>> {
        let next = self.next_deliver.entry(sender).or_insert(0);
        let readers = self.readers.get_mut(&sender).expect("not own slot");
        let Some(reader) = readers.get_mut(*next) else { return Ok(None) };
        let Some(m) = reader.read()? else { return Ok(None) };
        *next += 1;
        Ok(Some((*next - 1, m)))
    }

    /// Drains every currently deliverable message from `sender`.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] on system shutdown.
    pub fn deliver_all(&mut self, sender: ProcessId) -> Result<Vec<(usize, M)>> {
        let mut out = Vec::new();
        while let Some(pair) = self.try_deliver(sender)? {
            out.push(pair);
        }
        Ok(out)
    }
}

impl<M: byzreg_runtime::Value> std::fmt::Debug for RbEndpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RbEndpoint({})", self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::Scheduling;

    #[test]
    fn fifo_delivery_of_a_stream() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(61)).build();
        let rb = ReliableBroadcast::install(&system, 3);
        let mut e2 = rb.endpoint(ProcessId::new(2));
        let mut e3 = rb.endpoint(ProcessId::new(3));
        e2.broadcast(10u32).unwrap();
        e2.broadcast(20).unwrap();
        let got = e3.deliver_all(ProcessId::new(2)).unwrap();
        assert_eq!(got, vec![(0, 10), (1, 20)]);
        e2.broadcast(30).unwrap();
        let got = e3.deliver_all(ProcessId::new(2)).unwrap();
        assert_eq!(got, vec![(2, 30)]);
        system.shutdown();
    }

    #[test]
    fn totality_after_first_delivery() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(62)).build();
        let rb = ReliableBroadcast::install(&system, 1);
        let mut e2 = rb.endpoint(ProcessId::new(2));
        let mut e3 = rb.endpoint(ProcessId::new(3));
        let mut e4 = rb.endpoint(ProcessId::new(4));
        e2.broadcast(7u32).unwrap();
        // One correct process delivers...
        assert_eq!(e3.try_deliver(ProcessId::new(2)).unwrap(), Some((0, 7)));
        // ... so every other correct process delivers the same message.
        assert_eq!(e4.try_deliver(ProcessId::new(2)).unwrap(), Some((0, 7)));
        system.shutdown();
    }

    #[test]
    #[should_panic(expected = "out of broadcast slots")]
    fn slot_exhaustion_panics() {
        let system = System::builder(4).build();
        let rb = ReliableBroadcast::install(&system, 1);
        let mut e2 = rb.endpoint(ProcessId::new(2));
        e2.broadcast(1u32).unwrap();
        let _ = e2.broadcast(2);
    }
}
