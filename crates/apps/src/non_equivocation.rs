//! **Non-equivocating broadcast** from sticky registers (§1, §8).
//!
//! The paper: *"to broadcast a message `m`, a process `p` simply writes `m`
//! into a SWMR sticky register `R`; to deliver `p`'s message, a process
//! reads `R` […]. Because `R` is sticky, once any correct process delivers a
//! message `m` from `p`, every correct process that subsequently reads `R`
//! will also deliver `m`. So correct processes cannot deliver different
//! messages from `p`, even if `p` is Byzantine."*
//!
//! This is the non-equivocation primitive of Clement et al. [4], obtained
//! here without signatures for `n > 3f`.

use std::collections::HashMap;

use byzreg_core::sticky::{AttackPorts, StickyRegister};
use byzreg_core::{StickyReader, StickyWriter};
use byzreg_runtime::{LocalFactory, ProcessId, Result, System};

/// One non-equivocating broadcast instance: a sticky register per sender.
pub struct NonEquivocatingBroadcast<M> {
    registers: Vec<StickyRegister<M>>,
    n: usize,
}

impl<M: byzreg_runtime::Value> NonEquivocatingBroadcast<M> {
    /// Installs the object on `system` (one sticky register per process, on one help shard).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    #[must_use]
    pub fn install(system: &System) -> Self {
        let n = system.env().n();
        let shard = system.new_help_shard();
        let registers = ProcessId::all(n)
            .map(|s| StickyRegister::install_in_shard(system, &LocalFactory, &shard, s))
            .collect();
        NonEquivocatingBroadcast { registers, n }
    }

    /// The endpoint of a correct process: broadcast its own message, deliver
    /// everyone else's.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is declared Byzantine or the endpoint was taken.
    #[must_use]
    pub fn endpoint(&self, pid: ProcessId) -> NebEndpoint<M> {
        let writer = self.registers[pid.zero_based()].writer();
        let mut readers = HashMap::new();
        for s in 1..=self.n {
            let sender = ProcessId::new(s);
            if sender != pid {
                readers.insert(sender, self.registers[s - 1].reader(pid));
            }
        }
        NebEndpoint { pid, writer, readers }
    }

    /// Attack ports of the Byzantine process `pid` on its own broadcast slot.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is correct.
    #[must_use]
    pub fn attack_ports(&self, pid: ProcessId) -> AttackPorts<M> {
        self.registers[pid.zero_based()].attack_ports(pid)
    }
}

impl<M: byzreg_runtime::Value> std::fmt::Debug for NonEquivocatingBroadcast<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NonEquivocatingBroadcast(n = {})", self.n)
    }
}

/// A process's handle on the broadcast object.
pub struct NebEndpoint<M> {
    pid: ProcessId,
    writer: StickyWriter<M>,
    readers: HashMap<ProcessId, StickyReader<M>>,
}

impl<M: byzreg_runtime::Value> NebEndpoint<M> {
    /// This endpoint's process.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Broadcasts `m`. After this returns, every correct process's
    /// [`NebEndpoint::deliver_from`] returns `Some(m)` — and can never
    /// return anything else.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    pub fn broadcast(&mut self, m: M) -> Result<()> {
        self.writer.write(m)
    }

    /// Attempts to deliver `sender`'s message (`None` = nothing broadcast
    /// yet). Two correct processes can never deliver different messages from
    /// the same sender — even a Byzantine one.
    ///
    /// # Errors
    ///
    /// [`byzreg_runtime::Error::Shutdown`] if the system is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `sender == self.pid()` (deliver your own via local state).
    pub fn deliver_from(&mut self, sender: ProcessId) -> Result<Option<M>> {
        self.readers
            .get_mut(&sender)
            .unwrap_or_else(|| panic!("no reader for {sender} (own slot?)"))
            .read()
    }
}

impl<M: byzreg_runtime::Value> std::fmt::Debug for NebEndpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NebEndpoint({})", self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzreg_runtime::Scheduling;

    #[test]
    fn broadcast_is_delivered_by_everyone() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(51)).build();
        let neb = NonEquivocatingBroadcast::install(&system);
        let mut e2 = neb.endpoint(ProcessId::new(2));
        let mut e3 = neb.endpoint(ProcessId::new(3));
        let mut e4 = neb.endpoint(ProcessId::new(4));
        e2.broadcast("proposal-A").unwrap();
        assert_eq!(e3.deliver_from(ProcessId::new(2)).unwrap(), Some("proposal-A"));
        assert_eq!(e4.deliver_from(ProcessId::new(2)).unwrap(), Some("proposal-A"));
        // Nothing from p3 yet.
        assert_eq!(e2.deliver_from(ProcessId::new(3)).unwrap(), None);
        system.shutdown();
    }

    #[test]
    fn all_processes_can_broadcast() {
        let system = System::builder(4).scheduling(Scheduling::Chaotic(52)).build();
        let neb = NonEquivocatingBroadcast::install(&system);
        let mut eps: Vec<_> = (1..=4).map(|i| neb.endpoint(ProcessId::new(i))).collect();
        for (i, ep) in eps.iter_mut().enumerate() {
            ep.broadcast(i as u32).unwrap();
        }
        for (i, ep) in eps.iter_mut().enumerate() {
            for s in 0..4 {
                if i == s {
                    continue;
                }
                let got = ep.deliver_from(ProcessId::new(s + 1)).unwrap();
                assert_eq!(got, Some(s as u32));
            }
        }
        system.shutdown();
    }

    #[test]
    fn byzantine_sender_cannot_equivocate() {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(53))
            .byzantine(ProcessId::new(1))
            .build();
        let neb = NonEquivocatingBroadcast::<u32>::install(&system);
        let ports = neb.attack_ports(ProcessId::new(1));
        let mut flip = 0u32;
        system.spawn_byzantine(ProcessId::new(1), move || {
            flip += 1;
            ports.echo.write(Some(if flip % 2 == 0 { 10 } else { 20 }));
            let reply = Some(if flip % 2 == 0 { 20 } else { 10 });
            ports.fabric.reply_all(&ports.shared.fabric, &reply);
            flip < 50_000
        });
        let mut e2 = neb.endpoint(ProcessId::new(2));
        let mut e3 = neb.endpoint(ProcessId::new(3));
        let mut delivered = Vec::new();
        for _ in 0..5 {
            if let Some(m) = e2.deliver_from(ProcessId::new(1)).unwrap() {
                delivered.push(m);
            }
            if let Some(m) = e3.deliver_from(ProcessId::new(1)).unwrap() {
                delivered.push(m);
            }
        }
        delivered.dedup();
        assert!(delivered.len() <= 1, "equivocation observed: {delivered:?}");
        system.shutdown();
    }
}
