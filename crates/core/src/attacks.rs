//! Canned Byzantine adversary strategies.
//!
//! Each function builds a [`ByzantineBehavior`] from the attack ports of a
//! declared-faulty process. Strategies only ever write through ports the
//! faulty process owns — the type system enforces the paper's write-port
//! rule (§1, Remark) even for adversaries.
//!
//! The strategies target the specific weaknesses the paper discusses:
//!
//! * [`verifiable`] — the *lie-then-deny* writer of §1, vote-flipping
//!   helpers staging the `f < k < 2f + 1` "bind" of §5.1, and witness
//!   forgers probing unforgeability (Obs. 12),
//! * [`authenticated`] — erase-after-write writers (§7.1's motivation for
//!   verified reads),
//! * [`sticky`] — equivocating writers trying to defeat uniqueness
//!   (Obs. 24).

use byzreg_runtime::ByzantineBehavior;

/// Attacks against the verifiable register (Algorithm 1).
pub mod verifiable {
    use std::collections::BTreeSet;

    use byzreg_runtime::Value;

    use super::ByzantineBehavior;
    use crate::verifiable::AttackPorts;

    /// A writer that writes and "signs" `value`, then erases everything and
    /// writes `junk` — the canonical *"you can lie but not deny"* scenario.
    ///
    /// Correct readers that verified `value` before the erasure must keep
    /// verifying it afterwards (Obs. 13): the erasure is a lie the witness
    /// mechanism refuses to honor.
    pub fn lie_then_deny<V: Value>(
        ports: AttackPorts<V>,
        value: V,
        junk: V,
    ) -> impl ByzantineBehavior {
        let mut step = 0u64;
        move || {
            step += 1;
            match step {
                1 => {
                    // Behave like a correct Write(value) + Sign(value).
                    if let Some(r_star) = &ports.r_star {
                        r_star.write(value.clone());
                    }
                    ports.witness.update(|set| {
                        set.insert(value.clone());
                    });
                    true
                }
                2..=50 => true, // let correct readers verify
                51 => {
                    // Deny: erase the signature set and overwrite the value.
                    ports.witness.write(BTreeSet::new());
                    if let Some(r_star) = &ports.r_star {
                        r_star.write(junk.clone());
                    }
                    true
                }
                _ => {
                    // Keep answering askers with empty witness sets ("No").
                    ports.fabric.reply_all(&ports.shared.fabric, &BTreeSet::new());
                    step < 100_000
                }
            }
        }
    }

    /// A helper that flips between witnessing `value` and witnessing nothing
    /// on every fresh asker round — staging the `f < k < 2f + 1` bind of
    /// §5.1 that the `set0`-reset mechanism defuses.
    pub fn vote_flipper<V: Value>(ports: AttackPorts<V>, value: V) -> impl ByzantineBehavior {
        let mut flip = false;
        let mut last_seen: Vec<u64> = vec![0; ports.fabric.replies.len()];
        move || {
            for (k, rep) in ports.fabric.replies.iter().enumerate() {
                let ck = ports.shared.fabric.askers[k].read();
                if ck > last_seen[k] {
                    flip = !flip;
                    let set: BTreeSet<V> = if flip {
                        std::iter::once(value.clone()).collect()
                    } else {
                        BTreeSet::new()
                    };
                    rep.write((set, ck));
                    last_seen[k] = ck;
                }
            }
            true
        }
    }

    /// A process that claims to witness `forged` — a value never written or
    /// signed. With at most `f` forgers, `Verify(forged)` must stay `false`
    /// (Obs. 12: `f + 1` witnesses are needed to convert anyone).
    pub fn witness_forger<V: Value>(ports: AttackPorts<V>, forged: V) -> impl ByzantineBehavior {
        move || {
            let set: BTreeSet<V> = std::iter::once(forged.clone()).collect();
            ports.witness.write(set.clone());
            ports.fabric.reply_all(&ports.shared.fabric, &set);
            true
        }
    }

    /// A crashed process: takes no further steps.
    pub fn silent<V: Value>(_ports: AttackPorts<V>) -> impl ByzantineBehavior {
        || false
    }
}

/// Attacks against the authenticated register (Algorithm 2).
pub mod authenticated {
    use std::collections::BTreeSet;

    use byzreg_runtime::Value;

    use super::ByzantineBehavior;
    use crate::authenticated::{AttackPorts, WriterRecord};

    /// A writer that writes `value` like a correct process, then erases `R1`
    /// and finally fills it with garbage. Readers that saw `value` keep
    /// verifying it; reads fall back to `v0` once `R1` is unusable.
    pub fn write_then_erase<V: Value>(ports: AttackPorts<V>, value: V) -> impl ByzantineBehavior {
        let mut step = 0u64;
        move || {
            step += 1;
            let Some(r1) = &ports.r1 else { return false };
            match step {
                1 => {
                    let mut tuples = BTreeSet::new();
                    tuples.insert((1u64, value.clone()));
                    r1.write(WriterRecord::Tuples(tuples));
                    true
                }
                2..=50 => true,
                51 => {
                    r1.write(WriterRecord::Tuples(BTreeSet::new()));
                    true
                }
                52 => {
                    r1.write(WriterRecord::Garbage(0xBAD_F00D));
                    true
                }
                _ => step < 100_000,
            }
        }
    }

    /// A writer that equivocates: alternates `R1` between two singleton
    /// tuple-sets, never letting a stable freshest value exist.
    pub fn equivocator<V: Value>(ports: AttackPorts<V>, a: V, b: V) -> impl ByzantineBehavior {
        let mut step = 0u64;
        move || {
            step += 1;
            let Some(r1) = &ports.r1 else { return false };
            let v = if step % 2 == 0 { a.clone() } else { b.clone() };
            let mut tuples = BTreeSet::new();
            tuples.insert((step, v));
            r1.write(WriterRecord::Tuples(tuples));
            step < 100_000
        }
    }

    /// A reader-helper that claims to witness `forged`; with ≤ `f` allies
    /// this must not make `Verify(forged)` return `true`.
    pub fn witness_forger<V: Value>(ports: AttackPorts<V>, forged: V) -> impl ByzantineBehavior {
        move || {
            if let Some(witness) = &ports.witness {
                let set: BTreeSet<V> = std::iter::once(forged.clone()).collect();
                witness.write(set.clone());
                ports.fabric.reply_all(&ports.shared.fabric, &set);
            }
            true
        }
    }
}

/// Attacks against the sticky register (Algorithm 3).
pub mod sticky {
    use byzreg_runtime::Value;

    use super::ByzantineBehavior;
    use crate::sticky::AttackPorts;

    /// A writer that tries to equivocate between `a` and `b`: flips its echo
    /// register, its witness register, and its replies. Uniqueness
    /// (Obs. 24) must hold regardless.
    pub fn equivocator<V: Value>(ports: AttackPorts<V>, a: V, b: V) -> impl ByzantineBehavior {
        let mut step = 0u64;
        move || {
            step += 1;
            let v = if step % 2 == 0 { a.clone() } else { b.clone() };
            ports.echo.write(Some(v.clone()));
            if step % 3 == 0 {
                ports.witness.write(Some(v.clone()));
            }
            ports.fabric.reply_all(&ports.shared.fabric, &Some(v));
            step < 100_000
        }
    }

    /// A helper that always reports `⊥` with fresh round numbers, trying to
    /// push readers toward returning `⊥` spuriously.
    pub fn bottom_pusher<V: Value>(ports: AttackPorts<V>) -> impl ByzantineBehavior {
        move || {
            ports.witness.write(None);
            ports.fabric.reply_all(&ports.shared.fabric, &None);
            true
        }
    }

    /// A crashed process.
    pub fn silent<V: Value>(_ports: AttackPorts<V>) -> impl ByzantineBehavior {
        || false
    }
}

#[cfg(test)]
mod tests {
    use byzreg_runtime::{ByzantineBehavior, ProcessId, Scheduling, System};

    use crate::sticky::StickyRegister;
    use crate::verifiable::VerifiableRegister;

    #[test]
    fn lie_then_deny_cannot_deny() {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(41))
            .byzantine(ProcessId::new(1))
            .build();
        let reg = VerifiableRegister::install(&system, 0u32);
        let ports = reg.attack_ports(ProcessId::new(1));
        // The shared script denies after a fixed number of ticks, which may
        // come before any reader verifies. This test needs a verify to
        // succeed first, so it holds the script after its first tick (the
        // signing) until `f + 1 = 2` processes besides the writer witness 7.
        let others = ports.shared.witness[1..].to_vec();
        let mut script = super::verifiable::lie_then_deny(ports, 7, 99);
        let mut ticks = 0u64;
        system.spawn_byzantine(ProcessId::new(1), move || {
            if ticks == 1 && others.iter().filter(|w| w.read().contains(&7)).count() < 2 {
                return true;
            }
            ticks += 1;
            script.tick()
        });

        let mut r2 = reg.reader(ProcessId::new(2));
        // Wait until the value verifies once...
        let mut verified = false;
        for _ in 0..200 {
            if r2.verify(&7).unwrap() {
                verified = true;
                break;
            }
        }
        assert!(verified, "the adversary does sign 7 initially");
        // ... after which it can never be denied, for any reader.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(r2.verify(&7).unwrap());
        let mut r3 = reg.reader(ProcessId::new(3));
        assert!(r3.verify(&7).unwrap());
        system.shutdown();
    }

    #[test]
    fn one_witness_forger_cannot_forge() {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(42))
            .byzantine(ProcessId::new(4))
            .build();
        let reg = VerifiableRegister::install(&system, 0u32);
        let ports = reg.attack_ports(ProcessId::new(4));
        system.spawn_byzantine(ProcessId::new(4), super::verifiable::witness_forger(ports, 666));
        let mut r2 = reg.reader(ProcessId::new(2));
        for _ in 0..10 {
            assert!(!r2.verify(&666).unwrap(), "f = 1 forger cannot fake a signature");
        }
        system.shutdown();
    }

    #[test]
    fn sticky_bottom_pusher_cannot_unwrite() {
        let system = System::builder(4)
            .scheduling(Scheduling::Chaotic(43))
            .byzantine(ProcessId::new(4))
            .build();
        let reg = StickyRegister::install(&system);
        let ports = reg.attack_ports(ProcessId::new(4));
        system.spawn_byzantine(ProcessId::new(4), super::sticky::bottom_pusher::<u32>(ports));
        let mut w = reg.writer();
        w.write(5u32).unwrap();
        for k in 2..=3 {
            let mut r = reg.reader(ProcessId::new(k));
            assert_eq!(r.read().unwrap(), Some(5), "p{k} must not be pushed to ⊥");
        }
        system.shutdown();
    }
}
