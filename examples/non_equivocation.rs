//! Non-equivocating proposals for a consensus-style protocol (§1, §8).
//!
//! Each process must propose a *unique* value. With plain registers a
//! Byzantine process could show different proposals to different peers
//! ("equivocation"); broadcasting through sticky registers makes that
//! impossible — all correct processes agree on what each process proposed.
//!
//! ```sh
//! cargo run --example non_equivocation
//! ```

use byzreg::apps::NonEquivocatingBroadcast;
use byzreg::runtime::{ProcessId, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let equivocator = ProcessId::new(1);
    let system = System::builder(4).byzantine(equivocator).build();
    let broadcast = NonEquivocatingBroadcast::<&str>::install(&system);

    // The Byzantine process tries to propose different values to different
    // peers by flapping its registers as fast as it can.
    let ports = broadcast.attack_ports(equivocator);
    let mut i = 0u64;
    system.spawn_byzantine(equivocator, move || {
        i += 1;
        let value = if i % 2 == 0 { "ATTACK-AT-DAWN" } else { "RETREAT" };
        ports.echo.write(Some(value));
        // Answer every reader's current round with yet another story.
        let reply = Some(if i % 3 == 0 { "ATTACK-AT-DAWN" } else { "RETREAT" });
        ports.fabric.reply_all(&ports.shared.fabric, &reply);
        i < 200_000
    });

    // The three correct processes propose and then exchange proposals.
    let mut endpoints: Vec<_> = (2..=4).map(|k| broadcast.endpoint(ProcessId::new(k))).collect();
    let proposals = ["hold", "advance", "regroup"];
    for (ep, proposal) in endpoints.iter_mut().zip(proposals) {
        ep.broadcast(proposal)?;
    }

    println!("correct proposals, as seen by every correct process:");
    for ep in endpoints.iter_mut() {
        for s in 2..=4 {
            let sender = ProcessId::new(s);
            if sender == ep.pid() {
                continue;
            }
            let got = ep.deliver_from(sender)?;
            println!("  {} sees {} -> {:?}", ep.pid(), sender, got);
            assert_eq!(got, Some(proposals[s - 2]));
        }
    }

    println!("\nthe equivocator's slot, polled repeatedly by everyone:");
    let mut seen = Vec::new();
    for ep in endpoints.iter_mut() {
        for _ in 0..3 {
            if let Some(m) = ep.deliver_from(equivocator)? {
                println!("  {} sees {} -> {:?}", ep.pid(), equivocator, m);
                seen.push(m);
            }
        }
    }
    seen.dedup();
    assert!(seen.len() <= 1, "equivocation observed!");
    println!(
        "\nno equivocation possible: every correct process sees {} from {equivocator}.",
        if seen.is_empty() { "nothing (yet)".to_string() } else { format!("only {:?}", seen[0]) }
    );

    system.shutdown();
    Ok(())
}
