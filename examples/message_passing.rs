//! The message-passing corollary, live (§1, §11).
//!
//! SWMR registers can be emulated — without signatures — in Byzantine
//! asynchronous message-passing systems with `n > 3f`, so the paper's
//! registers exist there too. This example first exercises the emulated
//! base register under a Byzantine message flooder, then runs Algorithm 1
//! *unchanged* on top of the emulation.
//!
//! ```sh
//! cargo run --example message_passing
//! ```

use byzreg::core::VerifiableRegister;
use byzreg::mp::{MpConfig, MpFactory, MpRegister, Msg};
use byzreg::runtime::{ProcessId, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== layer 1: a signature-free SWMR register over messages ==");
    let mut config = MpConfig::new(4);
    config.byzantine = vec![ProcessId::new(4)];
    let register = MpRegister::spawn(&config, 0u64);

    // The Byzantine node floods fabricated protocol messages.
    let byz = register.byzantine_endpoint(ProcessId::new(4));
    for i in 0..100 {
        byz.broadcast(Msg::Echo { sn: 1_000 + i, v: 666 });
        byz.broadcast(Msg::Valid { sn: 2_000 + i, v: 667 });
        byz.broadcast(Msg::State { rid: i % 4, ts: 99_999, v: 668 });
    }

    let writer = register.client(ProcessId::new(1));
    let reader = register.client(ProcessId::new(2));
    writer.write(7);
    let (ts, v) = reader.read();
    println!("after write(7) under flooding: read -> (ts = {ts}, v = {v})");
    assert_eq!((ts, v), (1, 7), "fabricated values must never surface");
    register.shutdown();

    println!("\n== layer 2: Algorithm 1 running unchanged over messages ==");
    let system = System::builder(4).build();
    let factory = MpFactory::default();
    let shard = system.new_help_shard();
    let verifiable =
        VerifiableRegister::install_in_shard(&system, 0u64, &factory, &shard, ProcessId::new(1));
    println!("installed one verifiable register = {} emulated MP registers", factory.spawned());

    let mut w = verifiable.writer();
    let mut r = verifiable.reader(ProcessId::new(2));
    w.write(42)?;
    w.sign(&42)?;
    println!("verify(42) over the network -> {}", r.verify(&42)?);
    println!("verify(41) over the network -> {}", r.verify(&41)?);
    assert!(r.verify(&42)?);
    assert!(!r.verify(&41)?);

    println!("\nevery shared-memory step became a quorum round trip — and the");
    println!("signature properties carried over, exactly as §1 promises.");
    system.shutdown();
    Ok(())
}
