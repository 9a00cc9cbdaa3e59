//! The benchmark's inputs are a function of the workload seed alone.

use byzreg_storebench::gen::{session_seed, ReadOp, ReaderStream, WriteOp, WriterStream};

fn ops(seed: u64) -> (Vec<WriteOp>, Vec<ReadOp>) {
    (WriterStream::new(seed).take(2000).collect(), ReaderStream::new(seed).take(2000).collect())
}

#[test]
fn same_seed_gives_the_same_op_sequence() {
    assert_eq!(ops(11), ops(11));
}

#[test]
fn different_seeds_give_different_op_sequences() {
    let (w1, r1) = ops(11);
    let (w2, r2) = ops(12);
    assert_ne!(w1, w2, "writer");
    assert_ne!(r1, r2, "reader");
}

#[test]
fn sessions_of_a_run_get_different_inputs() {
    assert_ne!(ops(session_seed(11, 0)), ops(session_seed(11, 1)));
    assert_ne!(ops(session_seed(11, 1)), ops(session_seed(12, 1)));
}

#[test]
fn reader_mix_is_half_reads_half_verifies_with_half_genuine_checks() {
    let reader: Vec<ReadOp> = ReaderStream::new(3).take(4000).collect();
    let verifies: Vec<&Vec<(u64, u64)>> = reader
        .iter()
        .filter_map(|op| match op {
            ReadOp::VerifyMany(checks) => Some(checks),
            ReadOp::ReadMany(_) => None,
        })
        .collect();
    let share = verifies.len() as f64 / reader.len() as f64;
    assert!((share - 0.5).abs() < 0.05, "verify share {share}");
    let checks: Vec<&(u64, u64)> = verifies.into_iter().flatten().collect();
    let genuine = checks.iter().filter(|(k, v)| *v == byzreg_store::workload::value_of(*k)).count()
        as f64
        / checks.len() as f64;
    assert!((genuine - 0.5).abs() < 0.05, "genuine share {genuine}");
}
