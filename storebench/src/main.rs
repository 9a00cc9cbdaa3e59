//! The benchmark command.
//!
//! ```sh
//! cargo run --release --offline --manifest-path storebench/Cargo.toml -- \
//!     --workload shm-authenticated --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run of `--seconds` drives `SESSIONS` fresh set-ups of the workload,
//! each for an equal share of the time. `--trace 0` prints the end-to-end
//! metrics, medians over the sessions; `--trace 1` drives the untraced
//! sessions and then as many traced ones, prints the per-layer metrics,
//! and writes the traced calls' spans under `storebench/out/`.
//! Before the result, one `{"meta": ...}` line records the run metadata,
//! including the p99 latencies (in µs), which are measured but not gated.
//! The last line of standard output is the result object. A run in which
//! any call failed or contradicted the known value exits with code 1.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;

use byzreg_storebench::gen::{Workload, SHARDS};
use byzreg_storebench::run::{self, end_to_end, per_layer, Metric, Probe, Window, SESSIONS};
use byzreg_storebench::stats::{median, quantile};
use byzreg_storebench::trace::{Hub, ThreadSpans};

/// An untraced run adds set-ups without a window until it has set up at least
/// `MIN_SETUPS` times and for at least `MIN_SETUP_S` seconds in all (at
/// most `MAX_SETUPS` times); `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_S: f64 = 1.0;
const MAX_SETUPS: usize = 201;

/// Call spans written per client thread (all of them are measured).
const WRITTEN_CALLS: usize = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!(
                "usage: storebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let (w, seed) = (args.workload, args.seed);

    let untraced = run::sessions(w, seed, args.seconds, None);
    let mut setups: Vec<f64> = untraced.iter().map(|s| s.setup_s).collect();
    let per_session: Vec<String> = untraced.iter().map(session_meta).collect();
    let (metrics, window, probe) = if args.trace {
        let (untraced, _) = run::merge(untraced);
        let hub = Arc::new(Hub::new());
        let (mut window, probe) = run::merge(run::sessions(w, seed, args.seconds, Some(&hub)));
        let spans = hub.take_spans();
        let overhead = 1.0 - window.ops_per_s() / untraced.ops_per_s();
        let metrics = per_layer(&window, &probe, &hub.totals(), &spans, overhead);
        write_spans(w, seed, &spans);
        window.attempted += untraced.attempted;
        window.failed += untraced.failed;
        (metrics, window, probe)
    } else {
        while setups.len() < MAX_SETUPS
            && (setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_S)
        {
            setups.push(run::setup_s(w, seed));
        }
        end_to_end(untraced, median(&setups))
    };
    let (attempted, failed) = (window.attempted, window.failed);

    let correct = failed == 0;
    println!("{}", meta(&args, &window, &probe, attempted, failed, &setups, &per_session));
    println!("{}", result(correct, attempted, failed, &metrics));
    std::io::stdout().flush().ok();
    if !correct {
        eprintln!("storebench: {failed} of {attempted} calls failed or returned a wrong result");
        std::process::exit(1);
    }
}

/// A JSON number; non-finite values (never expected) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn meta(
    args: &Args,
    window: &Window,
    probe: &Probe,
    attempted: u64,
    failed: u64,
    setups: &[f64],
    per_session: &[String],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let workers = probe.mp.map_or(0, |(_, _, workers)| workers);
    let late_us = |q: f64| quantile(&window.late_ns, q) / 1e3;
    let tails: Vec<String> = run::tails_us(window)
        .iter()
        .map(|(name, value, _)| format!("\"{name}\": {}", num(*value)))
        .collect();
    let (setup_min, setup_max) =
        setups.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"sessions\": {SESSIONS}, \"nproc\": {nproc}, \"reactor_workers\": {workers}, \"shards\": {SHARDS}, \
         \"samples\": {{\"read\": {}, \"verify\": {}, \"write\": {}}}, {}, \
         \"writer_late_us\": {{\"p99\": {}, \"max\": {}}}, \
         \"failed_op_share\": {}, \"setups\": {{\"runs\": {}, \"min_s\": {}, \"max_s\": {}}}, \
         \"untraced_sessions\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        window.read_ns.len(),
        window.verify_ns.len(),
        window.write_ns.len(),
        tails.join(", "),
        num(late_us(0.99)),
        num(late_us(1.0)),
        num(failed as f64 / attempted.max(1) as f64),
        setups.len(),
        num(setup_min),
        num(setup_max),
        per_session.join(", "),
    )
}

/// The figures of one untraced session, with the host's steal share
/// during its window, so runs slowed by a busy host can be told apart.
fn session_meta(s: &run::Session) -> String {
    let w = &s.window;
    let p50_us = |xs: &[u64]| num(quantile(xs, 0.5) / 1e3);
    format!(
        "{{\"ops_per_s\": {}, \"read_p50_us\": {}, \"verify_p50_us\": {}, \"write_p50_us\": {}, \
         \"rss_mb_end\": {}, \"peak_rss_mb\": {}, \"steal_share\": {}}}",
        num(w.ops_per_s()),
        p50_us(&w.read_ns),
        p50_us(&w.verify_ns),
        p50_us(&w.write_ns),
        num(s.probe.rss_mb_end),
        num(s.probe.peak_rss_mb),
        num(s.probe.steal_share),
    )
}

/// Writes the traced window's spans as JSON lines: one line per store call
/// with its base-access children (as far as they were kept).
fn write_spans(w: Workload, seed: u64, spans: &[ThreadSpans]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name()));
    let mut out = String::new();
    for thread in spans {
        let _ = writeln!(
            out,
            "{{\"thread\": \"{}\", \"calls\": {}, \"children_kept\": {}, \"children_dropped\": {}}}",
            thread.thread,
            thread.calls.len(),
            thread.children.len(),
            thread.dropped_children
        );
        let mut children = thread.children.iter().peekable();
        for (i, call) in thread.calls.iter().enumerate().take(WRITTEN_CALLS) {
            let mut kids = Vec::new();
            while let Some(c) = children.next_if(|c| c.call as usize == i) {
                kids.push(format!(
                    "[\"{:?}\", \"{:?}\", {}, {}]",
                    c.class, c.op, c.start_ns, c.dur_ns
                ));
            }
            let _ = writeln!(
                out,
                "{{\"thread\": \"{}\", \"call\": {i}, \"kind\": \"{}\", \"start_ns\": {}, \
                 \"dur_ns\": {}, \"self_ns\": {}, \"children\": [{}]}}",
                thread.thread,
                call.kind,
                call.start_ns,
                call.dur_ns,
                call.dur_ns.saturating_sub(call.child_ns),
                kids.join(", ")
            );
        }
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("storebench: could not write {}: {e}", path.display());
    }
}
