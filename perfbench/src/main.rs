//! The session service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_mixed|long_session|wire_interactive|catalog_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and the checks it ran, then one JSON
//! result line.  With `--trace 0` the result carries the end-to-end metrics;
//! with `--trace 1` the workload runs twice in the process, untraced then
//! traced, and the result carries the per-layer metrics of the traced run
//! plus the tracing overhead against the untraced one.  Spans of a traced
//! run are written to `.perfbench/trace-<workload>-<seed>.jsonl`.

mod churn;
mod common;
mod fleet;
mod long;
mod machine;
mod report;
mod stats;
mod sut;
mod trace;
mod wire;

use common::Config;
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The seed reserved for confirming a claimed gain: never used while a
/// change is being written or tuned.
const HOLDOUT_SEED: u64 = 2_718_281;

/// Spans written per traced run (all stay in memory until the run ends).
const TRACE_FILE_SPANS: usize = 200_000;

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Config) -> Report,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_mixed",
        why: fleet::WHY,
        run: fleet::run,
    },
    Workload {
        name: "long_session",
        why: long::WHY,
        run: long::run,
    },
    Workload {
        name: "wire_interactive",
        why: wire::WHY,
        run: wire::run,
    },
    Workload {
        name: "catalog_churn",
        why: churn::WHY,
        run: churn::run,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
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
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!("# machine: {}", machine::fingerprint());
    println!(
        "# workload: {} seed={} seconds={} trace={} (hold-out seed for claims: {HOLDOUT_SEED})",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# why: {}", workload.why);
    println!("# closed loop: every session waits for a step's output before sending the next");

    let untraced = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
    };
    let mut report = (workload.run)(&untraced);
    let declared = if args.trace {
        let mut traced = (workload.run)(&Config {
            traced: true,
            ..untraced
        });
        if let (Some(plain), Some(with_spans)) =
            (report.get("step_p50_us"), traced.get("step_p50_us"))
        {
            traced.set(
                "trace.overhead_pct",
                (with_spans - plain) / plain * 100.0,
                format!("traced step p50 {with_spans:.2} us vs untraced {plain:.2} us"),
            );
        }
        traced.note("end-to-end values below come from the untraced run");
        traced.absorb_untraced(report);
        report = traced;
        PER_LAYER
    } else {
        END_TO_END
    };
    if report.is_correct() {
        if let Some(spans) = report.take_trace() {
            write_trace(&mut report, &spans, workload.name, args.seed);
        }
    }
    if report.print(declared) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(report: &mut Report, trace: &trace::Trace, workload: &str, seed: u64) {
    let path = std::path::Path::new(".perfbench").join(format!("trace-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(".perfbench")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            let n = trace.write_jsonl(&mut out, TRACE_FILE_SPANS)?;
            std::io::Write::flush(&mut out)?;
            Ok(n)
        });
    match written {
        Ok(n) => report.note(format!(
            "wrote {n} of {} spans to {}",
            trace.spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}
