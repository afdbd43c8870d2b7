//! Pieces every workload shares: run settings, repeated set-up, latency
//! collection and the metrics derived from them.

use crate::machine::{memory, Memory};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{self, Trace};
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Set-up runs at least this many times in one run ...
const SETUP_MIN_REPEATS: usize = 5;
/// ... and, when it is quick, again until this much time has gone into it.
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
const SETUP_MAX_REPEATS: usize = 200;

/// Runs `setup` several times, keeps the last result (dropping the others
/// first) and reports the median time as `setup_s`.  Each set-up runs on a
/// fresh thread, so where the scheduler placed one thread does not bias
/// every sample of a run.
pub fn repeated_setup<T: Send>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String> + Send,
) -> Result<T, String> {
    let mut times = Samples::new();
    let mut kept = None;
    let mut total = Duration::ZERO;
    while times.len() < SETUP_MIN_REPEATS
        || (total < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPEATS)
    {
        drop(kept.take());
        let (built, took) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let started = Instant::now();
                    let built = setup();
                    (built, started.elapsed())
                })
                .join()
                .expect("set-up thread panicked")
        });
        kept = Some(built?);
        total += took;
        times.push(took.as_secs_f64());
    }
    let n = times.len();
    let (first, _) = times.percentile(0.0).expect("set-up ran");
    let (last, _) = times.percentile(100.0).expect("set-up ran");
    let median = times.median().expect("set-up ran");
    report.set(
        "setup_s",
        median,
        format!("median of {n} set-ups, {first:.4}..{last:.4} s"),
    );
    Ok(kept.expect("set-up ran"))
}

/// Times one call in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e6)
}

/// Step latencies of one thread, with the late-step subset.
#[derive(Debug, Default)]
pub struct Latencies {
    pub opens: Samples,
    pub steps: Samples,
    /// Steps in the last tenth of each session's steps.
    pub late: Samples,
    pub step_count: u64,
}

impl Latencies {
    /// Adds one finished session's step latencies (in step order).
    pub fn add_session(&mut self, steps: &[f64]) {
        let late_from = steps.len() - steps.len().div_ceil(10);
        for (i, &us) in steps.iter().enumerate() {
            self.steps.push(us);
            if i >= late_from {
                self.late.push(us);
            }
        }
        self.step_count += steps.len() as u64;
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.opens.extend(&other.opens);
        self.steps.extend(&other.steps);
        self.late.extend(&other.late);
        self.step_count += other.step_count;
    }
}

fn count_note(samples: &Samples) -> String {
    format!("n={}", samples.len())
}

/// Sets a median metric, when there are samples.
pub fn set_median(report: &mut Report, name: &'static str, samples: &mut Samples) {
    if let Some(median) = samples.median() {
        let note = count_note(samples);
        report.set(name, median, note);
    }
}

/// Sets a percentile metric only if at least ten samples lie beyond it.
pub fn set_tail(report: &mut Report, name: &'static str, samples: &mut Samples, p: f64) {
    match samples.reportable(p) {
        Some(value) => {
            let note = count_note(samples);
            report.set(name, value, note);
        }
        None => report.note(format!(
            "{name}: not reported, {} samples leave fewer than ten beyond p{p}",
            samples.len()
        )),
    }
}

/// The end-to-end latency and throughput metrics of a run.
pub fn set_end_to_end(report: &mut Report, lat: &mut Latencies, wall: Duration) {
    set_median(report, "open_p50_us", &mut lat.opens);
    set_tail(report, "open_p99_us", &mut lat.opens, 99.0);
    set_median(report, "step_p50_us", &mut lat.steps);
    set_tail(report, "step_p90_us", &mut lat.steps, 90.0);
    set_tail(report, "step_p99_us", &mut lat.steps, 99.0);
    if let Some((p, value)) = lat.steps.tail() {
        report.note(format!(
            "step tail: p{p} = {value:.1} us over {} samples",
            lat.steps.len()
        ));
    }
    set_median(report, "late_step_p50_us", &mut lat.late);
    let secs = wall.as_secs_f64();
    if secs > 0.0 && lat.step_count > 0 {
        report.set(
            "steps_per_s",
            lat.step_count as f64 / secs,
            format!("{} steps in {secs:.2} s", lat.step_count),
        );
    }
}

/// Memory at the phase boundaries of the first measured round.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub after_setup: Memory,
    pub after_opens: Memory,
    pub after_steps: Memory,
}

impl Phases {
    pub fn set_metrics(&self, report: &mut Report, sessions: usize, steps: u64) {
        let opened = self.after_opens.rss_kb as f64 - self.after_setup.rss_kb as f64;
        let stepped = self.after_steps.rss_kb as f64 - self.after_opens.rss_kb as f64;
        report.note(format!(
            "VmRSS KiB after set-up {} / opens {} / steps {}; VmHWM {}",
            self.after_setup.rss_kb,
            self.after_opens.rss_kb,
            self.after_steps.rss_kb,
            self.after_steps.hwm_kb
        ));
        if sessions > 0 {
            report.set(
                "rss_kb_per_session",
                opened / sessions as f64,
                format!("{sessions} sessions"),
            );
        }
        if steps > 0 {
            report.set(
                "rss_kb_per_step",
                stepped / steps as f64,
                format!("{steps} steps"),
            );
        }
    }
}

/// Sets `fail_ratio` from the run's operation counts.
pub fn set_fail_ratio(report: &mut Report) {
    let tally = report.tally;
    report.set(
        "fail_ratio",
        tally.fail_ratio(),
        format!(
            "{} of {} attempted operations failed",
            tally.failed, tally.attempted
        ),
    );
}

/// Sets the peak resident set size.
pub fn set_peak(report: &mut Report) {
    report.set("rss_peak_kb", memory().hwm_kb as f64, "VmHWM");
}

/// Durations (in microseconds) of every span named `span`.
pub fn span_durations(trace: &Trace, span: &str) -> Samples {
    trace
        .spans
        .iter()
        .filter(|s| s.name == span)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Layer metrics taken as the median duration of one span name.
const SPAN_MEDIANS: [(&str, &str); 11] = [
    ("runtime.open_plain_us", "runtime.open.plain"),
    ("runtime.open_demand_us", "runtime.open.demand"),
    ("runtime.open_monitored_us", "runtime.open.monitored"),
    ("runtime.step_plain_us", "runtime.step.plain"),
    ("runtime.step_demand_us", "runtime.step.demand"),
    ("runtime.step_monitored_us", "runtime.step.monitored"),
    ("monitor.admit_us", "monitor.admit"),
    ("monitor.observe_us", "monitor.observe"),
    ("front.lookup_model_us", "front.lookup_model"),
    ("front.parse_facts_us", "front.parse_facts"),
    ("front.render_us", "front.render"),
];

/// Layer metrics taken as one work counter per another.
const RATIOS: [(&str, &str, &str); 5] = [
    ("monitor.work_per_step", "monitor.work", "monitor.steps"),
    (
        "eval.rule_applications_per_step",
        "eval.rule_applications",
        "eval.steps",
    ),
    (
        "eval.tuples_derived_per_step",
        "eval.tuples_derived",
        "eval.steps",
    ),
    (
        "demand.magic_applications_per_step",
        "demand.magic_applications",
        "demand.steps",
    ),
    (
        "demand.magic_tuples_per_step",
        "demand.magic_tuples",
        "demand.steps",
    ),
];

/// Sets every session-path layer metric the trace has spans or counters
/// for: open and step medians per class, monitor and front-end calls, the
/// evaluation's self time (a step minus its monitor calls) and the work
/// counters per step.
pub fn set_session_layers(report: &mut Report, trace: &Trace) {
    for (metric, span) in SPAN_MEDIANS {
        set_median(report, metric, &mut span_durations(trace, span));
    }
    let mut eval_self: Samples = trace
        .spans
        .iter()
        .zip(trace.self_times_ns())
        .filter(|(span, _)| span.name.starts_with("runtime.step."))
        .map(|(_, self_ns)| self_ns as f64 / 1e3)
        .collect();
    set_median(report, "eval.self_us", &mut eval_self);
    for (metric, numerator, denominator) in RATIOS {
        let d = trace.count(denominator);
        if d > 0 {
            let n = trace.count(numerator);
            report.set(
                metric,
                n as f64 / d as f64,
                format!("{n} {numerator} / {d} {denominator}"),
            );
        }
    }
}

/// Prints each layer's self time and checks that self times along every
/// request rooted at one of `roots` sum to its traced latency.
pub fn self_time_table(report: &mut Report, trace: &Trace, roots: &[&str]) {
    for (name, self_us) in trace.by_name() {
        let mut samples: Samples = self_us.into_iter().collect();
        let total = samples.sum();
        report.note(format!(
            "self time {name:<28} n={:<8} median {:>10.2} us  total {:>12.1} us",
            samples.len(),
            samples.median().unwrap_or(0.0),
            total
        ));
    }
    let check = trace.check_sums(roots);
    report.note(format!(
        "self times of {} traced requests sum to their latency within {} ns",
        check.roots, check.max_error_ns
    ));
    if check.roots == 0 {
        report.fail("the traced run recorded no request");
    } else if check.max_error_ns > 1_000 {
        report.fail(format!(
            "self times miss their request latency by {} ns",
            check.max_error_ns
        ));
    }
}

/// Starts span recording on the calling thread when the run is traced.
pub fn start_tracing(config: &Config, origin: Instant) {
    if config.traced {
        trace::enable(origin);
    }
}
