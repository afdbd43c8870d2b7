//! `long_session`: one `short` session per thread over a large catalog,
//! thousands of customer steps each, then `Session::run()` once.

use crate::common::*;
use crate::machine::memory;
use crate::report::Report;
use crate::stats::{Outcome, Samples, Tally};
use crate::sut::{self, Instance, Kind, PlainSession, RunRecord, Service};
use crate::trace::{self, Trace};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WHY: &str = "a few very long sessions over a 20k-product catalog: dominated by \
cumulation and history recording, with the history read by Session::run at the end";

const THREADS: usize = 2;
const PRODUCTS: usize = 20_000;
/// Steps of each long session.
const STEPS: usize = 2_000;
/// Distinct input sequences; rounds cycle through them.
const POOL: usize = 4;
/// Steps of the log prefix handed to the Theorem 3.1 decision procedure.
const VALIDATED_PREFIX: usize = 2;

/// What one or more long sessions measured.
#[derive(Default)]
struct Outcomes {
    lat: Latencies,
    tally: Tally,
    run_ms: Samples,
    /// Late-step latency per thousand tuples of cumulative state.
    per_1k_tuples: Samples,
    state_tuples: usize,
    early_us: Samples,
    errors: Vec<String>,
    /// The first session's inputs and run, kept for the correctness checks.
    checked: Option<(Vec<Instance>, RunRecord)>,
}

impl Outcomes {
    /// Drops the timings of a warm-up round, keeping its counts and checks.
    fn clear_timings(&mut self) {
        self.lat = Latencies::default();
        self.run_ms = Samples::new();
        self.per_1k_tuples = Samples::new();
        self.early_us = Samples::new();
    }

    fn merge(&mut self, other: Outcomes) {
        self.lat.merge(&other.lat);
        self.tally.merge(other.tally);
        self.run_ms.extend(&other.run_ms);
        self.per_1k_tuples.extend(&other.per_1k_tuples);
        self.early_us.extend(&other.early_us);
        self.state_tuples = self.state_tuples.max(other.state_tuples);
        self.errors.extend(other.errors);
        if self.checked.is_none() {
            self.checked = other.checked;
        }
    }
}

/// Builds the catalog, makes it resident and warms its indexes with one
/// short session.
fn set_up(seed: u64) -> Result<(Service, Instance), String> {
    let catalog = sut::product_catalog(PRODUCTS, seed);
    let service = Service::new(catalog.clone());
    let mut warm = service.open("warm", Kind::Short)?;
    for input in &sut::session_inputs(Kind::Short, &catalog, 2, PRODUCTS, seed) {
        warm.step(input)?;
    }
    Ok((service, catalog))
}

/// One long session: open, step every input, `run()`.  Returns the session
/// so that it stays alive until memory is read.
fn one_session(
    service: &Service,
    name: &Arc<str>,
    inputs: &[Instance],
    out: &mut Outcomes,
    keep: bool,
) -> Option<PlainSession> {
    trace::set_request(name, 0);
    let (opened, open_us) = time_us(|| service.open(name, Kind::Short));
    let mut session = match opened {
        Ok(session) => session,
        Err(e) => {
            out.tally.record(Outcome::Failed);
            out.errors.push(format!("open {name}: {e}"));
            return None;
        }
    };
    out.tally.record(Outcome::Ok);
    out.lat.opens.push(open_us);
    let mut times = Vec::with_capacity(inputs.len());
    for (step, input) in inputs.iter().enumerate() {
        trace::set_request(name, step);
        let (stepped, us) = time_us(|| session.step(input));
        if let Err(e) = stepped {
            out.tally.record(Outcome::Failed);
            out.errors.push(format!("step {name} #{step}: {e}"));
            return None;
        }
        out.tally.record(Outcome::Ok);
        times.push(us);
    }
    let tuples = session.state_tuples();
    out.state_tuples = out.state_tuples.max(tuples);
    let tenth = times.len().div_ceil(10);
    for &us in &times[times.len() - tenth..] {
        out.per_1k_tuples.push(us / (tuples.max(1) as f64 / 1e3));
    }
    for &us in &times[..tenth] {
        out.early_us.push(us);
    }
    out.lat.add_session(&times);

    trace::set_request(name, inputs.len());
    let (ran, run_us) = time_us(|| session.run());
    match ran {
        Ok(record) => {
            out.tally.record(Outcome::Ok);
            out.run_ms.push(run_us / 1e3);
            if keep {
                out.checked = Some((inputs.to_vec(), record));
            }
        }
        Err(e) => {
            out.tally.record(Outcome::Failed);
            out.errors.push(format!("run {name}: {e}"));
        }
    }
    Some(session)
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "long_session: {THREADS} threads, one `short` session each of {STEPS} customer steps over a {PRODUCTS}-product catalog, then Session::run()"
    ));
    let (service, catalog) = match repeated_setup(&mut report, || set_up(config.seed)) {
        Ok(built) => built,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };
    // Inputs are generated before the timed region; rounds cycle through
    // them under fresh session names.
    let pool: Vec<Vec<Instance>> = (0..POOL)
        .map(|i| {
            let seed = config.seed.wrapping_mul(7_919).wrapping_add(i as u64);
            sut::session_inputs(Kind::Short, &catalog, STEPS, PRODUCTS, seed)
        })
        .collect();

    let origin = Instant::now();
    let mut all = Outcomes::default();
    let mut trace = Trace::default();
    let mut phases = Phases::default();
    let mut wall = Duration::ZERO;
    let mut round = 0;
    // Round 0 warms the process up: its memory is read and its first
    // session checked, but its timings are not reported.
    while round < 2 || wall < config.budget() {
        let barrier = Barrier::new(THREADS + 1);
        let results: Vec<(Outcomes, Trace)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (service, barrier) = (&service, &barrier);
                    let inputs = &pool[(round * THREADS + t) % POOL];
                    scope.spawn(move || {
                        if round > 0 {
                            start_tracing(config, origin);
                        }
                        let mut out = Outcomes::default();
                        let name: Arc<str> = Arc::from(format!("long-r{round}-t{t}"));
                        barrier.wait();
                        let keep = round == 0 && t == 0;
                        let session = one_session(service, &name, inputs, &mut out, keep);
                        // Done; hold the session while memory is read.
                        barrier.wait();
                        barrier.wait();
                        drop(session);
                        (out, trace::take())
                    })
                })
                .collect();
            let after_setup = memory();
            barrier.wait();
            let started = Instant::now();
            barrier.wait();
            if round > 0 {
                wall += started.elapsed();
            }
            let after_steps = memory();
            barrier.wait();
            if round == 0 {
                phases = Phases {
                    after_setup,
                    after_opens: after_setup,
                    after_steps,
                };
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("long-session thread panicked"))
                .collect()
        });
        let mut this_round = Outcomes::default();
        for (out, t) in results {
            trace.merge(t);
            this_round.merge(out);
        }
        report.note(format!(
            "round {round}: step p50 {:.1} us, late step p50 {:.1} us",
            this_round.lat.steps.median().unwrap_or(0.0),
            this_round.lat.late.median().unwrap_or(0.0)
        ));
        if round == 0 {
            this_round.clear_timings();
        }
        all.merge(this_round);
        round += 1;
    }
    report.note(format!(
        "{} rounds of {THREADS} sessions measured after a warm-up round",
        round - 1
    ));
    report.tally = all.tally;
    for e in all.errors.iter().take(3) {
        report.fail(e.clone());
    }

    set_end_to_end(&mut report, &mut all.lat, wall);
    if let (Some(early), Some(late)) = (all.early_us.median(), all.lat.late.median()) {
        report.note(format!(
            "first-tenth step median {early:.1} us, last-tenth {late:.1} us: late/early = {:.1}x",
            late / early
        ));
    }
    set_median(&mut report, "run_ms", &mut all.run_ms);
    phases.set_metrics(&mut report, 0, (THREADS * STEPS) as u64);
    set_peak(&mut report);
    set_fail_ratio(&mut report);

    // Correctness, outside the timed region.
    match &all.checked {
        Some((inputs, record)) => {
            report.check(
                "online log validation accepts the whole Session::run() log",
                service.check_log_online(Kind::Short, inputs, record),
            );
            report.check(
                &format!("validate_log accepts the first {VALIDATED_PREFIX} steps of the log"),
                sut::check_log_prefix(&catalog, inputs, record, VALIDATED_PREFIX),
            );
            let one_shot = sut::Record {
                kind: Kind::Short,
                inputs: inputs.clone(),
                outputs: record.outputs.clone(),
            };
            report.check(
                "the session equals a one-shot run",
                sut::check_one_shot(&one_shot, &catalog),
            );
        }
        None => report.fail("no long session completed"),
    }

    if config.traced {
        set_session_layers(&mut report, &trace);
        report.set(
            "history.state_tuples",
            all.state_tuples as f64,
            "cumulative state at the end of a session",
        );
        set_median(
            &mut report,
            "history.step_us_per_1k_state_tuples",
            &mut all.per_1k_tuples,
        );
        let mut run_ms: Samples = span_durations(&trace, "history.run")
            .values()
            .iter()
            .map(|us| us / 1e3)
            .collect();
        set_median(&mut report, "history.run_rebuild_ms", &mut run_ms);
        self_time_table(
            &mut report,
            &trace,
            &["runtime.step.plain", "runtime.open.plain", "history.run"],
        );
        report.set_trace(trace);
    }
    report
}
