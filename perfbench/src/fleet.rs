//! `fleet_mixed`: many concurrent short sessions of the seven-model mix on a
//! two-shard runtime, opened all at once and stepped round-robin by two
//! threads.

use crate::common::*;
use crate::machine::memory;
use crate::report::Report;
use crate::stats::Outcome;
use crate::sut::{self, Fleet, Instance, Kind, Record};
use crate::trace::{self, Trace};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WHY: &str = "many short concurrent sessions of every model kind: loads session open, \
shard routing, delta joins, demand seeding and monitor admit/observe while history stays short";

const SHARDS: usize = 2;
const THREADS: usize = 2;
/// Sessions open at once in one round.
const SESSIONS: usize = 2_800;
/// Steps of each customer and browsing session (scenarios replay their own
/// fixed clean inputs).
const STEPS: usize = 8;
/// Products the generated sessions draw from (the combined catalog's
/// category block).
const PRODUCTS: usize = 200;
/// Sessions per round whose outputs are checked against a one-shot run.
const CHECKED: usize = 7;

struct Planned {
    name: Arc<str>,
    kind: Kind,
    inputs: Arc<Vec<Instance>>,
}

fn plan_round(
    round: usize,
    seed: u64,
    catalog: &Instance,
    scenario_inputs: &[Arc<Vec<Instance>>],
) -> Vec<Planned> {
    (0..SESSIONS)
        .map(|i| {
            let kind = Kind::FLEET[i % Kind::FLEET.len()];
            let session_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((round * SESSIONS + i) as u64);
            let inputs = match kind {
                Kind::Scenario(s) => Arc::clone(&scenario_inputs[s]),
                _ => Arc::new(sut::session_inputs(
                    kind,
                    catalog,
                    STEPS,
                    PRODUCTS,
                    session_seed,
                )),
            };
            Planned {
                name: Arc::from(format!("{}-r{round}-{i}", kind.model())),
                kind,
                inputs,
            }
        })
        .collect()
}

/// What one thread measured in one round.
#[derive(Default)]
struct ThreadResult {
    lat: Latencies,
    tally: crate::stats::Tally,
    records: Vec<Record>,
    shards: Vec<usize>,
    errors: Vec<String>,
}

fn set_up() -> Result<Fleet, String> {
    let fleet = Fleet::new(sut::combined_catalog(), SHARDS);
    // Warm every model once, so index builds and lazy set-up are paid here.
    let catalog = sut::combined_catalog();
    for (i, kind) in Kind::FLEET.into_iter().enumerate() {
        let mut session = fleet.open(&format!("warm-{i}"), kind)?;
        let inputs = sut::session_inputs(kind, &catalog, 1, PRODUCTS, i as u64);
        session.step(&inputs[0])?;
    }
    Ok(fleet)
}

/// One thread's share of a round: open its sessions, step them
/// round-robin, drop them.  The barrier marks the phase boundaries.
fn drive(fleet: &Fleet, plans: &[Planned], thread: usize, barrier: &Barrier) -> ThreadResult {
    let mut out = ThreadResult::default();
    let mine: Vec<(usize, &Planned)> = plans
        .iter()
        .enumerate()
        .filter(|(i, _)| i % THREADS == thread)
        .collect();
    barrier.wait();
    let mut open = Vec::with_capacity(mine.len());
    for &(i, plan) in &mine {
        trace::set_request(&plan.name, 0);
        let (opened, us) = time_us(|| fleet.open(&plan.name, plan.kind));
        match opened {
            Ok(session) => {
                out.tally.record(Outcome::Ok);
                out.lat.opens.push(us);
                out.shards.push(session.shard());
                open.push((
                    i,
                    plan,
                    session,
                    Vec::with_capacity(plan.inputs.len()),
                    Vec::new(),
                ));
            }
            Err(e) => {
                out.tally.record(Outcome::Failed);
                out.errors.push(format!("open {}: {e}", plan.name));
            }
        }
    }
    // Opens done; wait while memory is read.
    barrier.wait();
    barrier.wait();
    let rounds = open.iter().map(|o| o.1.inputs.len()).max().unwrap_or(0);
    for step in 0..rounds {
        for (i, plan, session, times, outputs) in open.iter_mut() {
            let Some(input) = plan.inputs.get(step) else {
                continue;
            };
            trace::set_request(&plan.name, step);
            let (stepped, us) = time_us(|| session.step(input));
            match stepped {
                Ok(output) => {
                    out.tally.record(Outcome::Ok);
                    times.push(us);
                    if *i < CHECKED {
                        outputs.push(output);
                    }
                }
                Err(e) => {
                    out.tally.record(Outcome::Failed);
                    out.errors.push(format!("step {} #{step}: {e}", plan.name));
                }
            }
        }
    }
    // Steps done; wait while memory is read.
    barrier.wait();
    barrier.wait();
    for (i, plan, session, times, outputs) in open {
        drop(session);
        out.lat.add_session(&times);
        if i < CHECKED {
            out.records.push(Record {
                kind: plan.kind,
                inputs: plan.inputs.to_vec(),
                outputs,
            });
        }
    }
    barrier.wait();
    out
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "fleet_mixed: {SHARDS} shards, {THREADS} closed-loop threads, {SESSIONS} concurrent sessions per round (7-model mix), {STEPS} steps per customer/browse session"
    ));
    let catalog = sut::combined_catalog();
    let scenario_inputs: Vec<Arc<Vec<Instance>>> = (0..4)
        .map(|s| Arc::new(sut::session_inputs(Kind::Scenario(s), &catalog, 0, 0, 0)))
        .collect();
    let fleet = match repeated_setup(&mut report, set_up) {
        Ok(fleet) => fleet,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };

    let origin = Instant::now();
    let mut lat = Latencies::default();
    let mut trace = Trace::default();
    let mut records = Vec::new();
    let mut shard_sizes = vec![0usize; fleet.shard_count()];
    let mut phases = Phases::default();
    let mut first_round_steps = 0;
    let mut wall = Duration::ZERO;
    let mut round_names: Vec<Arc<str>> = Vec::new();
    let mut round = 0;
    // Round 0 warms the process up: its memory is read, its outputs are
    // checked, but its timings are not reported.
    while round < 2 || wall < config.budget() {
        let plans = plan_round(round, config.seed, &catalog, &scenario_inputs);
        let barrier = Barrier::new(THREADS + 1);
        let results: Vec<ThreadResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (fleet, plans, barrier) = (&fleet, &plans, &barrier);
                    scope.spawn(move || {
                        if round > 0 {
                            start_tracing(config, origin);
                        }
                        let result = drive(fleet, plans, t, barrier);
                        (result, trace::take())
                    })
                })
                .collect();
            let after_setup = memory();
            barrier.wait();
            let started = Instant::now();
            barrier.wait();
            let after_opens = memory();
            barrier.wait();
            barrier.wait();
            let after_steps = memory();
            barrier.wait();
            barrier.wait();
            if round > 0 {
                wall += started.elapsed();
            }
            if round == 0 {
                phases = Phases {
                    after_setup,
                    after_opens,
                    after_steps,
                };
            }
            handles
                .into_iter()
                .map(|h| {
                    let (result, t) = h.join().expect("fleet thread panicked");
                    trace.merge(t);
                    result
                })
                .collect()
        });
        let mut round_lat = Latencies::default();
        for result in &results {
            round_lat.merge(&result.lat);
        }
        report.note(format!(
            "round {round}: open p50 {:.1} us, step p50 {:.2} us",
            round_lat.opens.median().unwrap_or(0.0),
            round_lat.steps.median().unwrap_or(0.0)
        ));
        for result in results {
            if round > 0 {
                lat.merge(&result.lat);
            }
            report.tally.merge(result.tally);
            records.extend(result.records);
            if round == 0 {
                for shard in result.shards {
                    shard_sizes[shard] += 1;
                }
                first_round_steps += result.lat.step_count;
            }
            for e in result.errors.into_iter().take(3) {
                report.fail(e);
            }
        }
        if round == 0 {
            round_names = plans.iter().map(|p| Arc::clone(&p.name)).collect();
        }
        round += 1;
    }
    report.note(format!(
        "{} rounds measured after a warm-up round",
        round - 1
    ));

    set_end_to_end(&mut report, &mut lat, wall);
    phases.set_metrics(&mut report, SESSIONS, first_round_steps);
    set_peak(&mut report);
    set_fail_ratio(&mut report);

    // Correctness, outside the timed region.
    report.check(
        "fleet health: no quarantine, rejection or violation",
        fleet.check_health(),
    );
    let checked = records.len();
    let one_shot = records
        .iter()
        .try_for_each(|record| sut::check_one_shot(record, &catalog));
    report.check(
        &format!("{checked} sampled sessions equal a one-shot run"),
        one_shot,
    );

    if config.traced {
        layers(&mut report, &trace, &fleet, &round_names, &shard_sizes);
        report.set_trace(trace);
    }
    report
}

fn layers(
    report: &mut Report,
    trace: &Trace,
    fleet: &Fleet,
    names: &[Arc<str>],
    shard_sizes: &[usize],
) {
    set_session_layers(report, trace);

    // Routing is a hash of the name: time many calls at once.
    const REPEATS: usize = 20;
    let started = Instant::now();
    let mut sink = 0usize;
    for _ in 0..REPEATS {
        for name in names {
            sink = sink.wrapping_add(fleet.shard_of(std::hint::black_box(name)));
        }
    }
    let calls = (REPEATS * names.len()).max(1);
    std::hint::black_box(sink);
    report.set(
        "shard.route_ns",
        started.elapsed().as_nanos() as f64 / calls as f64,
        format!("{calls} calls"),
    );
    let mean = shard_sizes.iter().sum::<usize>() as f64 / shard_sizes.len().max(1) as f64;
    let max = shard_sizes.iter().copied().max().unwrap_or(0) as f64;
    if mean > 0.0 {
        report.set(
            "shard.skew",
            max / mean,
            format!("sessions per shard {shard_sizes:?}"),
        );
    }
    self_time_table(
        report,
        trace,
        &[
            "runtime.step.plain",
            "runtime.step.demand",
            "runtime.step.monitored",
            "runtime.open.plain",
            "runtime.open.demand",
            "runtime.open.monitored",
        ],
    );
}
