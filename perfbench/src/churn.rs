//! `catalog_churn`: live `short`/`category` sessions on a durable runtime
//! whose catalog is rewritten (retract + insert, fsync on every write)
//! between steps, with periodic checkpoints.

use crate::common::*;
use crate::machine::memory;
use crate::report::Report;
use crate::stats::{Outcome, Samples};
use crate::sut::{self, Durable, Instance, Kind, Mutation, PlainSession};
use crate::trace;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const WHY: &str = "catalog writes beside reads on one durable shared catalog: loads WAL \
append and fsync, store apply, resident versioning and per-session cache reseeds";

const PRODUCTS: usize = 10_000;
/// Sessions live at once; each lives for [`SESSION_STEPS`] steps.
const LIVE: usize = 200;
const SESSION_STEPS: usize = 16;
/// One catalog write after every this many session steps.
const WRITE_EVERY: usize = 300;
/// One checkpoint after every this many writes.
const CHECKPOINT_EVERY: usize = 100;
/// Distinct input sequences per kind; sessions cycle through them.
const POOL: usize = 64;
const KINDS: [Kind; 2] = [Kind::Short, Kind::Category];

/// Where the durable store lives, inside the working directory.
fn store_dir(seed: u64, attempt: usize) -> PathBuf {
    Path::new(".perfbench").join(format!("churn-{}-{seed}-{attempt}", std::process::id()))
}

/// A durable store in its own directory, removed when dropped.
struct Store {
    durable: Option<Durable>,
    dir: PathBuf,
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn set_up(catalog: &Instance, seed: u64, attempt: usize) -> Result<Store, String> {
    let dir = store_dir(seed, attempt);
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store { durable: None, dir };
    let durable = Durable::create(&store.dir, catalog)?;
    for (i, kind) in KINDS.into_iter().enumerate() {
        let inputs = sut::session_inputs(kind, catalog, 1, PRODUCTS, seed);
        let mut warm = durable.open(&format!("warm-{i}"), kind)?;
        warm.step(&inputs[0])?;
    }
    store.durable = Some(durable);
    Ok(store)
}

struct Live {
    name: Arc<str>,
    session: PlainSession,
    inputs: Arc<Vec<Instance>>,
    /// Writes applied when this session last stepped (or opened).
    seen_writes: usize,
    times: Vec<f64>,
}

#[derive(Default)]
struct Measured {
    lat: Latencies,
    writes: Samples,
    inserts: Samples,
    retracts: Samples,
    checkpoints_ms: Samples,
    reseed: Samples,
    quiet: Samples,
    wal_bytes: Samples,
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "catalog_churn: one thread, fsync={} (RTX_FSYNC unset), {LIVE} live short/category sessions of {SESSION_STEPS} steps over a {PRODUCTS}-product catalog, a catalog write after every {WRITE_EVERY} steps, a checkpoint after every {CHECKPOINT_EVERY} writes",
        sut::FSYNC
    ));
    if let Err(e) = sut::check_fsync_env() {
        report.fail(e);
        return report;
    }
    let catalog = sut::category_catalog(PRODUCTS, config.seed);
    let pool: Vec<Vec<Arc<Vec<Instance>>>> = KINDS
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            (0..POOL)
                .map(|p| {
                    let seed = config
                        .seed
                        .wrapping_mul(15_485_863)
                        .wrapping_add((k * POOL + p) as u64);
                    Arc::new(sut::session_inputs(
                        kind,
                        &catalog,
                        SESSION_STEPS,
                        PRODUCTS,
                        seed,
                    ))
                })
                .collect()
        })
        .collect();
    // Enough mutations for the fastest plausible run; the run ends early if
    // they are used up.
    let mutations =
        sut::catalog_mutations(&catalog, 2_000 * config.seconds as usize + 100, config.seed);
    let mut attempt = 0;
    let mut store = match repeated_setup(&mut report, || {
        attempt += 1;
        set_up(&catalog, config.seed, attempt)
    }) {
        Ok(store) => store,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };
    let durable = store.durable.as_ref().expect("set-up opened the store");
    let after_setup = memory();

    let origin = Instant::now();
    let mut m = Measured::default();
    let mut phases = Phases::default();
    let mut applied = 0usize;
    let mut steps_done = 0usize;
    let mut failures = Vec::new();
    let mut started = Instant::now();
    // (writes applied, index builds) when measurement started.
    let mut measured_from = (0, durable.index_builds());
    let mut generation = 0;
    'run: while generation < 2 || started.elapsed() < config.budget() {
        if generation == 1 {
            // Generation 0 warmed the process up: its memory was read and
            // its writes stay applied, but its timings are not reported.
            m = Measured::default();
            start_tracing(config, origin);
            measured_from = (applied, durable.index_builds());
            started = Instant::now();
        }
        let mut live = Vec::with_capacity(LIVE);
        for slot in 0..LIVE {
            let kind = KINDS[slot % KINDS.len()];
            let inputs = Arc::clone(
                &pool[slot % KINDS.len()][(generation * LIVE + slot) / KINDS.len() % POOL],
            );
            let name: Arc<str> = Arc::from(format!("{}-g{generation}-{slot}", kind.model()));
            trace::set_request(&name, 0);
            let (opened, us) = time_us(|| durable.open(&name, kind));
            match opened {
                Ok(session) => {
                    report.tally.record(Outcome::Ok);
                    m.lat.opens.push(us);
                    live.push(Live {
                        name,
                        session,
                        inputs,
                        seen_writes: applied,
                        times: Vec::with_capacity(SESSION_STEPS),
                    });
                }
                Err(e) => {
                    report.tally.record(Outcome::Failed);
                    failures.push(format!("open {name}: {e}"));
                }
            }
        }
        if generation == 0 {
            phases.after_setup = after_setup;
            phases.after_opens = memory();
        }
        for step in 0..SESSION_STEPS {
            for session in live.iter_mut() {
                let Some(input) = session.inputs.get(step) else {
                    continue;
                };
                trace::set_request(&session.name, step);
                let (stepped, us) = time_us(|| session.session.step(input));
                match stepped {
                    Ok(_) => {
                        report.tally.record(Outcome::Ok);
                        session.times.push(us);
                        if session.seen_writes == applied {
                            m.quiet.push(us);
                        } else {
                            m.reseed.push(us);
                        }
                        session.seen_writes = applied;
                    }
                    Err(e) => {
                        report.tally.record(Outcome::Failed);
                        failures.push(format!("step {} #{step}: {e}", session.name));
                    }
                }
                steps_done += 1;
                if !steps_done.is_multiple_of(WRITE_EVERY) {
                    continue;
                }
                let Some(mutation) = mutations.get(applied) else {
                    report.note("the generated catalog mutations ran out; the run ended early");
                    break 'run;
                };
                let bytes_before = config.traced.then(|| durable.disk_bytes());
                let (written, us) = time_us(|| write(durable, mutation, &mut m));
                match written {
                    Ok(()) => {
                        report.tally.record(Outcome::Ok);
                        m.writes.push(us);
                        applied += 1;
                    }
                    Err(e) => {
                        report.tally.record(Outcome::Failed);
                        failures.push(format!("write #{applied}: {e}"));
                        break 'run;
                    }
                }
                if applied.is_multiple_of(CHECKPOINT_EVERY) {
                    let (done, us) = time_us(|| durable.checkpoint());
                    report.tally.record(if done.is_ok() {
                        Outcome::Ok
                    } else {
                        Outcome::Failed
                    });
                    match done {
                        Ok(()) => m.checkpoints_ms.push(us / 1e3),
                        Err(e) => failures.push(format!("checkpoint: {e}")),
                    }
                } else if let Some(before) = bytes_before {
                    m.wal_bytes
                        .push(durable.disk_bytes() as f64 - before as f64);
                }
            }
        }
        if generation == 0 {
            phases.after_steps = memory();
        }
        for session in live {
            m.lat.add_session(&session.times);
        }
        generation += 1;
    }
    let wall = started.elapsed();
    let trace = trace::take();
    let writes = applied - measured_from.0;
    let builds = durable.index_builds() - measured_from.1;
    report.note(format!(
        "{} generations of {LIVE} sessions measured after a warm-up generation: {writes} writes, {} checkpoints",
        generation - 1,
        m.checkpoints_ms.len()
    ));
    for e in failures.iter().take(3) {
        report.fail(e.clone());
    }

    set_end_to_end(&mut report, &mut m.lat, wall);
    set_median(&mut report, "write_p50_us", &mut m.writes);
    set_tail(&mut report, "write_p99_us", &mut m.writes, 99.0);
    if let Some((p, v)) = m.writes.tail() {
        report.note(format!(
            "write tail: p{p} = {v:.1} us over {} writes",
            m.writes.len()
        ));
    }
    phases.set_metrics(&mut report, LIVE, (LIVE * SESSION_STEPS) as u64);
    set_peak(&mut report);
    set_fail_ratio(&mut report);

    // Correctness, outside the timed region: the store reopened from disk
    // holds exactly the initial catalog with every applied mutation.
    report.check("durable runtime health", durable.check_health());
    store.durable = None;
    let recovered = time_us(|| Durable::reopen(&store.dir));
    let expected = sut::apply_mutations(&catalog, &mutations[..applied]);
    let recovery = match (&recovered.0, expected) {
        (Ok(reopened), Ok(expected)) => {
            if reopened.snapshot() == expected {
                Ok(())
            } else {
                Err(format!(
                    "recovered catalog has {} tuples, expected {}",
                    sut::tuples(&reopened.snapshot()),
                    sut::tuples(&expected)
                ))
            }
        }
        (Err(e), _) => Err(e.clone()),
        (_, Err(e)) => Err(e),
    };
    report.check(
        &format!("the reopened store recovers the initial catalog plus {applied} writes"),
        recovery,
    );
    drop(recovered.0);
    drop(store);
    let _ = std::fs::remove_dir(".perfbench");

    if config.traced {
        set_median(&mut report, "eval.reseed_step_us", &mut m.reseed);
        set_median(&mut report, "eval.quiet_step_us", &mut m.quiet);
        set_session_layers(&mut report, &trace);
        set_median(&mut report, "store.insert_us", &mut m.inserts);
        set_median(&mut report, "store.retract_us", &mut m.retracts);
        set_median(&mut report, "store.checkpoint_ms", &mut m.checkpoints_ms);
        set_median(&mut report, "store.wal_bytes_per_write", &mut m.wal_bytes);
        if writes > 0 {
            report.set(
                "resident.index_builds_per_write",
                builds as f64 / writes as f64,
                format!("{builds} index builds / {writes} writes"),
            );
        }
        report.set(
            "store.recovery_ms",
            recovered.1 / 1e3,
            "reopen after the run",
        );
        self_time_table(
            &mut report,
            &trace,
            &[
                "runtime.step.plain",
                "runtime.open.plain",
                "store.write",
                "store.checkpoint",
            ],
        );
        report.set_trace(trace);
    }
    report
}

/// One catalog mutation: retract its old `price` rows, insert its new ones.
fn write(
    durable: &Durable,
    (retracts, inserts): &Mutation,
    m: &mut Measured,
) -> Result<(), String> {
    let _span = trace::span("store.write");
    for row in retracts {
        let (done, us) = time_us(|| durable.retract("price", row));
        done?;
        m.retracts.push(us);
    }
    for row in inserts {
        let (done, us) = time_us(|| durable.insert("price", row));
        done?;
        m.inserts.push(us);
    }
    Ok(())
}
