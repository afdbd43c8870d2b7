//! `wire_interactive`: an in-process front-end server on loopback, driven
//! by two client connections that each run `OPEN` / `STEP`×k / `CLOSE`
//! sessions one request at a time.

use crate::common::*;
use crate::report::Report;
use crate::stats::{retry_busy, Outcome, Samples, Tally};
use crate::sut::{self, Client, Instance, Kind, Mirror, Server};
use crate::trace::{self, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WHY: &str = "single-line requests over loopback, each waiting for its reply: loads \
wire parsing, the shard queue, the per-OPEN model rebuild and the socket round trip";

const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// `STEP`s per session.
const STEPS: usize = 8;
const PRODUCTS: usize = 200;
/// Distinct input sequences per kind; sessions cycle through them.
const POOL: usize = 32;
const KINDS: [Kind; 3] = [Kind::Short, Kind::Category, Kind::Storefront];
/// Tries of one request before a run of `BUSY` replies counts as failed.
const MAX_TRIES: usize = 1_000;

/// One session as the client saw it.
struct WireSession {
    name: Arc<str>,
    kind: Kind,
    /// The facts of each `STEP` line.
    facts: Arc<Vec<String>>,
    replies: Vec<String>,
    round_trip_us: Vec<f64>,
}

fn reply_outcome(reply: &str, expect: &str) -> Outcome {
    if reply.starts_with("BUSY") {
        Outcome::Busy
    } else if reply.starts_with(expect) {
        Outcome::Ok
    } else {
        Outcome::Failed
    }
}

/// Sends `line`, retrying `BUSY`, and returns the reply with the latency of
/// the try that was answered.
fn request(
    client: &mut Client,
    tally: &mut Tally,
    line: &str,
    expect: &str,
) -> (Outcome, String, f64) {
    let (outcome, (reply, us)) = retry_busy(tally, MAX_TRIES, || {
        let _span = trace::span("front.roundtrip");
        let (reply, us) = time_us(|| client.request(line));
        let reply = reply.unwrap_or_else(|e| format!("ERR transport: {e}"));
        (reply_outcome(&reply, expect), (reply, us))
    });
    (outcome, reply, us)
}

fn set_up() -> Result<Server, String> {
    let server = Server::start(SHARDS)?;
    let catalog = sut::combined_catalog();
    let mut client = server.connect()?;
    let mut tally = Tally::default();
    for (i, kind) in KINDS.into_iter().enumerate() {
        let name = format!("warm-{i}");
        let input = &sut::session_inputs(kind, &catalog, 1, PRODUCTS, i as u64)[0];
        for (line, expect) in [
            (sut::open_line(&name, kind), "OK open"),
            (sut::step_line(&name, &sut::render_facts(input)), "OUT"),
            (format!("CLOSE {name}"), "OK close"),
        ] {
            let (outcome, reply, _) = request(&mut client, &mut tally, &line, expect);
            if outcome != Outcome::Ok {
                return Err(format!("warm-up `{line}`: {reply}"));
            }
        }
    }
    Ok(server)
}

struct ThreadResult {
    sessions: Vec<WireSession>,
    tally: Tally,
    opens: Samples,
    errors: Vec<String>,
}

fn drive(
    server: &Server,
    pool: &[Vec<Arc<Vec<String>>>],
    thread: usize,
    budget: Duration,
) -> Result<ThreadResult, String> {
    let mut client = server.connect()?;
    let mut out = ThreadResult {
        sessions: Vec::new(),
        tally: Tally::default(),
        opens: Samples::new(),
        errors: Vec::new(),
    };
    let started = Instant::now();
    let mut j = 0;
    while j == 0 || started.elapsed() < budget {
        let kind = KINDS[j % KINDS.len()];
        let facts = Arc::clone(&pool[j % KINDS.len()][(j / KINDS.len() + thread) % POOL]);
        let name: Arc<str> = Arc::from(format!("w{thread}-{j}"));
        j += 1;
        trace::set_request(&name, 0);
        let (outcome, reply, us) = request(
            &mut client,
            &mut out.tally,
            &sut::open_line(&name, kind),
            "OK open",
        );
        if outcome != Outcome::Ok {
            out.errors.push(format!("OPEN {name}: {reply}"));
            continue;
        }
        out.opens.push(us);
        let mut session = WireSession {
            name: Arc::clone(&name),
            kind,
            facts: Arc::clone(&facts),
            replies: Vec::with_capacity(facts.len()),
            round_trip_us: Vec::with_capacity(facts.len()),
        };
        for (step, spec) in facts.iter().enumerate() {
            trace::set_request(&name, step);
            let line = sut::step_line(&name, spec);
            let (outcome, reply, us) = request(&mut client, &mut out.tally, &line, "OUT");
            if outcome != Outcome::Ok {
                out.errors.push(format!("{line}: {reply}"));
            }
            session.replies.push(reply);
            session.round_trip_us.push(us);
        }
        trace::set_request(&name, facts.len());
        let (outcome, reply, _) = request(
            &mut client,
            &mut out.tally,
            &format!("CLOSE {name}"),
            "OK close",
        );
        if outcome != Outcome::Ok {
            out.errors.push(format!("CLOSE {name}: {reply}"));
        }
        out.sessions.push(session);
    }
    Ok(out)
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "wire_interactive: in-process server with {SHARDS} shards on loopback, {CONNECTIONS} closed-loop connections, sessions of OPEN + {STEPS} single-line STEPs + CLOSE cycling short / category / storefront demand"
    ));
    let catalog = sut::combined_catalog();
    let pool: Vec<Vec<Arc<Vec<String>>>> = KINDS
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            (0..POOL)
                .map(|p| {
                    let seed = config
                        .seed
                        .wrapping_mul(104_729)
                        .wrapping_add((k * POOL + p) as u64);
                    let inputs: Vec<Instance> =
                        sut::session_inputs(kind, &catalog, STEPS, PRODUCTS, seed);
                    Arc::new(inputs.iter().map(sut::render_facts).collect())
                })
                .collect()
        })
        .collect();
    let server = match repeated_setup(&mut report, set_up) {
        Ok(server) => server,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };

    let origin = Instant::now();
    let started = Instant::now();
    let results: Vec<(Result<ThreadResult, String>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let (server, pool) = (&server, &pool);
                scope.spawn(move || {
                    start_tracing(config, origin);
                    let result = drive(server, pool, t, config.budget());
                    (result, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut trace = Trace::default();
    let mut lat = Latencies::default();
    let mut sessions = Vec::new();
    for (result, t) in results {
        trace.merge(t);
        match result {
            Ok(mut r) => {
                report.tally.merge(r.tally);
                lat.opens.extend(&r.opens);
                for e in r.errors.iter().take(3) {
                    report.fail(e.clone());
                }
                for s in &r.sessions {
                    lat.add_session(&s.round_trip_us);
                }
                sessions.append(&mut r.sessions);
            }
            Err(e) => report.fail(format!("client: {e}")),
        }
    }
    let errors = sessions
        .iter()
        .flat_map(|s| &s.replies)
        .filter(|r| r.starts_with("ERR"))
        .count();
    report.note(format!(
        "{} sessions over {CONNECTIONS} connections",
        sessions.len()
    ));
    set_end_to_end(&mut report, &mut lat, wall);
    set_fail_ratio(&mut report);
    report.set(
        "front.busy_replies",
        report.tally.busy as f64,
        "BUSY replies, each retried",
    );
    report.set("front.err_replies", errors as f64, "ERR replies to STEP");

    // Health, then the server is stopped before the in-process replay.
    let health = server
        .connect()
        .and_then(|mut c| c.request("HEALTH"))
        .and_then(|reply| {
            if reply.contains("quarantined=0 violations=0 rejections=0") {
                Ok(())
            } else {
                Err(reply)
            }
        });
    report.check(
        "server health: no quarantine, violation or rejection",
        health,
    );
    report.check("server shuts down cleanly", server.stop());
    set_peak(&mut report);

    // Correctness: every OUT line equals render_instance of an in-process
    // session's output for the same STEP facts.  The replay also times
    // parse, step and render of each request in process.
    start_tracing(config, origin);
    let mirror = Mirror::new();
    let mut in_process = Samples::new();
    let mut transport = Samples::new();
    let mut negative = 0usize;
    let mut mismatch = None;
    for session in &sessions {
        trace::set_request(&session.name, 0);
        let mut mirrored = match mirror.open(&session.name, session.kind) {
            Ok(m) => m,
            Err(e) => {
                mismatch.get_or_insert(format!("mirror open {}: {e}", session.name));
                continue;
            }
        };
        for (step, (facts, reply)) in session.facts.iter().zip(&session.replies).enumerate() {
            trace::set_request(&session.name, step);
            let _span = trace::span("wire.replay");
            let (expected, us) = time_us(|| mirrored.expected_reply(facts));
            match expected {
                Ok(expected) if &expected == reply => {
                    in_process.push(us);
                    let remainder = session.round_trip_us[step] - us;
                    negative += usize::from(remainder < 0.0);
                    transport.push(remainder);
                }
                Ok(expected) => {
                    mismatch.get_or_insert(format!(
                        "{} step {step}: wire `{reply}`, in process `{expected}`",
                        session.name
                    ));
                }
                Err(e) => {
                    mismatch.get_or_insert(format!("{} step {step}: {e}", session.name));
                }
            }
        }
    }
    let replay_trace = trace::take();
    let steps: usize = sessions.iter().map(|s| s.replies.len()).sum();
    report.check(
        &format!("{steps} OUT lines equal the in-process rendering"),
        mismatch.map_or(Ok(()), Err),
    );

    if config.traced {
        trace.merge(replay_trace);
        set_session_layers(&mut report, &trace);
        set_median(&mut report, "front.transport_us", &mut transport);
        let (rt, ip, tr) = (
            lat.steps.median().unwrap_or(0.0),
            in_process.median().unwrap_or(0.0),
            transport.median().unwrap_or(0.0),
        );
        report.note(format!(
            "STEP round trip = transport + in-process parse/step/render: medians {rt:.1} us = {tr:.1} + {ip:.1} us (transport is the remainder per request)"
        ));
        if negative > 0 {
            report.note(format!(
                "{negative} requests ran faster over the wire than in process"
            ));
        }
        self_time_table(&mut report, &trace, &["front.roundtrip", "wire.replay"]);
        report.set_trace(trace);
    }
    report
}
