//! The metrics a run reports, and the result line.

use crate::stats::Tally;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of these from its
/// untraced run.  They match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("open_p50_us", "us"),
    ("step_p50_us", "us"),
    ("step_p90_us", "us"),
    ("steps_per_s", "1/s"),
];

/// Metrics of the traced run.  They match `per_layer` in `BENCHMARK.json`.
/// The first group are end-to-end figures outside the gate: the late-step
/// median swings too much from run to run on `long_session`, and the rest
/// apply to some workloads only.  A workload that does not exercise a
/// metric reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("late_step_p50_us", "us"),
    ("open_p99_us", "us"),
    ("step_p99_us", "us"),
    ("run_ms", "ms"),
    ("rss_kb_per_session", "KiB"),
    ("rss_kb_per_step", "KiB"),
    ("rss_peak_kb", "KiB"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("front.parse_facts_us", "us"),
    ("front.render_us", "us"),
    ("front.lookup_model_us", "us"),
    ("front.transport_us", "us"),
    ("front.busy_replies", "count"),
    ("front.err_replies", "count"),
    ("shard.route_ns", "ns"),
    ("shard.skew", "ratio"),
    ("runtime.open_plain_us", "us"),
    ("runtime.open_demand_us", "us"),
    ("runtime.open_monitored_us", "us"),
    ("runtime.step_plain_us", "us"),
    ("runtime.step_demand_us", "us"),
    ("runtime.step_monitored_us", "us"),
    ("monitor.admit_us", "us"),
    ("monitor.observe_us", "us"),
    ("monitor.work_per_step", "count"),
    ("eval.self_us", "us"),
    ("eval.rule_applications_per_step", "count"),
    ("eval.tuples_derived_per_step", "count"),
    ("eval.reseed_step_us", "us"),
    ("eval.quiet_step_us", "us"),
    ("demand.magic_applications_per_step", "count"),
    ("demand.magic_tuples_per_step", "count"),
    ("history.state_tuples", "count"),
    ("history.step_us_per_1k_state_tuples", "us"),
    ("history.run_rebuild_ms", "ms"),
    ("resident.index_builds_per_write", "count"),
    ("store.insert_us", "us"),
    ("store.retract_us", "us"),
    ("store.wal_bytes_per_write", "B"),
    ("store.checkpoint_ms", "ms"),
    ("store.recovery_ms", "ms"),
];

/// Everything one run measured, plus the notes printed beside it.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    lines: Vec<String>,
    pub tally: Tally,
    failures: Vec<String>,
    trace: Option<Trace>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

impl Report {
    /// Sets metric `name` (which must be declared) with a note such as its
    /// sample count.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "undeclared metric `{name}`");
        self.values.insert(name, (value, note.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// A free-form line printed with the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a failed correctness check; the run then reports no numbers.
    pub fn fail(&mut self, detail: impl Into<String>) {
        self.failures.push(detail.into());
    }

    /// Folds in a fallible check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.note(format!("check ok: {what}")),
            Err(detail) => self.fail(format!("{what}: {detail}")),
        }
    }

    pub fn is_correct(&self) -> bool {
        self.failures.is_empty() && self.tally.failed == 0
    }

    /// Folds in the untraced run of the same workload: its values replace
    /// the traced run's (end-to-end numbers come from the untraced run), and
    /// its notes, failures and operation counts are kept.
    pub fn absorb_untraced(&mut self, untraced: Report) {
        self.values.extend(untraced.values);
        self.lines.extend(
            untraced
                .lines
                .into_iter()
                .map(|l| format!("untraced run: {l}")),
        );
        self.failures.extend(untraced.failures);
        self.tally.merge(untraced.tally);
    }

    /// Keeps the spans of a traced run, to be written when the run ends.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Prints every metric with its unit, the notes and the failures, then
    /// the result line with the metrics of `declared`.  Returns whether the
    /// run is correct.
    pub fn print(&mut self, declared: &[(&'static str, &'static str)]) -> bool {
        for line in &self.lines {
            println!("# {line}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            match self.values.get(name) {
                Some((value, note)) => println!("{name:<40} {value:>14.3} {unit:<6} {note}"),
                None => println!("{name:<40} {:>14} {unit:<6} not on this workload's path", 0),
            }
        }
        for failure in &self.failures {
            println!("# FAILED: {failure}");
        }
        let mut missing = Vec::new();
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = match self.values.get(name) {
                Some((value, _)) => *value,
                None if declared == END_TO_END => {
                    missing.push(*name);
                    continue;
                }
                None => 0.0,
            };
            if !value.is_finite() {
                missing.push(*name);
                continue;
            }
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            ));
        }
        for name in missing {
            self.failures
                .push(format!("metric `{name}` was not measured"));
        }
        let correct = self.is_correct();
        let metrics = if correct {
            metrics.join(", ")
        } else {
            String::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        );
        correct
    }
}

fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = file.matches("\"name\":").count();
        let workloads = file.matches("\"why\":").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
