//! Spans recorded around calls into the system under test.
//!
//! Each thread records into its own in-memory buffer while tracing is on;
//! nothing is written until the run ends.  A span has a name, a start and
//! an end (nanoseconds since the run's origin), its parent span, and the
//! request it belongs to: a session name plus a step index, shared by every
//! span of that request.  A layer's self time is its span's duration minus
//! the part of it that child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// The request a span belongs to: session name and step index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub session: Arc<str>,
    pub step: u32,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: Option<Request>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Trace`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<Request>,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; times count from `origin`.
pub fn enable(origin: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
            counts: BTreeMap::new(),
        })
    });
}

/// Stops recording on this thread and returns what was recorded (empty when
/// tracing was off).
pub fn take() -> Trace {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| Trace {
            spans: rec.spans,
            counts: rec.counts,
        })
        .unwrap_or_default()
}

/// Adds `n` to the work counter `name` (recorded only while tracing).
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.counts.entry(name).or_default() += n;
        }
    });
}

/// Sets the request that spans opened from now on belong to.
pub fn set_request(session: &Arc<str>, step: usize) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = Some(Request {
                session: Arc::clone(session),
                step: u32::try_from(step).unwrap_or(u32::MAX),
            });
        }
    });
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name` as a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let start_ns = nanos_since(rec.origin, Instant::now());
            let index = rec.spans.len();
            rec.spans.push(Span {
                name,
                request: rec.request.clone(),
                start_ns,
                end_ns: start_ns,
                parent: rec.open.last().copied(),
            });
            rec.open.push(index);
            index
        })
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = nanos_since(rec.origin, Instant::now());
                if let Some(at) = rec.open.iter().rposition(|&i| i == index) {
                    rec.open.truncate(at);
                }
            }
        });
    }
}

/// True while this thread records spans.
pub fn is_on() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

fn nanos_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// The spans of a run, merged from every thread.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

/// The result of checking that self times along each request's span tree
/// add up to its root span's duration.
#[derive(Debug, Default, Clone, Copy)]
pub struct SumCheck {
    pub roots: usize,
    /// Largest |Σ self − root duration| over all roots, in nanoseconds.
    pub max_error_ns: u64,
}

impl Trace {
    /// Appends another thread's spans, keeping parent links valid.
    pub fn merge(&mut self, other: Trace) {
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The counter `name`, zero when never counted.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self times in microseconds, grouped by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(span.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Checks, for every root span named in `roots`, that the self times of
    /// its whole subtree sum to the root's duration.
    pub fn check_sums(&self, roots: &[&str]) -> SumCheck {
        let self_ns = self.self_times_ns();
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            // Parents precede children, so the parent's root is known.
            root_of.push(span.parent.map_or(i, |p| root_of[p]));
        }
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, &root) in root_of.iter().enumerate() {
            *sums.entry(root).or_default() += self_ns[i];
        }
        let mut check = SumCheck::default();
        for (root, sum) in sums {
            let span = &self.spans[root];
            if span.parent.is_some() || !roots.contains(&span.name) {
                continue;
            }
            check.roots += 1;
            check.max_error_ns = check.max_error_ns.max(sum.abs_diff(span.duration_ns()));
        }
        check
    }

    /// Writes at most `limit` spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write, limit: usize) -> std::io::Result<usize> {
        let mut written = 0;
        for span in self.spans.iter().take(limit) {
            let (session, step) = match &span.request {
                Some(r) => (crate::report::json_string(&r.session), r.step.to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{written},\"name\":\"{}\",\"session\":{session},\"step\":{step},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
            written += 1;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            request: None,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // step [0,100) ⊃ admit [10,20), observe [70,95) ⊃ inner [80,90)
        let trace = Trace {
            spans: vec![
                interval("step", 0, 100, None),
                interval("admit", 10, 20, Some(0)),
                interval("observe", 70, 95, Some(0)),
                interval("inner", 80, 90, Some(2)),
            ],
            ..Trace::default()
        };
        assert_eq!(trace.self_times_ns(), vec![65, 10, 15, 10]);
        let check = trace.check_sums(&["step"]);
        assert_eq!(check.roots, 1);
        assert_eq!(check.max_error_ns, 0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [30,40); one overhangs the parent's end.
        let trace = Trace {
            spans: vec![
                interval("root", 0, 100, None),
                interval("a", 20, 40, Some(0)),
                interval("b", 30, 50, Some(0)),
                interval("c", 90, 120, Some(0)),
            ],
            ..Trace::default()
        };
        // covered = [20,50) + [90,100) = 40
        assert_eq!(trace.self_times_ns()[0], 60);
    }

    #[test]
    fn merged_traces_keep_parent_links() {
        let mut a = Trace {
            spans: vec![interval("x", 0, 10, None), interval("y", 2, 4, Some(0))],
            counts: [("work", 2)].into_iter().collect(),
        };
        let b = Trace {
            spans: vec![interval("x", 0, 10, None), interval("y", 5, 9, Some(0))],
            counts: [("work", 3)].into_iter().collect(),
        };
        a.merge(b);
        assert_eq!(a.count("work"), 5);
        assert_eq!(a.count("other"), 0);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.self_times_ns(), vec![8, 2, 6, 4]);
        let by_name = a.by_name();
        assert_eq!(by_name["x"], vec![0.008, 0.006]);
        assert_eq!(a.check_sums(&["x"]).roots, 2);
    }

    #[test]
    fn guards_nest_on_the_recording_thread() {
        enable(Instant::now());
        let session: Arc<str> = Arc::from("s-1");
        set_request(&session, 3);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let _after = span("after");
        drop(_after);
        let trace = take();
        assert!(!is_on());
        let names: Vec<_> = trace.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("after", None)]
        );
        assert_eq!(trace.spans[1].request.as_ref().unwrap().step, 3);
        assert!(trace.check_sums(&["outer"]).max_error_ns == 0);
    }

    #[test]
    fn spans_are_free_when_tracing_is_off() {
        let guard = span("nothing");
        assert!(guard.index.is_none());
        assert!(take().spans.is_empty());
    }
}
