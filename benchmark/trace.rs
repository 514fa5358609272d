//! Spans recorded from the benchmark's own code around each call into a
//! layer (workload generation, topology build, `Simulator::try_new`,
//! flow registration, the engine loop, `run_sharded`, figure children).
//!
//! Spans stay in memory and are written as JSONL when the benchmark
//! ends. Untraced reps use the same code with no tracer attached, so the
//! only difference between the two passes is the recording itself.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simstats::json::Value;

/// One closed span.
struct Span {
    id: u32,
    parent: Option<u32>,
    run: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(String, Value)>,
}

/// Every span of one benchmark process.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    runs: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            runs: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A root scope for one run (`workload/rep`).
    pub fn run(&self, name: String) -> Scope<'_> {
        let mut runs = self.runs.lock().expect("tracer run table poisoned");
        runs.push(name);
        Scope {
            tracer: Some(self),
            run: (runs.len() - 1) as u32,
            parent: None,
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span as one JSON object per line, in the order spans closed.
    pub fn to_jsonl(&self) -> String {
        let runs = self.runs.lock().expect("tracer run table poisoned");
        let spans = self.spans.lock().expect("tracer span list poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let mut v = Value::object()
                .with("run", runs[s.run as usize].as_str())
                .with("id", u64::from(s.id))
                .with(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                )
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            for (k, val) in &s.attrs {
                v.set(k, val.clone());
            }
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

/// Where new spans attach: a run and a parent span, or nowhere when the
/// pass is untraced.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    run: u32,
    parent: Option<u32>,
}

/// A closure's result with its wall time and, when traced, its span.
pub struct Timed<R> {
    pub value: R,
    pub secs: f64,
    pub span: Option<u32>,
}

impl<'a> Scope<'a> {
    /// A scope that times but records nothing.
    pub fn untraced() -> Scope<'static> {
        Scope {
            tracer: None,
            run: 0,
            parent: None,
        }
    }

    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Run `f` inside a span called `name`; spans `f` opens through the
    /// scope it receives become children of this one.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(&Scope<'a>) -> R) -> Timed<R> {
        let id = self
            .tracer
            .map(|t| t.next_id.fetch_add(1, Ordering::Relaxed));
        let child = Scope {
            parent: id.or(self.parent),
            ..*self
        };
        let t0 = Instant::now();
        let value = f(&child);
        let t1 = Instant::now();
        if let (Some(t), Some(id)) = (self.tracer, id) {
            let span = Span {
                id,
                parent: self.parent,
                run: self.run,
                name,
                start_ns: t.ns_since_origin(t0),
                end_ns: t.ns_since_origin(t1),
                attrs: Vec::new(),
            };
            t.spans
                .lock()
                .expect("tracer span list poisoned")
                .push(span);
        }
        Timed {
            value,
            secs: (t1 - t0).as_secs_f64(),
            span: id,
        }
    }

    /// Attach attributes to an already closed span of this tracer.
    pub fn annotate(&self, span: Option<u32>, attrs: Vec<(String, Value)>) {
        let (Some(t), Some(id)) = (self.tracer, span) else {
            return;
        };
        let mut spans = t.spans.lock().expect("tracer span list poisoned");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.attrs.extend(attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_run_and_attributes() {
        let tracer = Tracer::new();
        let root = tracer.run("w/0".to_string());
        let outer = root.span("outer", |s| s.span("inner", |_| 7).value + 1);
        assert_eq!(outer.value, 8);
        root.annotate(
            outer.span,
            vec![("cc.calls".to_string(), Value::from(3u64))],
        );
        let lines: Vec<String> = tracer.to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2, "inner closes first, then outer");
        assert!(lines[0].contains("\"name\":\"inner\"") && lines[0].contains("\"parent\":0"));
        assert!(lines[1].contains("\"parent\":null") && lines[1].contains("\"cc.calls\":3"));
        assert!(lines.iter().all(|l| l.contains("\"run\":\"w/0\"")));
    }

    #[test]
    fn untraced_scope_times_without_recording() {
        let t = Scope::untraced().span("x", |s| s.is_traced());
        assert!(!t.value && t.span.is_none() && t.secs >= 0.0);
    }
}
