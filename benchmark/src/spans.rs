//! Harness-side tracing: host-clock spans around the calls the harness
//! makes into each layer's public functions, and counts taken at the same
//! places. Spans stay in memory and are written out once, at exit, as a
//! Chrome trace. Nothing here reaches inside the program; tracing inside
//! it is a later change (ROADMAP item 1).

use cucc::trace::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Op id of spans recorded during set-up.
pub const SETUP_OP: i64 = -1;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The per-layer metric this call feeds (`core.launch_s`, ...).
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the call belongs to ([`SETUP_OP`] during set-up).
    pub op: i64,
}

/// Span and count recorder. When disabled, [`Tracer::time`] only runs the
/// call, so the untraced and the traced pass execute the same harness code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: i64,
    counts: BTreeMap<(i64, &'static str), f64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: SETUP_OP,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute what follows to op `op`.
    pub fn set_op(&mut self, op: i64) {
        self.op = op;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span that encloses the calls until the matching
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end = self.now();
    }

    /// Run `call` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = call();
        self.close();
        out
    }

    /// Add `value` to the count `name` of the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry((self.op, name)).or_insert(0.0) += value;
        }
    }

    /// All recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For each of the ops `0..ops`: the summed duration of its spans named
    /// `name` plus its count `name` (a metric name is one or the other; 0
    /// where the op has neither).
    pub fn per_op(&self, name: &str, ops: usize) -> Vec<f64> {
        let mut out = vec![0.0; ops];
        for s in self.spans.iter().filter(|s| s.name == name && s.op >= 0) {
            if let Some(slot) = out.get_mut(s.op as usize) {
                *slot += s.end - s.start;
            }
        }
        for (&(op, n), &v) in &self.counts {
            if n == name && op >= 0 {
                if let Some(slot) = out.get_mut(op as usize) {
                    *slot += v;
                }
            }
        }
        out
    }

    /// Summed duration of the set-up spans named `name`.
    pub fn setup_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == SETUP_OP)
            .map(|s| s.end - s.start)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// The spans as Chrome trace-event JSON on the host clock (complete
    /// events, microseconds): loadable in Perfetto or `chrome://tracing`.
    /// Nested spans share one thread track, so the viewer stacks children
    /// under their parent; `args` carries the op id and the parent index.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":{}}}}}",
            json::escape(&format!("cucc-benchmark {workload} (host clock)"))
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"op\":{},\"id\":{id},\"parent\":{parent}}}}}",
                json::escape(s.name),
                json::escape(s.name.split('.').next().unwrap_or("harness")),
                json::fmt_f64(s.start * 1e6),
                json::fmt_f64((s.end - s.start) * 1e6),
                s.op,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut tr = Tracer::new(true);
        tr.time("core.graph_capture_s", || ());
        for op in 0..3 {
            tr.set_op(op);
            tr.open("harness.op_s");
            tr.time("core.launch_s", || std::hint::black_box(1 + 1));
            tr.time("core.launch_s", || ());
            tr.close();
            tr.count("exec.blocks", 16.0);
            tr.count("exec.blocks", 16.0);
        }
        tr
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let tr = sample();
        let doc = json::parse(&tr.to_chrome_json("unit \"test\"")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // One metadata event plus one complete event per span.
        assert_eq!(events.len(), 1 + tr.spans().len());
        for e in &events[1..] {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(e.get("ts").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            assert!(e.get("args").and_then(|a| a.get("op")).is_some());
        }
    }

    #[test]
    fn children_point_at_their_parent_and_lie_inside_it() {
        let tr = sample();
        let spans = tr.spans();
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent.is_some()).collect();
        assert_eq!(children.len(), 6);
        for c in children {
            let p = &spans[c.parent.unwrap()];
            assert_eq!(p.name, "harness.op_s");
            assert_eq!(p.op, c.op);
            assert!(p.start <= c.start && c.end <= p.end);
        }
    }

    #[test]
    fn per_op_sums_and_counts() {
        let tr = sample();
        let launches = tr.per_op("core.launch_s", 3);
        assert_eq!(launches.len(), 3);
        assert!(launches.iter().all(|&s| s >= 0.0));
        assert_eq!(tr.per_op("exec.blocks", 3), vec![32.0; 3]);
        assert_eq!(tr.per_op("exec.ops", 3), vec![0.0; 3]);
        // Set-up spans are kept apart from the ops.
        assert_eq!(tr.per_op("core.graph_capture_s", 3), vec![0.0; 3]);
        assert!(tr.setup_seconds("core.graph_capture_s") >= 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_runs_the_call() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.time("core.launch_s", || 41 + 1), 42);
        tr.count("exec.blocks", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.per_op("exec.blocks", 1), vec![0.0]);
    }
}
