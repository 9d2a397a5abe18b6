//! Unified simulated-clock trace timeline for CuCC.
//!
//! Every component that previously kept its own ad-hoc time accounting
//! (three-phase launch phases, collective steps, PGAS puts, host↔device
//! transfers) records typed [`Span`]s and [`CounterEvent`]s into one
//! [`Timeline`] instead. Scalar views the rest of the system consumes —
//! phase times, wire bytes, the cluster clock — are *derived* from the
//! timeline, and the recording is rich enough to export as Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`
//! ([`Timeline::to_chrome_json`]).
//!
//! Times are simulated seconds on the cluster's virtual clock, not wall
//! clock. The export converts them to microseconds, which is what the
//! trace-event format expects.
//!
//! Bit-for-bit compatibility: depth-0 spans carry the *authoritative*
//! durations (exactly the `f64` values the legacy accounting produced),
//! and derived sums visit them in recording order, so they reproduce the
//! legacy accumulation order exactly. Depth-1 child spans (e.g. the
//! individual steps inside one allgather) exist for visualization and may
//! differ from their parent by float rounding when summed.

pub mod json;

use std::fmt::Write as _;

/// Counter name for bytes that cross the network wire.
pub const WIRE_BYTES: &str = "wire_bytes";
/// Counter name for executed arithmetic operations.
pub const OPS: &str = "ops";
/// Counter name for global-memory traffic in bytes.
pub const GLOBAL_BYTES: &str = "global_bytes";
/// Counter name for shared-memory traffic in bytes.
pub const SHARED_BYTES: &str = "shared_bytes";

/// Which lane of the trace a span or counter belongs to.
///
/// Tracks map to "threads" in the Chrome trace-event export, so each node,
/// the network, and the host get their own swim-lane in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// One logical cluster node.
    Node(u32),
    /// The interconnect (collectives, broadcasts, point-to-point traffic).
    Network,
    /// The host driving the cluster (launches, H2D/D2H staging).
    Host,
    /// The serving front-end's job queue: one span per job from arrival to
    /// the moment placement dequeues it.
    Queue,
    /// Serving admission control: accept/reject decisions at arrival time.
    Admit,
    /// Serving placement: the window each placed job occupies its node
    /// allocation on the simulated cluster.
    Place,
}

impl Track {
    /// Stable "thread id" used by the Chrome export. Serving tracks sit
    /// above every possible `Node(i)` id (`2 + u32::MAX`), so node lanes
    /// can never collide with them.
    fn tid(self) -> u64 {
        match self {
            Track::Node(i) => 2 + i as u64,
            Track::Network => 0,
            Track::Host => 1,
            Track::Queue => 3 + u32::MAX as u64,
            Track::Admit => 4 + u32::MAX as u64,
            Track::Place => 5 + u32::MAX as u64,
        }
    }

    fn label(self) -> String {
        match self {
            Track::Node(i) => format!("node {i}"),
            Track::Network => "network".to_string(),
            Track::Host => "host".to_string(),
            Track::Queue => "serve: queue".to_string(),
            Track::Admit => "serve: admit".to_string(),
            Track::Place => "serve: place".to_string(),
        }
    }
}

/// What kind of work a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Phase 1 of a three-phase launch: partial block execution.
    Partial,
    /// Phase 2: the balanced in-place allgather.
    Allgather,
    /// Phase 3: callback block execution.
    Callback,
    /// A broadcast collective (replicated h2d distribution).
    Broadcast,
    /// Undifferentiated compute (replicated launches, PGAS ranks).
    Compute,
    /// Point-to-point traffic (PGAS puts/gets).
    P2p,
    /// Host-to-device staging.
    H2d,
    /// Device-to-host staging.
    D2h,
    /// A wasted collective attempt: timeout + exponential backoff spent
    /// detecting a fault before a step is retried (or a node evicted).
    Retry,
    /// Recovery re-execution: blocks a survivor re-runs after a node death
    /// re-partitions the dead node's slice.
    Reexec,
    /// Serving: time a job spends waiting in the front-end queue.
    Queue,
    /// Serving: an admission-control decision (accept or typed rejection).
    Admit,
    /// Serving: a placed job's residency on its node allocation.
    Place,
}

impl Category {
    /// All categories, in summary-table order.
    pub const ALL: [Category; 13] = [
        Category::Partial,
        Category::Allgather,
        Category::Callback,
        Category::Broadcast,
        Category::Compute,
        Category::P2p,
        Category::H2d,
        Category::D2h,
        Category::Retry,
        Category::Reexec,
        Category::Queue,
        Category::Admit,
        Category::Place,
    ];

    /// Short lower-case label, also used as the Chrome `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            Category::Partial => "partial",
            Category::Allgather => "allgather",
            Category::Callback => "callback",
            Category::Broadcast => "broadcast",
            Category::Compute => "compute",
            Category::P2p => "p2p",
            Category::H2d => "h2d",
            Category::D2h => "d2h",
            Category::Retry => "retry",
            Category::Reexec => "reexec",
            Category::Queue => "queue",
            Category::Admit => "admit",
            Category::Place => "place",
        }
    }

    /// Whether the category counts as communication in comm/compute splits.
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            Category::Allgather | Category::Broadcast | Category::P2p | Category::Retry
        )
    }

    /// Whether the category counts as compute in comm/compute splits.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            Category::Partial | Category::Callback | Category::Compute | Category::Reexec
        )
    }
}

/// One interval of simulated time on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Human-readable name shown in the trace viewer.
    pub name: String,
    /// Lane the span lives on.
    pub track: Track,
    /// Kind of work.
    pub category: Category,
    /// Start time in simulated seconds.
    pub start: f64,
    /// Duration in simulated seconds.
    pub dur: f64,
    /// 0 for authoritative spans, 1 for visualization-only children
    /// (e.g. the per-step breakdown inside one collective).
    pub depth: u8,
}

impl Span {
    /// End time in simulated seconds.
    pub fn end(&self) -> f64 {
        self.start + self.dur
    }
}

/// One point sample of a named counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterEvent {
    /// Counter name (one of [`WIRE_BYTES`], [`OPS`], ... or custom).
    pub name: &'static str,
    /// Lane the sample is attributed to.
    pub track: Track,
    /// Sample time in simulated seconds.
    pub t: f64,
    /// Increment recorded at `t` (deltas, not running totals).
    pub value: u64,
}

/// Per-resource ready times: one simulated-clock ready time per [`Track`]
/// lane (each node, the network, the host).
///
/// The global [`Timeline::clock`] models a fully serial host: every op
/// starts when the previous one finished. The lane clock is the async
/// generalization — an op starts at the **max of its dependency times and
/// the ready times of the lanes it occupies**, and pushes those lanes'
/// ready times to its end. Independent work on disjoint lanes genuinely
/// overlaps on the simulated clock; work on a shared lane serializes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneClock {
    /// `(lane, ready)` pairs; lanes never observed are ready at 0.0.
    lanes: Vec<(Track, f64)>,
}

impl LaneClock {
    /// An empty lane clock (every lane ready at 0.0).
    pub fn new() -> LaneClock {
        LaneClock::default()
    }

    /// Ready time of one lane (0.0 if never reserved).
    pub fn ready(&self, track: Track) -> f64 {
        self.lanes
            .iter()
            .find(|(t, _)| *t == track)
            .map_or(0.0, |(_, r)| *r)
    }

    /// Push a lane's ready time forward to `end` (never backward).
    pub fn reserve(&mut self, track: Track, end: f64) {
        match self.lanes.iter_mut().find(|(t, _)| *t == track) {
            Some((_, r)) => {
                if end > *r {
                    *r = end;
                }
            }
            None => self.lanes.push((track, end)),
        }
    }

    /// Latest ready time over every lane (0.0 when no lane was reserved).
    pub fn horizon(&self) -> f64 {
        self.lanes.iter().fold(0.0f64, |acc, (_, r)| acc.max(*r))
    }

    /// Forget every reservation (all lanes ready at 0.0 again).
    pub fn clear(&mut self) {
        self.lanes.clear();
    }
}

/// A position in the timeline, used to window derived views to the events
/// recorded after a given point (typically: one launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mark {
    spans: usize,
    counters: usize,
}

/// The unified event record plus the simulated clock.
///
/// The clock advances only via [`Timeline::advance`]; recording spans does
/// not move it. Callers lay out spans at absolute times of their choosing
/// (usually starting at the current clock) and then advance the clock by
/// the total elapsed simulated time, which reproduces the legacy
/// `clock += elapsed` accounting bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    clock: f64,
    spans: Vec<Span>,
    counters: Vec<CounterEvent>,
    lanes: LaneClock,
}

impl Timeline {
    /// An empty timeline with the clock at zero.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Current simulated time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advance the simulated clock by `dt` seconds.
    pub fn advance(&mut self, dt: f64) {
        self.clock += dt;
    }

    /// Advance the simulated clock to at least `t` (never backward). Used
    /// by the async scheduler to settle the clock at the lane horizon on
    /// synchronization points.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Ready time of a resource lane, floored at the serial clock: sync
    /// ops advance only [`Timeline::clock`], and any async op submitted
    /// afterwards must not start before the work that already completed.
    pub fn lane_ready(&self, track: Track) -> f64 {
        self.lanes.ready(track).max(self.clock)
    }

    /// Push a resource lane's ready time forward to `end`.
    pub fn reserve_lane(&mut self, track: Track, end: f64) {
        self.lanes.reserve(track, end);
    }

    /// Latest lane ready time (0.0 when no lane was ever reserved).
    pub fn lanes_horizon(&self) -> f64 {
        self.lanes.horizon()
    }

    /// Drop all recorded events and reset the clock (and every lane) to
    /// zero.
    pub fn reset(&mut self) {
        self.clock = 0.0;
        self.spans.clear();
        self.counters.clear();
        self.lanes.clear();
    }

    /// Snapshot the current position for later [`Timeline::spans_since`] /
    /// derived-view windowing.
    pub fn checkpoint(&self) -> Mark {
        Mark {
            spans: self.spans.len(),
            counters: self.counters.len(),
        }
    }

    /// Record an authoritative (depth-0) span.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        track: Track,
        category: Category,
        start: f64,
        dur: f64,
    ) {
        self.spans.push(Span {
            name: name.into(),
            track,
            category,
            start,
            dur,
            depth: 0,
        });
    }

    /// Record a visualization-only (depth-1) child span, e.g. one step of
    /// a collective whose parent span carries the authoritative duration.
    pub fn child_span(
        &mut self,
        name: impl Into<String>,
        track: Track,
        category: Category,
        start: f64,
        dur: f64,
    ) {
        self.spans.push(Span {
            name: name.into(),
            track,
            category,
            start,
            dur,
            depth: 1,
        });
    }

    /// Record a counter increment at time `t`.
    pub fn counter(&mut self, name: &'static str, track: Track, t: f64, value: u64) {
        self.counters.push(CounterEvent {
            name,
            track,
            t,
            value,
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded counter events, in recording order.
    pub fn counters(&self) -> &[CounterEvent] {
        &self.counters
    }

    /// Spans recorded after `mark`.
    pub fn spans_since(&self, mark: Mark) -> &[Span] {
        &self.spans[mark.spans..]
    }

    /// Counter events recorded after `mark`.
    pub fn counters_since(&self, mark: Mark) -> &[CounterEvent] {
        &self.counters[mark.counters..]
    }

    /// In-order sum of depth-0 span durations of `category` after `mark`.
    ///
    /// Visiting spans in recording order reproduces the accumulation order
    /// of the legacy per-phase `+=` loops, so the sum is bit-identical to
    /// the value the pre-timeline accounting computed.
    pub fn time_in_since(&self, mark: Mark, category: Category) -> f64 {
        let mut t = 0.0;
        for s in self.spans_since(mark) {
            if s.depth == 0 && s.category == category {
                t += s.dur;
            }
        }
        t
    }

    /// In-order sum of depth-0 span durations of `category` over the whole
    /// timeline. Scans every span ever recorded, so its cost grows with the
    /// life of the process: per-launch code takes a [`Timeline::checkpoint`]
    /// and calls [`Timeline::time_in_since`].
    pub fn time_in(&self, category: Category) -> f64 {
        self.time_in_since(Mark::default(), category)
    }

    /// In-order sum of depth-0 span durations of `category` restricted to
    /// one `track`.
    pub fn time_in_on(&self, track: Track, category: Category) -> f64 {
        let mut t = 0.0;
        for s in &self.spans {
            if s.depth == 0 && s.category == category && s.track == track {
                t += s.dur;
            }
        }
        t
    }

    /// Maximum depth-0 span duration of `category` after `mark` (0.0 when
    /// there are none). Phases that run concurrently across nodes record
    /// one span per node; the phase's elapsed time is the slowest node.
    pub fn max_in_since(&self, mark: Mark, category: Category) -> f64 {
        let mut t = 0.0f64;
        for s in self.spans_since(mark) {
            if s.depth == 0 && s.category == category {
                t = t.max(s.dur);
            }
        }
        t
    }

    /// Sum of the depth-0 `category` rounds after `mark` (0.0 when there
    /// are none), in recording order.
    ///
    /// Used for phases that can repeat within one launch (fault-recovery
    /// re-execution rounds): each round records one span, with the same
    /// start and duration, on every node in the communicator at that
    /// moment. Membership shrinks (deaths) and grows (mid-launch joins)
    /// between rounds, so no single track need hold them all; a round
    /// counts once however many tracks recorded it.
    pub fn round_sum_since(&self, mark: Mark, category: Category) -> f64 {
        let mut rounds: Vec<(f64, f64)> = Vec::new();
        for s in self.spans_since(mark) {
            let round = (s.start, s.dur);
            if s.depth == 0 && s.category == category && !rounds.contains(&round) {
                rounds.push(round);
            }
        }
        // Folded from +0.0: an empty `f64` sum is -0.0.
        rounds.iter().fold(0.0, |t, &(_, d)| t + d)
    }

    /// Total of counter `name` after `mark`.
    pub fn counter_total_since(&self, mark: Mark, name: &str) -> u64 {
        self.counters_since(mark)
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total of counter `name` over the whole timeline. Scans (and
    /// string-compares) every counter event ever recorded; per-launch code
    /// uses [`Timeline::counter_total_since`] from a checkpoint instead.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_total_since(Mark::default(), name)
    }

    /// Total bytes that crossed the wire after `mark`.
    pub fn wire_bytes_since(&self, mark: Mark) -> u64 {
        self.counter_total_since(mark, WIRE_BYTES)
    }

    /// Total bytes that crossed the wire. A whole-timeline scan like
    /// [`Timeline::counter_total`]; per-launch code takes a
    /// [`Timeline::checkpoint`] before the work and calls
    /// [`Timeline::wire_bytes_since`].
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes_since(Mark::default())
    }

    /// In-order sum of depth-0 durations in communication categories.
    pub fn comm_time(&self) -> f64 {
        let mut t = 0.0;
        for s in &self.spans {
            if s.depth == 0 && s.category.is_comm() && s.track == Track::Network {
                t += s.dur;
            }
        }
        t
    }

    /// Sum of depth-0 span durations on one node's track (its busy time).
    pub fn node_busy(&self, node: u32) -> f64 {
        let mut t = 0.0;
        for s in &self.spans {
            if s.depth == 0 && s.track == Track::Node(node) {
                t += s.dur;
            }
        }
        t
    }

    /// Every track that has at least one span or counter, sorted with the
    /// network and host lanes first, then nodes by id.
    pub fn tracks(&self) -> Vec<Track> {
        let mut tracks: Vec<Track> = self
            .spans
            .iter()
            .map(|s| s.track)
            .chain(self.counters.iter().map(|c| c.track))
            .collect();
        tracks.sort_by_key(|t| t.tid());
        tracks.dedup();
        tracks
    }

    /// Largest span end time, or the clock if no span reaches further.
    pub fn end_time(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| s.end())
            .fold(self.clock, f64::max)
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array
    /// format), loadable in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`. Times are exported in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * (self.spans.len() + self.counters.len()));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for track in self.tracks() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                track.tid(),
                json::escape(&track.label()),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                track.tid(),
                track.tid(),
            );
        }
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":{},\"cat\":\"{}\",\"args\":{{\"depth\":{}}}}}",
                s.track.tid(),
                json::fmt_f64(s.start * 1e6),
                json::fmt_f64(s.dur * 1e6),
                json::escape(&s.name),
                s.category.label(),
                s.depth,
            );
        }
        // Counters are exported as running totals per (name, track) so the
        // Perfetto counter graph shows cumulative traffic over time.
        let mut totals: Vec<(&'static str, Track, u64)> = Vec::new();
        for c in &self.counters {
            let total = match totals
                .iter_mut()
                .find(|(n, t, _)| *n == c.name && *t == c.track)
            {
                Some(entry) => {
                    entry.2 += c.value;
                    entry.2
                }
                None => {
                    totals.push((c.name, c.track, c.value));
                    c.value
                }
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"{}\":{}}}}}",
                c.track.tid(),
                json::fmt_f64(c.t * 1e6),
                c.name,
                c.name,
                total,
            );
        }
        out.push_str("]}");
        out
    }

    /// Render a plain-text summary table: total time per category, the
    /// comm/compute split, wire bytes, and per-node busy time.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {:.6} s simulated, {} spans",
            self.clock,
            self.spans.len()
        );
        let _ = writeln!(out, "  {:<12} {:>14} {:>8}", "category", "time", "spans");
        let mut comm = 0.0;
        let mut compute = 0.0;
        for cat in Category::ALL {
            let t = self.time_in(cat);
            let n = self
                .spans
                .iter()
                .filter(|s| s.depth == 0 && s.category == cat)
                .count();
            if n == 0 {
                continue;
            }
            if cat.is_comm() {
                comm += t;
            }
            if cat.is_compute() {
                compute += t;
            }
            let _ = writeln!(out, "  {:<12} {:>12.3} µs {:>8}", cat.label(), t * 1e6, n);
        }
        let split = comm + compute;
        if split > 0.0 {
            let _ = writeln!(
                out,
                "  comm/compute  {:>11.1} % {:>10.1} %",
                100.0 * comm / split,
                100.0 * compute / split,
            );
        }
        let wire = self.wire_bytes();
        if wire > 0 {
            let _ = writeln!(out, "  wire bytes    {wire:>14}");
        }
        for track in self.tracks() {
            if let Track::Node(i) = track {
                let _ = writeln!(
                    out,
                    "  node {i:<3} busy {:>12.3} µs",
                    self.node_busy(i) * 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        tl.span("partial", Track::Node(0), Category::Partial, 0.0, 2.0);
        tl.span("partial", Track::Node(1), Category::Partial, 0.0, 3.0);
        tl.span("allgather", Track::Network, Category::Allgather, 3.0, 1.5);
        tl.child_span("step 0", Track::Network, Category::Allgather, 3.0, 0.75);
        tl.child_span("step 1", Track::Network, Category::Allgather, 3.75, 0.75);
        tl.counter(WIRE_BYTES, Track::Network, 3.0, 64);
        tl.counter(WIRE_BYTES, Track::Network, 3.75, 64);
        tl.span("callback", Track::Node(0), Category::Callback, 4.5, 1.0);
        tl.advance(5.5);
        tl
    }

    #[test]
    fn derived_views() {
        let tl = sample();
        assert_eq!(tl.clock(), 5.5);
        assert_eq!(tl.max_in_since(Mark::default(), Category::Partial), 3.0);
        // Depth-1 steps are excluded from the authoritative sums.
        assert_eq!(tl.time_in(Category::Allgather), 1.5);
        assert_eq!(tl.wire_bytes(), 128);
        assert_eq!(tl.node_busy(0), 3.0);
        assert_eq!(tl.comm_time(), 1.5);
        assert_eq!(tl.end_time(), 5.5);
        assert_eq!(
            tl.tracks(),
            vec![Track::Network, Track::Node(0), Track::Node(1)]
        );
    }

    #[test]
    fn checkpoint_windows() {
        let mut tl = sample();
        let mark = tl.checkpoint();
        assert_eq!(tl.time_in_since(mark, Category::Partial), 0.0);
        tl.span("partial", Track::Node(0), Category::Partial, 5.5, 7.0);
        tl.counter(WIRE_BYTES, Track::Network, 5.5, 32);
        assert_eq!(tl.time_in_since(mark, Category::Partial), 7.0);
        assert_eq!(tl.wire_bytes_since(mark), 32);
        assert_eq!(tl.wire_bytes(), 160);
    }

    #[test]
    fn round_sum_counts_each_round_once() {
        let mut tl = Timeline::new();
        let mark = tl.checkpoint();
        // Round 1 on nodes 0 and 1; node 1 dies and node 2 joins for round
        // 2; node 0 dies before round 3. No track holds every round.
        tl.span("reexec", Track::Node(0), Category::Reexec, 1.0, 2.0);
        tl.span("reexec", Track::Node(1), Category::Reexec, 1.0, 2.0);
        tl.span("reexec", Track::Node(0), Category::Reexec, 4.0, 0.5);
        tl.span("reexec", Track::Node(2), Category::Reexec, 4.0, 0.5);
        tl.span("reexec", Track::Node(2), Category::Reexec, 5.0, 1.0);
        assert_eq!(
            tl.round_sum_since(mark, Category::Reexec).to_bits(),
            3.5f64.to_bits()
        );
        // Depth-1 children are excluded; an empty category yields +0.0.
        tl.child_span("detail", Track::Node(0), Category::Reexec, 1.0, 9.0);
        assert_eq!(
            tl.round_sum_since(mark, Category::Reexec).to_bits(),
            3.5f64.to_bits()
        );
        assert_eq!(
            tl.round_sum_since(mark, Category::Retry).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut tl = sample();
        tl.reserve_lane(Track::Host, 9.0);
        tl.reset();
        assert_eq!(tl.clock(), 0.0);
        assert!(tl.spans().is_empty());
        assert!(tl.counters().is_empty());
        assert_eq!(tl.wire_bytes(), 0);
        assert_eq!(tl.lanes_horizon(), 0.0);
        assert_eq!(tl.lane_ready(Track::Host), 0.0);
    }

    #[test]
    fn lane_clock_tracks_per_resource_ready_times() {
        let mut lanes = LaneClock::new();
        assert_eq!(lanes.ready(Track::Node(0)), 0.0);
        assert_eq!(lanes.horizon(), 0.0);
        lanes.reserve(Track::Node(0), 2.0);
        lanes.reserve(Track::Network, 1.0);
        assert_eq!(lanes.ready(Track::Node(0)), 2.0);
        assert_eq!(lanes.ready(Track::Node(1)), 0.0);
        assert_eq!(lanes.horizon(), 2.0);
        // Reservations never move a lane backward.
        lanes.reserve(Track::Node(0), 1.5);
        assert_eq!(lanes.ready(Track::Node(0)), 2.0);
        lanes.clear();
        assert_eq!(lanes.horizon(), 0.0);
    }

    #[test]
    fn lane_ready_is_floored_at_the_serial_clock() {
        let mut tl = Timeline::new();
        tl.advance(3.0);
        // A lane never reserved is still "busy" until the serial clock:
        // everything the sync path did is finished by `clock`.
        assert_eq!(tl.lane_ready(Track::Host), 3.0);
        tl.reserve_lane(Track::Host, 5.0);
        assert_eq!(tl.lane_ready(Track::Host), 5.0);
        assert_eq!(tl.lanes_horizon(), 5.0);
        // advance_to never moves the clock backward.
        tl.advance_to(1.0);
        assert_eq!(tl.clock(), 3.0);
        tl.advance_to(5.0);
        assert_eq!(tl.clock(), 5.0);
    }

    #[test]
    fn chrome_export_parses_and_counts() {
        let tl = sample();
        let doc = json::parse(&tl.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        let xs = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .count();
        let cs = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("C"))
            .count();
        assert_eq!(xs, tl.spans().len());
        assert_eq!(cs, tl.counters().len());
        // Counter samples are running totals; the last one holds the sum.
        let last_total = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("C"))
            .filter_map(|e| e.get("args")?.get(WIRE_BYTES)?.as_f64())
            .fold(0.0, f64::max);
        assert_eq!(last_total as u64, tl.wire_bytes());
    }

    #[test]
    fn serving_tracks_are_distinct_lanes() {
        // Serving track ids can never collide with a node lane, even at
        // the extreme node id.
        let tids: Vec<u64> = [
            Track::Node(u32::MAX),
            Track::Queue,
            Track::Admit,
            Track::Place,
        ]
        .iter()
        .map(|t| t.tid())
        .collect();
        let mut uniq = tids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), tids.len());

        let mut tl = Timeline::new();
        tl.span("job 0 wait", Track::Queue, Category::Queue, 0.0, 1.0);
        tl.span("job 0 admit", Track::Admit, Category::Admit, 0.0, 0.0);
        tl.span("job 0 run", Track::Place, Category::Place, 1.0, 2.0);
        assert_eq!(tl.time_in(Category::Queue), 1.0);
        assert_eq!(tl.time_in(Category::Place), 2.0);
        // Serving overhead is neither comm nor compute in the split.
        assert!(!Category::Queue.is_comm() && !Category::Queue.is_compute());
        assert!(!Category::Place.is_comm() && !Category::Place.is_compute());
        assert_eq!(tl.tracks(), vec![Track::Queue, Track::Admit, Track::Place]);
        let s = tl.summary();
        assert!(s.contains("queue") && s.contains("place"));
        // The Chrome export names the serving lanes.
        assert!(tl.to_chrome_json().contains("serve: queue"));
    }

    #[test]
    fn summary_mentions_phases() {
        let s = sample().summary();
        assert!(s.contains("partial"));
        assert!(s.contains("allgather"));
        assert!(s.contains("wire bytes"));
        assert!(s.contains("comm/compute"));
    }
}
