//! CUDA-like streams and events: hazard-aware placement of async work on
//! the simulated clock.
//!
//! A [`StreamSet`] is the host-side bookkeeping behind the cluster's async
//! command-queue API (`stream_create` / `launch_on` / `upload_on` /
//! `download_on` / `event_record` / `stream_wait_event` / `synchronize`).
//! It tracks, purely in simulated time:
//!
//! * **per-stream order** — ops on one stream serialize (each op's
//!   dependency floor includes the stream's last op end);
//! * **cross-stream hazards** — every op declares the buffers it reads and
//!   writes; RAW (read-after-write), WAW (write-after-write) and WAR
//!   (write-after-read) conflicts on a shared buffer add dependency edges
//!   to the conflicting ops' end times, so conflicting work serializes on
//!   the clock no matter which streams it was issued on;
//! * **events** — [`StreamSet::record_event`] snapshots a stream's
//!   position; [`StreamSet::wait_event`] floors another stream behind it.
//!
//! The tracker only decides *when* an op may start. Functional effects
//! (memory writes, collectives) execute eagerly in submission order, which
//! is always legal: dependency edges can only point to earlier-submitted
//! ops (an event must be recorded before it can be waited on, and hazards
//! refer to previously committed buffer accesses), so the submission order
//! is a valid serialization of every schedulable DAG. Hazard-free streams
//! therefore overlap **on the simulated clock** while memory contents stay
//! byte-identical to default-stream serial execution.

use cucc_exec::BufferId;
use std::collections::BTreeMap;

/// Handle to one command stream. Stream 0 is the default stream, which
/// exists from cluster construction; issuing every op on it reproduces the
/// serial layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// The default stream (id 0).
pub const DEFAULT_STREAM: StreamId = StreamId(0);

/// Handle to a recorded event (a point in one stream's timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u32);

/// Last recorded access times of one buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BufferHazard {
    /// End time of the last op that wrote the buffer.
    write_end: f64,
    /// Latest end time over ops that read the buffer since that write.
    read_end: f64,
}

/// Host-side stream/event state plus the RAW/WAW/WAR hazard tracker.
#[derive(Debug, Clone)]
pub struct StreamSet {
    /// Per-stream ready time: the end of the stream's last op, raised
    /// further by `wait_event`.
    streams: Vec<f64>,
    /// Recorded event times.
    events: Vec<f64>,
    /// Per-buffer hazard state.
    hazards: BTreeMap<BufferId, BufferHazard>,
    /// Whether any async op was committed since the last settle.
    pending: bool,
}

impl Default for StreamSet {
    fn default() -> StreamSet {
        StreamSet::new()
    }
}

impl StreamSet {
    /// A fresh set containing only the default stream.
    pub fn new() -> StreamSet {
        StreamSet {
            streams: vec![0.0],
            events: Vec::new(),
            hazards: BTreeMap::new(),
            pending: false,
        }
    }

    /// Create a new stream, ready immediately.
    pub fn create(&mut self) -> StreamId {
        self.streams.push(0.0);
        StreamId(self.streams.len() as u32 - 1)
    }

    /// Number of streams (including the default stream).
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// True if async work was committed since the last
    /// [`StreamSet::settle`] — i.e. lane/hazard state may be ahead of the
    /// serial clock.
    pub fn pending(&self) -> bool {
        self.pending
    }

    fn ready(&self, s: StreamId) -> f64 {
        self.streams[s.0 as usize]
    }

    /// Earliest simulated time an op on `stream` touching `reads`/`writes`
    /// may start: the stream's own position, plus every hazard edge.
    pub fn dep_floor(&self, stream: StreamId, reads: &[BufferId], writes: &[BufferId]) -> f64 {
        let mut t = self.ready(stream);
        for b in reads {
            // RAW: a read must wait for the last write.
            if let Some(h) = self.hazards.get(b) {
                t = t.max(h.write_end);
            }
        }
        for b in writes {
            // WAW and WAR: a write must wait for the last write *and* for
            // every read issued since (it would otherwise clobber the
            // bytes the reader still observes on the simulated clock).
            if let Some(h) = self.hazards.get(b) {
                t = t.max(h.write_end).max(h.read_end);
            }
        }
        t
    }

    /// Commit an op that ends at `end`: advance the stream and record its
    /// buffer accesses for future hazard edges.
    pub fn commit(&mut self, stream: StreamId, reads: &[BufferId], writes: &[BufferId], end: f64) {
        let s = &mut self.streams[stream.0 as usize];
        if end > *s {
            *s = end;
        }
        for b in reads {
            let h = self.hazards.entry(*b).or_default();
            if end > h.read_end {
                h.read_end = end;
            }
        }
        for b in writes {
            let h = self.hazards.entry(*b).or_default();
            if end > h.write_end {
                h.write_end = end;
            }
        }
        self.pending = true;
    }

    /// Record an event at the stream's current position.
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        self.events.push(self.ready(stream));
        EventId(self.events.len() as u32 - 1)
    }

    /// Make every later op on `stream` start no earlier than the event.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        let t = self.events[event.0 as usize];
        let s = &mut self.streams[stream.0 as usize];
        if t > *s {
            *s = t;
        }
    }

    /// Latest op end across all streams.
    pub fn horizon(&self) -> f64 {
        self.streams.iter().fold(0.0f64, |acc, &t| acc.max(t))
    }

    /// Forget all recorded times and events (the simulated clock was
    /// reset). Stream handles stay valid.
    pub fn reset(&mut self) {
        for s in &mut self.streams {
            *s = 0.0;
        }
        self.events.clear();
        self.hazards.clear();
        self.pending = false;
    }

    /// Synchronization point: every stream has drained at time `t`.
    /// Streams stay usable; hazard state is cleared (all accesses are in
    /// the past of `t`).
    pub fn settle(&mut self, t: f64) {
        for s in &mut self.streams {
            if t > *s {
                *s = t;
            }
        }
        self.hazards.clear();
        self.pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BufferId = BufferId(0);
    const B: BufferId = BufferId(1);

    #[test]
    fn same_stream_serializes() {
        let mut ss = StreamSet::new();
        assert_eq!(ss.dep_floor(DEFAULT_STREAM, &[], &[]), 0.0);
        ss.commit(DEFAULT_STREAM, &[], &[A], 2.0);
        // Even a hazard-free op on the same stream waits.
        assert_eq!(ss.dep_floor(DEFAULT_STREAM, &[], &[B]), 2.0);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut ss = StreamSet::new();
        let s1 = ss.create();
        let s2 = ss.create();
        ss.commit(s1, &[], &[A], 5.0);
        // Disjoint buffers on another stream: no dependency.
        assert_eq!(ss.dep_floor(s2, &[B], &[]), 0.0);
        assert_eq!(ss.horizon(), 5.0);
    }

    #[test]
    fn raw_waw_war_edges() {
        let mut ss = StreamSet::new();
        let s1 = ss.create();
        let s2 = ss.create();
        // s1 writes A at [0,3).
        ss.commit(s1, &[], &[A], 3.0);
        // RAW: s2 reading A waits for the write.
        assert_eq!(ss.dep_floor(s2, &[A], &[]), 3.0);
        // WAW: s2 writing A waits too.
        assert_eq!(ss.dep_floor(s2, &[], &[A]), 3.0);
        // s2 reads A until 7.0.
        ss.commit(s2, &[A], &[], 7.0);
        // WAR: a later write to A waits for the read...
        assert_eq!(ss.dep_floor(s1, &[], &[A]), 7.0);
        // ...but another read only waits for the write.
        assert_eq!(ss.dep_floor(s1, &[A], &[]), 3.0);
    }

    #[test]
    fn events_order_streams() {
        let mut ss = StreamSet::new();
        let s1 = ss.create();
        let s2 = ss.create();
        ss.commit(s1, &[], &[A], 4.0);
        let ev = ss.record_event(s1);
        ss.commit(s1, &[], &[A], 9.0);
        // s2 waits on the event: floored at 4.0, not at s1's later 9.0.
        ss.wait_event(s2, ev);
        assert_eq!(ss.dep_floor(s2, &[B], &[]), 4.0);
        // Waiting never moves a stream backward.
        ss.commit(s2, &[], &[B], 6.0);
        ss.wait_event(s2, ev);
        assert_eq!(ss.dep_floor(s2, &[], &[]), 6.0);
    }

    #[test]
    fn settle_clears_hazards_and_floors_streams() {
        let mut ss = StreamSet::new();
        let s1 = ss.create();
        ss.commit(s1, &[], &[A], 3.0);
        assert!(ss.pending());
        ss.settle(5.0);
        assert!(!ss.pending());
        assert_eq!(ss.dep_floor(DEFAULT_STREAM, &[A], &[A]), 5.0);
        assert_eq!(ss.dep_floor(s1, &[], &[]), 5.0);
        assert_eq!(ss.horizon(), 5.0);
    }
}
