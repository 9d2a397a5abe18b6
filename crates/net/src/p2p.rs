//! Point-to-point message accounting for fine-grained remote access.
//!
//! The PGAS baseline (paper §3.1, Listing 3) turns every remote element
//! write into an asynchronous one-sided `put`. A [`P2pTracker`] accumulates
//! those messages per node pair and, at a synchronization point, converts
//! them into elapsed time:
//!
//! * a node's **injection** is serialized on its own NIC: `Σ (o + bytes·β)`
//!   over the messages it sends;
//! * a node's **reception** is serialized likewise (active-message handler
//!   occupancy);
//! * asynchronous overlap lets wire latency pipeline, so one `α` is paid per
//!   dependency chain, not per message;
//! * completion is gated by the busiest node (sender or receiver side).
//!
//! This is the standard async one-sided model (GASNet-EX-style) and it
//! reproduces the paper's Figure 4: a million 1-byte puts cost a million
//! `o`s no matter how the cluster scales.

use crate::model::NetModel;

/// Per-node send/receive accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct P2pStats {
    /// Messages sent by each node.
    pub sent_msgs: Vec<u64>,
    /// Payload bytes sent by each node.
    pub sent_bytes: Vec<u64>,
    /// Messages received by each node.
    pub recv_msgs: Vec<u64>,
    /// Payload bytes received by each node.
    pub recv_bytes: Vec<u64>,
}

impl P2pStats {
    /// Total messages on the wire.
    pub fn total_messages(&self) -> u64 {
        self.sent_msgs.iter().sum()
    }

    /// Total payload bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }
}

/// Accumulates point-to-point traffic between `n` nodes and prices it.
#[derive(Debug, Clone, PartialEq)]
pub struct P2pTracker {
    model: NetModel,
    stats: P2pStats,
}

impl P2pTracker {
    /// New tracker for an `n`-node cluster.
    pub fn new(n: usize, model: NetModel) -> P2pTracker {
        P2pTracker {
            model,
            stats: P2pStats {
                sent_msgs: vec![0; n],
                sent_bytes: vec![0; n],
                recv_msgs: vec![0; n],
                recv_bytes: vec![0; n],
            },
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.stats.sent_msgs.len()
    }

    /// Record one message of `bytes` payload from `src` to `dst`.
    /// Node-local accesses (`src == dst`) are free and not recorded.
    pub fn put(&mut self, src: usize, dst: usize, bytes: u64) {
        if src == dst {
            return;
        }
        self.stats.sent_msgs[src] += 1;
        self.stats.sent_bytes[src] += bytes;
        self.stats.recv_msgs[dst] += 1;
        self.stats.recv_bytes[dst] += bytes;
    }

    /// Record `count` messages of `bytes` each (bulk shortcut).
    pub fn put_many(&mut self, src: usize, dst: usize, bytes: u64, count: u64) {
        if src == dst || count == 0 {
            return;
        }
        self.stats.sent_msgs[src] += count;
        self.stats.sent_bytes[src] += bytes * count;
        self.stats.recv_msgs[dst] += count;
        self.stats.recv_bytes[dst] += bytes * count;
    }

    /// Traffic recorded so far.
    pub fn stats(&self) -> &P2pStats {
        &self.stats
    }

    /// Elapsed time for all recorded traffic to complete and quiesce
    /// (the `pgas::barrier()` at the end of a distributed kernel).
    ///
    /// Per-message software overhead grows with the number of communicating
    /// peers (`NetModel::p2p_contention`): with many senders injecting
    /// interleaved small messages, handler and NIC-endpoint interference
    /// keeps fine-grained PGAS from scaling — the paper's Figure 4.
    pub fn completion_time(&self) -> f64 {
        let m = &self.model;
        let n = self.nodes();
        let o = m.overhead * (1.0 + m.p2p_contention * (n.saturating_sub(1)) as f64);
        let mut worst: f64 = 0.0;
        for i in 0..n {
            let send =
                self.stats.sent_msgs[i] as f64 * o + self.stats.sent_bytes[i] as f64 * m.beta;
            let recv =
                self.stats.recv_msgs[i] as f64 * o + self.stats.recv_bytes[i] as f64 * m.beta;
            worst = worst.max(send).max(recv);
        }
        if worst == 0.0 {
            0.0
        } else {
            // One pipelined wire latency to drain the last message.
            worst + m.alpha
        }
    }

    /// Reset counters (e.g. between kernel launches).
    pub fn reset(&mut self) {
        let n = self.nodes();
        self.stats = P2pStats {
            sent_msgs: vec![0; n],
            sent_bytes: vec![0; n],
            recv_msgs: vec![0; n],
            recv_bytes: vec![0; n],
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_puts_are_free() {
        let mut t = P2pTracker::new(4, NetModel::infiniband_100g());
        t.put(2, 2, 100);
        assert_eq!(t.stats().total_messages(), 0);
        assert_eq!(t.completion_time(), 0.0);
    }

    #[test]
    fn overhead_dominates_small_puts() {
        let m = NetModel::infiniband_100g();
        let mut t = P2pTracker::new(2, m);
        t.put_many(0, 1, 1, 1_000_000);
        let time = t.completion_time();
        // A million 1-byte puts cost about a million overheads.
        assert!(time > 0.9 * 1e6 * m.overhead);
        // One bulk message with the same payload is thousands of times faster.
        let bulk = m.msg_time(1_000_000);
        assert!(time / bulk > 100.0, "time={time} bulk={bulk}");
    }

    #[test]
    fn completion_gated_by_busiest_node() {
        let m = NetModel::infiniband_100g();
        let mut skew = P2pTracker::new(4, m);
        // Node 3 receives everything.
        for src in 0..3 {
            skew.put_many(src, 3, 8, 1000);
        }
        let mut spread = P2pTracker::new(4, m);
        // Same traffic volume spread across receivers.
        spread.put_many(0, 1, 8, 1000);
        spread.put_many(1, 2, 8, 1000);
        spread.put_many(2, 3, 8, 1000);
        assert!(skew.completion_time() > spread.completion_time());
    }

    #[test]
    fn bulk_equals_loop() {
        let m = NetModel::infiniband_100g();
        let mut a = P2pTracker::new(3, m);
        let mut b = P2pTracker::new(3, m);
        for _ in 0..50 {
            a.put(0, 2, 16);
        }
        b.put_many(0, 2, 16, 50);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.completion_time(), b.completion_time());
    }

    #[test]
    fn reset_clears() {
        let mut t = P2pTracker::new(2, NetModel::infiniband_100g());
        t.put(0, 1, 8);
        t.reset();
        assert_eq!(t.stats().total_messages(), 0);
    }
}
