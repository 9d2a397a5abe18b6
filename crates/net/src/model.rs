//! LogGP-style interconnect cost model.

/// Interconnect cost parameters.
///
/// Message cost: `α + o + bytes·β`. `α` is wire/switch latency, `o` is the
/// per-message CPU/NIC software overhead (the term that makes fine-grained
/// PGAS puts expensive), `β` the inverse payload bandwidth. Local memory
/// movement (out-of-place collectives) is charged at `mem_bw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// One-way wire latency in seconds.
    pub alpha: f64,
    /// Per-message software/NIC overhead in seconds.
    pub overhead: f64,
    /// Seconds per payload byte (1 / effective bandwidth).
    pub beta: f64,
    /// Local memory bandwidth in bytes/second (for staging copies).
    pub mem_bw: f64,
    /// Incast/endpoint contention growth for fine-grained point-to-point
    /// traffic: the effective per-message overhead scales by
    /// `1 + p2p_contention·(N−1)` as more peers inject interleaved small
    /// messages (active-message handler and NIC doorbell interference).
    /// Collectives are unaffected — their communication is structured.
    pub p2p_contention: f64,
}

impl NetModel {
    /// 100 Gb/s InfiniBand (EDR/HDR-class) with RDMA: ~1.5 µs latency,
    /// ~0.4 µs per-message overhead, ~11 GB/s effective payload bandwidth
    /// (the paper's clusters, Table 1).
    pub fn infiniband_100g() -> NetModel {
        NetModel {
            alpha: 1.5e-6,
            overhead: 0.4e-6,
            beta: 1.0 / 11.0e9,
            mem_bw: 80.0e9,
            p2p_contention: 0.3,
        }
    }

    /// A 400 Gb/s-class fabric (the paper's §10 outlook).
    pub fn infiniband_400g() -> NetModel {
        NetModel {
            alpha: 1.0e-6,
            overhead: 0.3e-6,
            beta: 1.0 / 44.0e9,
            mem_bw: 80.0e9,
            p2p_contention: 0.3,
        }
    }

    /// Time for one point-to-point message of `bytes` payload.
    #[inline]
    pub fn msg_time(&self, bytes: u64) -> f64 {
        self.alpha + self.overhead + bytes as f64 * self.beta
    }

    /// Time to copy `bytes` within node memory (staging for out-of-place
    /// collectives).
    #[inline]
    pub fn local_copy_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bw
    }

    /// Effective bandwidth of a single large transfer, bytes/second.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        bytes as f64 / self.msg_time(bytes)
    }
}

impl Default for NetModel {
    fn default() -> NetModel {
        NetModel::infiniband_100g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_latency_bound() {
        let m = NetModel::infiniband_100g();
        let t1 = m.msg_time(1);
        let t1k = m.msg_time(1024);
        // A 1-byte and a 1 KiB message cost nearly the same.
        assert!(t1k / t1 < 1.1);
        // A 1 MiB message is bandwidth-bound.
        let t1m = m.msg_time(1 << 20);
        assert!(t1m > 10.0 * t1k);
    }

    #[test]
    fn effective_bandwidth_approaches_peak() {
        let m = NetModel::infiniband_100g();
        let bw = m.effective_bandwidth(1 << 30);
        assert!(bw > 0.99 / m.beta, "large transfers near peak");
        let bw_small = m.effective_bandwidth(8);
        assert!(bw_small < 0.01 / m.beta, "small transfers far from peak");
    }

    #[test]
    fn faster_fabric_is_faster() {
        let a = NetModel::infiniband_100g();
        let b = NetModel::infiniband_400g();
        assert!(b.msg_time(1 << 20) < a.msg_time(1 << 20));
        assert!(b.msg_time(1) < a.msg_time(1));
    }
}
