//! Machine specifications — the paper's Table 1.
//!
//! | Name           | Nodes | Single node       | Year | Cores | TFLOPs | Net |
//! |----------------|-------|-------------------|------|-------|--------|-----|
//! | SIMD-Focused   | 32    | 2× Intel 6226     | 2019 | 24    | 4.15   | 100G IB |
//! | Thread-Focused | 4     | 2× AMD 7713       | 2021 | 128   | 8.19   | 100G IB |
//!
//! The CPU specs below reproduce those peak numbers from first principles
//! (cores × frequency × SIMD lanes × 2 FMA pipes × 2 flops/FMA).

use cucc_net::NetModel;

/// One CPU node's capabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Usable cores per node (both sockets).
    pub cores: u32,
    /// Sustained all-core frequency in GHz.
    pub freq_ghz: f64,
    /// Single-precision SIMD lanes per FMA pipe (AVX-512 = 16, AVX2 = 8).
    pub simd_f32_lanes: u32,
    /// FMA pipes per core.
    pub fma_pipes: u32,
    /// Scalar instructions per cycle a migrated-GPU-thread loop sustains.
    pub scalar_ipc: f64,
    /// Node memory bandwidth, bytes/s (STREAM-class peak).
    pub mem_bw: f64,
    /// Last-level cache per node, bytes (paper §7.4: SIMD 19.25 MB,
    /// Thread 256 MB per socket).
    pub llc_bytes: u64,
    /// Aggregate LLC bandwidth, bytes/s — kernels whose per-node working
    /// set fits the LLC stream from cache, the effect §7.4 credits for
    /// Transpose beating the GPUs on the large-cache EPYC node.
    pub llc_bw: f64,
    /// Fraction of STREAM bandwidth that CuPBoP-style transformed code
    /// sustains on plain streaming access (thread-loop overheads, no
    /// non-temporal stores).
    pub dram_eff_streaming: f64,
    /// Fraction sustained by kernels that stage data through emulated
    /// shared-memory tiles (transpose-like reshaping): the scratchpad
    /// round-trips and tile-strided lines cut effective DRAM throughput
    /// hard — the reason the paper's single-CPU Transpose is slow enough
    /// for cluster scaling to pay (§7.2).
    pub dram_eff_staged: f64,
    /// Whether SIMD execution is enabled (the §8.2 ablation disables it).
    pub simd_enabled: bool,
}

impl CpuSpec {
    /// Dual Intel Xeon Gold 6226 (the SIMD-Focused node).
    pub fn xeon_gold_6226_dual() -> CpuSpec {
        CpuSpec {
            name: "2x Intel Xeon Gold 6226".into(),
            cores: 24,
            freq_ghz: 2.7,
            simd_f32_lanes: 16, // AVX-512
            fma_pipes: 2,
            scalar_ipc: 1.4,
            mem_bw: 140.0e9,
            llc_bytes: 2 * 19_250_000,
            llc_bw: 350.0e9,
            dram_eff_streaming: 0.5,
            dram_eff_staged: 0.05,
            simd_enabled: true,
        }
    }

    /// Dual AMD EPYC 7713 (the Thread-Focused node).
    pub fn epyc_7713_dual() -> CpuSpec {
        CpuSpec {
            name: "2x AMD EPYC 7713".into(),
            cores: 128,
            freq_ghz: 2.0,
            simd_f32_lanes: 8, // AVX2 datapath
            fma_pipes: 2,
            scalar_ipc: 2.0,
            mem_bw: 380.0e9,
            llc_bytes: 2 * 256_000_000,
            llc_bw: 1000.0e9,
            dram_eff_streaming: 0.5,
            dram_eff_staged: 0.05,
            simd_enabled: true,
        }
    }

    /// Effective memory bandwidth for a launch slice touching
    /// `working_set` bytes on this node. LLC-resident working sets stream
    /// from cache; DRAM-resident ones pay the transformed-code efficiency
    /// factor (streaming vs shared-memory-staged access patterns).
    pub fn effective_mem_bw(&self, working_set: u64, staged: bool) -> f64 {
        if working_set <= self.llc_bytes {
            self.llc_bw
        } else if staged {
            self.mem_bw * self.dram_eff_staged
        } else {
            self.mem_bw * self.dram_eff_streaming
        }
    }

    /// Theoretical peak single-precision FLOP/s of the node.
    pub fn peak_flops(&self) -> f64 {
        self.cores as f64
            * self.freq_ghz
            * 1e9
            * self.simd_f32_lanes as f64
            * self.fma_pipes as f64
            * 2.0 // two flops per FMA
    }

    /// Scalar operation throughput of one core (ops/s).
    pub fn scalar_ops_per_sec(&self) -> f64 {
        self.freq_ghz * 1e9 * self.scalar_ipc
    }

    /// Cap the usable cores (the §8.2 fair comparison limits the EPYC node
    /// to 64 cores).
    pub fn with_cores(mut self, cores: u32) -> CpuSpec {
        self.cores = cores;
        self
    }

    /// Disable SIMD execution (the §8.2 ablation).
    pub fn without_simd(mut self) -> CpuSpec {
        self.simd_enabled = false;
        self
    }
}

/// A whole CPU cluster: homogeneous nodes plus an interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name as used in the paper.
    pub name: String,
    /// Number of nodes available.
    pub nodes: u32,
    /// Per-node CPU spec.
    pub cpu: CpuSpec,
    /// Interconnect model.
    pub net: NetModel,
    /// Multi-node load-imbalance/OS-jitter inefficiency: distributed phase
    /// makespans scale by `1 + jitter·(N−1)` (stragglers keep real strong
    /// scaling below ideal at large node counts).
    pub jitter: f64,
    /// Hardware generation (Table 1).
    pub year: u32,
}

impl ClusterSpec {
    /// The 32-node Intel cluster.
    pub fn simd_focused() -> ClusterSpec {
        ClusterSpec {
            name: "SIMD-Focused".into(),
            nodes: 32,
            cpu: CpuSpec::xeon_gold_6226_dual(),
            net: NetModel::infiniband_100g(),
            jitter: 0.01,
            year: 2019,
        }
    }

    /// The 4-node AMD cluster.
    pub fn thread_focused() -> ClusterSpec {
        ClusterSpec {
            name: "Thread-Focused".into(),
            nodes: 4,
            cpu: CpuSpec::epyc_7713_dual(),
            net: NetModel::infiniband_100g(),
            jitter: 0.01,
            year: 2021,
        }
    }

    /// Same cluster with a different node count (scalability sweeps).
    pub fn with_nodes(mut self, nodes: u32) -> ClusterSpec {
        self.nodes = nodes;
        self
    }

    /// Aggregate peak FLOP/s across all nodes.
    pub fn aggregate_flops(&self) -> f64 {
        self.nodes as f64 * self.cpu.peak_flops()
    }
}

/// Pretty-print Table 1 (consumed by the `table1` bench target).
pub fn table1_rows() -> Vec<(String, u32, String, u32, u32, f64, String)> {
    let s = ClusterSpec::simd_focused();
    let t = ClusterSpec::thread_focused();
    vec![
        (
            s.name.clone(),
            s.nodes,
            s.cpu.name.clone(),
            s.year,
            s.cpu.cores,
            s.cpu.peak_flops() / 1e12,
            "100 Gbps IB".into(),
        ),
        (
            t.name.clone(),
            t.nodes,
            t.cpu.name.clone(),
            t.year,
            t.cpu.cores,
            t.cpu.peak_flops() / 1e12,
            "100 Gbps IB".into(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_flops_match_table1() {
        // Table 1: SIMD-Focused 4.15 TF, Thread-Focused 8.19 TF per node.
        let xeon = CpuSpec::xeon_gold_6226_dual();
        assert!(
            (xeon.peak_flops() / 1e12 - 4.15).abs() < 0.01,
            "{}",
            xeon.peak_flops()
        );
        let epyc = CpuSpec::epyc_7713_dual();
        assert!(
            (epyc.peak_flops() / 1e12 - 8.19).abs() < 0.01,
            "{}",
            epyc.peak_flops()
        );
    }

    #[test]
    fn sec82_core_cap_equalizes_capacity() {
        // §8.2: capping the EPYC node at 64 cores gives 4.096 TF vs the
        // Xeon's 4.147 TF.
        let capped = CpuSpec::epyc_7713_dual().with_cores(64);
        assert!((capped.peak_flops() / 1e12 - 4.096).abs() < 0.01);
    }

    #[test]
    fn cluster_presets() {
        let s = ClusterSpec::simd_focused();
        assert_eq!(s.nodes, 32);
        assert_eq!(s.cpu.cores, 24);
        let t = ClusterSpec::thread_focused();
        assert_eq!(t.nodes, 4);
        assert_eq!(t.cpu.cores, 128);
        assert!(t.aggregate_flops() > s.cpu.peak_flops());
    }

    #[test]
    fn table1_has_both_clusters() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "SIMD-Focused");
        assert_eq!(rows[1].4, 128);
    }

    #[test]
    fn ablation_flags() {
        let c = CpuSpec::xeon_gold_6226_dual().without_simd();
        assert!(!c.simd_enabled);
        let capped = CpuSpec::epyc_7713_dual().with_cores(64);
        assert_eq!(capped.cores, 64);
    }
}
