//! GPU hardware parameters and the roofline timing model.

use cucc_exec::BlockStats;
use cucc_ir::LaunchConfig;

/// Published parameters of a GPU (Table 1's GPU rows).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Resident threads per SM at full occupancy.
    pub threads_per_sm: u32,
    /// Peak single-precision FLOP/s.
    pub peak_flops: f64,
    /// HBM bandwidth, bytes/s.
    pub hbm_bw: f64,
    /// L2 cache, bytes (paper §7.4: V100 6 MB, A100 40 MB).
    pub l2_bytes: u64,
    /// Fixed kernel launch overhead, seconds.
    pub launch_overhead: f64,
    /// Fraction of peak compute a typical benchmark kernel sustains.
    pub compute_efficiency: f64,
    /// Fraction of peak HBM bandwidth real access patterns sustain.
    pub mem_efficiency: f64,
    /// Release year (Table 1).
    pub year: u32,
}

impl GpuSpec {
    /// NVIDIA A100 (2020): 108 SMs, 19.5 TFLOP/s FP32, 1555 GB/s HBM2e.
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA A100".into(),
            sms: 108,
            threads_per_sm: 2048,
            peak_flops: 19.5e12,
            hbm_bw: 1555.0e9,
            l2_bytes: 40_000_000,
            launch_overhead: 5.0e-6,
            compute_efficiency: 0.30,
            mem_efficiency: 0.70,
            year: 2020,
        }
    }

    /// NVIDIA V100 (2017): 80 SMs, 15.7 TFLOP/s FP32, 900 GB/s HBM2.
    pub fn v100() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA V100".into(),
            sms: 80,
            threads_per_sm: 2048,
            peak_flops: 15.7e12,
            hbm_bw: 900.0e9,
            l2_bytes: 6_000_000,
            launch_overhead: 5.0e-6,
            compute_efficiency: 0.30,
            mem_efficiency: 0.70,
            year: 2017,
        }
    }

    /// Occupancy factor for a launch: fraction of the GPU's resident-thread
    /// capacity the grid fills (clamped to 1). Launches with few blocks
    /// underutilize the SMs — the reason EP (512 blocks) and GA (256
    /// blocks) still beat CPU clusters but leave GPU headroom.
    pub fn occupancy(&self, launch: LaunchConfig) -> f64 {
        let capacity = self.sms as f64 * self.threads_per_sm as f64;
        // A block occupies at least one SM slot; tiny blocks still spread
        // across SMs.
        let resident = launch.total_threads() as f64;
        // Floor: even very small grids extract some throughput through
        // instruction-level parallelism within the resident threads.
        (resident / (capacity * 0.25)).clamp(0.05, 1.0)
    }

    /// Roofline execution time of a whole launch from its instrumented
    /// dynamic statistics.
    ///
    /// `stats` must be launch totals (e.g. [`cucc_exec::LaunchProfile::total`]).
    pub fn kernel_time(&self, stats: &BlockStats, launch: LaunchConfig) -> f64 {
        let ops = (stats.int_ops + stats.float_ops) as f64;
        let eff = self.compute_efficiency * self.occupancy(launch);
        let compute = ops / (self.peak_flops * eff.max(1e-3));
        // Shared/local traffic runs at SM-local speeds ~10× HBM.
        let hbm = stats.global_bytes() as f64 / (self.hbm_bw * self.mem_efficiency);
        let smem = (stats.shared_bytes + stats.local_bytes) as f64 / (self.hbm_bw * 10.0);
        compute.max(hbm + smem) + self.launch_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(float_ops: u64, global_bytes: u64) -> BlockStats {
        BlockStats {
            float_ops,
            global_read_bytes: global_bytes / 2,
            global_write_bytes: global_bytes - global_bytes / 2,
            ..BlockStats::default()
        }
    }

    fn big_launch() -> LaunchConfig {
        LaunchConfig::new(4096u32, 256u32)
    }

    #[test]
    fn a100_beats_v100() {
        let s = stats(10_000_000_000, 4_000_000_000);
        let l = big_launch();
        assert!(GpuSpec::a100().kernel_time(&s, l) < GpuSpec::v100().kernel_time(&s, l));
    }

    #[test]
    fn memory_bound_kernel_scales_with_bandwidth() {
        // Transpose-like: no flops, lots of bytes.
        let s = stats(0, 8_000_000_000);
        let l = big_launch();
        let a = GpuSpec::a100();
        let v = GpuSpec::v100();
        let ratio = v.kernel_time(&s, l) / a.kernel_time(&s, l);
        let bw_ratio = a.hbm_bw / v.hbm_bw;
        assert!(
            (ratio - bw_ratio).abs() / bw_ratio < 0.05,
            "{ratio} vs {bw_ratio}"
        );
    }

    #[test]
    fn low_occupancy_hurts() {
        let s = stats(1_000_000_000, 0);
        let small = LaunchConfig::new(64u32, 256u32); // 16k threads
        let large = big_launch(); // 1M threads
        let a = GpuSpec::a100();
        assert!(a.kernel_time(&s, small) > a.kernel_time(&s, large));
        assert!(a.occupancy(small) < 0.5);
        assert!((a.occupancy(large) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn launch_overhead_floors_empty_kernels() {
        let a = GpuSpec::a100();
        let t = a.kernel_time(&BlockStats::default(), LaunchConfig::new(1u32, 1u32));
        assert!(t >= a.launch_overhead);
    }

    #[test]
    fn table1_numbers() {
        let a = GpuSpec::a100();
        assert_eq!(a.sms, 108);
        assert_eq!(a.year, 2020);
        let v = GpuSpec::v100();
        assert_eq!(v.sms, 80);
        assert!((v.peak_flops / 1e12 - 15.7).abs() < 1e-9);
    }
}
