//! Cluster-wide batch throughput (the paper's §7.4.2, Figure 12).
//!
//! Datacenters hold far more CPU nodes than GPUs (Lonestar6: 560 CPU nodes
//! vs 16 GPU nodes). For batch workloads, GPU-to-CPU migration lets the CPU
//! fleet process jobs *in addition to* the GPUs: throughput is measured in
//! kernels completed per second across the whole machine.

/// A datacenter's node inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datacenter {
    /// CPU nodes available for migrated execution.
    pub cpu_nodes: u32,
    /// GPU nodes.
    pub gpu_nodes: u32,
    /// GPUs per GPU node.
    pub gpus_per_node: u32,
}

impl Datacenter {
    /// TACC Lonestar6: 560 CPU nodes (dual EPYC 7763 — Thread-Focused
    /// class), 16 GPU nodes with 3× A100 each.
    pub fn lonestar6() -> Datacenter {
        Datacenter {
            cpu_nodes: 560,
            gpu_nodes: 16,
            gpus_per_node: 3,
        }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> u32 {
        self.gpu_nodes * self.gpus_per_node
    }

    /// Batch throughput (kernels/second) using GPUs only.
    pub fn gpu_throughput(&self, gpu_kernel_time: f64) -> f64 {
        self.total_gpus() as f64 / gpu_kernel_time
    }

    /// Batch throughput of the CPU fleet running the migrated program on
    /// independent sub-clusters of `cluster_size` nodes, each completing a
    /// kernel in `cpu_kernel_time`.
    pub fn cpu_throughput(&self, cluster_size: u32, cpu_kernel_time: f64) -> f64 {
        assert!(cluster_size >= 1);
        let clusters = self.cpu_nodes / cluster_size;
        clusters as f64 / cpu_kernel_time
    }

    /// Combined GPUs + CPUs throughput.
    pub fn combined_throughput(
        &self,
        gpu_kernel_time: f64,
        cluster_size: u32,
        cpu_kernel_time: f64,
    ) -> f64 {
        self.gpu_throughput(gpu_kernel_time) + self.cpu_throughput(cluster_size, cpu_kernel_time)
    }

    /// Figure 12's headline ratio: combined over GPU-only.
    pub fn improvement(
        &self,
        gpu_kernel_time: f64,
        cluster_size: u32,
        cpu_kernel_time: f64,
    ) -> f64 {
        self.combined_throughput(gpu_kernel_time, cluster_size, cpu_kernel_time)
            / self.gpu_throughput(gpu_kernel_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lonestar6_inventory() {
        let dc = Datacenter::lonestar6();
        assert_eq!(dc.cpu_nodes, 560);
        assert_eq!(dc.total_gpus(), 48);
    }

    #[test]
    fn cpu_fleet_multiplies_throughput() {
        let dc = Datacenter::lonestar6();
        // A kernel taking 1 s on a GPU and 2 s on a 4-node CPU cluster:
        // GPUs: 48/s; CPUs: 140 clusters × 0.5/s = 70/s → 2.46× combined.
        let imp = dc.improvement(1.0, 4, 2.0);
        assert!((imp - (48.0 + 70.0) / 48.0).abs() < 1e-9);
        assert!(imp > 2.0);
    }

    #[test]
    fn slower_cpu_still_adds() {
        let dc = Datacenter::lonestar6();
        let imp = dc.improvement(1.0, 8, 10.0);
        assert!(imp > 1.0);
    }

    #[test]
    fn cluster_size_divides_fleet() {
        let dc = Datacenter::lonestar6();
        // 560 / 32 = 17 clusters (integer division).
        assert_eq!(dc.cpu_throughput(32, 1.0), 17.0);
        assert_eq!(dc.cpu_throughput(1, 1.0), 560.0);
    }
}
