//! A functional CUDA-like GPU device.
//!
//! [`GpuDevice`] exposes the `cudaMalloc`/`cudaMemcpy`/launch surface the
//! paper's original GPU programs use. Launches execute the interpreter's
//! exact semantics over the device pool (blocks in ascending order — a
//! valid GPU execution, since CUDA guarantees no inter-block ordering) and
//! return the roofline-simulated time, so the same object serves as both
//! the **correctness oracle** and the **GPU performance baseline**.

use crate::spec::GpuSpec;
use cucc_core::{check_transfer, CompiledKernel, MigrateError, ProgramBackend};
use cucc_exec::{execute_launch, profile_launch, Arg, BufferId, ExecError, MemPool};
use cucc_ir::{Kernel, LaunchConfig};

/// A simulated GPU with its own device memory.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    /// Hardware description used for timing.
    pub spec: GpuSpec,
    pool: MemPool,
    elapsed: f64,
}

/// Result of one kernel launch on the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuLaunchResult {
    /// Simulated kernel execution time in seconds.
    pub time: f64,
    /// Dynamic statistics of the whole launch.
    pub stats: cucc_exec::BlockStats,
}

impl GpuDevice {
    /// New device with empty memory.
    pub fn new(spec: GpuSpec) -> GpuDevice {
        GpuDevice {
            spec,
            pool: MemPool::new(),
            elapsed: 0.0,
        }
    }

    /// `cudaMalloc`: allocate zeroed device memory.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        self.pool.alloc(bytes)
    }

    /// `cudaMemcpy` host→device.
    pub fn h2d(&mut self, buf: BufferId, data: &[u8]) {
        self.pool.write_all(buf, data);
    }

    /// `cudaMemcpy` device→host.
    pub fn d2h(&self, buf: BufferId) -> Vec<u8> {
        self.pool.bytes(buf).to_vec()
    }

    /// Direct access to device memory (for typed helpers).
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Mutable access to device memory.
    pub fn pool_mut(&mut self) -> &mut MemPool {
        &mut self.pool
    }

    /// Launch a kernel: functional execution of every block over device
    /// memory, timed with the roofline model. Large launches are timed via
    /// sampled profiles but executed in full.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<GpuLaunchResult, ExecError> {
        let stats = execute_launch(kernel, launch, args, &mut self.pool)?;
        let time = self.spec.kernel_time(&stats, launch);
        self.elapsed += time;
        Ok(GpuLaunchResult { time, stats })
    }

    /// Time a launch **without** executing it functionally (sampled
    /// profile). Used when only the performance number is needed.
    pub fn time_only(
        &self,
        kernel: &Kernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, ExecError> {
        let prof = profile_launch(kernel, launch, args, &self.pool, 3)?;
        Ok(self.spec.kernel_time(&prof.total, launch))
    }

    /// Total simulated time of all launches so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }
}

impl ProgramBackend for GpuDevice {
    fn prog_alloc(&mut self, bytes: usize) -> BufferId {
        self.alloc(bytes)
    }
    fn prog_h2d(&mut self, buf: BufferId, data: &[u8]) -> Result<(), MigrateError> {
        check_transfer(&self.pool, buf, Some(data.len()))?;
        self.h2d(buf, data);
        Ok(())
    }
    fn prog_d2h(&mut self, buf: BufferId) -> Result<Vec<u8>, MigrateError> {
        check_transfer(&self.pool, buf, None)?;
        Ok(self.d2h(buf))
    }
    fn prog_launch(
        &mut self,
        kernel: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, MigrateError> {
        Ok(self.launch(&kernel.kernel, launch, args)?.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    #[test]
    fn end_to_end_vector_copy() {
        let k = parse_kernel(
            "__global__ void vec_copy(char* src, char* dest, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) dest[id] = src[id];
            }",
        )
        .unwrap();
        let mut gpu = GpuDevice::new(GpuSpec::a100());
        let n = 1200;
        let src = gpu.alloc(n);
        let dest = gpu.alloc(n);
        let data: Vec<u8> = (0..n).map(|i| (i * 7 % 255) as u8).collect();
        gpu.h2d(src, &data);
        let r = gpu
            .launch(
                &k,
                LaunchConfig::cover1(n as u64, 256),
                &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)],
            )
            .unwrap();
        assert_eq!(gpu.d2h(dest), data);
        assert!(r.time > 0.0);
        assert_eq!(gpu.elapsed(), r.time);
    }

    #[test]
    fn time_only_close_to_full_run() {
        let k = parse_kernel(
            "__global__ void sq(float* out, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) out[id] = (float)(id) * 0.5f;
            }",
        )
        .unwrap();
        let n: u64 = 100_000;
        let mut gpu = GpuDevice::new(GpuSpec::v100());
        let out = gpu.alloc(n as usize * 4);
        let args = [Arg::Buffer(out), Arg::int(n as i64)];
        let launch = LaunchConfig::cover1(n, 256);
        let quick = gpu.time_only(&k, launch, &args).unwrap();
        let full = gpu.launch(&k, launch, &args).unwrap();
        let rel = (quick - full.time).abs() / full.time;
        assert!(rel < 0.02, "sampled {quick} vs full {}", full.time);
    }
}
