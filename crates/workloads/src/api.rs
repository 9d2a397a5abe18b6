//! Run one benchmark instance on any [`ProgramBackend`]: the GPU reference
//! device, the CuCC cluster or the PGAS baseline.

use crate::perf::Benchmark;
use cucc_core::{MigrateError, ProgramBackend};
use cucc_exec::{Arg, BufferId};
use cucc_ir::{Kernel, Param};

/// Allocate and upload a benchmark's buffers on a device and assemble the
/// full argument list in kernel-parameter order. Returns `(args, buffer
/// handles in buffer-param order)`, or the first transfer the device
/// refused.
pub fn setup_args(
    bench: &dyn Benchmark,
    kernel: &Kernel,
    dev: &mut impl ProgramBackend,
) -> Result<(Vec<Arg>, Vec<BufferId>), MigrateError> {
    let host = bench.buffers();
    let scalars = bench.scalars();
    let mut args = Vec::with_capacity(kernel.params.len());
    let mut handles = Vec::new();
    let (mut bi, mut si) = (0usize, 0usize);
    for p in &kernel.params {
        match p {
            Param::Buffer { .. } => {
                let data = &host[bi];
                bi += 1;
                let id = dev.prog_alloc(data.len());
                dev.prog_h2d(id, data)?;
                handles.push(id);
                args.push(Arg::Buffer(id));
            }
            Param::Scalar { .. } => {
                args.push(Arg::Scalar(scalars[si]));
                si += 1;
            }
        }
    }
    assert_eq!(bi, host.len(), "unused host buffers");
    assert_eq!(si, scalars.len(), "unused scalar args");
    Ok((args, handles))
}

/// After execution, compare every buffer against the benchmark's reference.
/// A refused read-back is reported like a mismatch.
pub fn run_reference_check(
    bench: &dyn Benchmark,
    dev: &mut impl ProgramBackend,
    handles: &[BufferId],
) -> Result<(), String> {
    let reference = bench.reference();
    assert_eq!(reference.len(), handles.len());
    for (i, (id, want)) in handles.iter().zip(&reference).enumerate() {
        dev.prog_d2h(*id)
            .map_err(|e| e.to_string())
            .and_then(|got| {
                crate::buffers_close(&got, want, bench.compare_elem(), bench.tolerance())
            })
            .map_err(|e| format!("{}: buffer {i}: {e}", bench.name()))?;
    }
    Ok(())
}
