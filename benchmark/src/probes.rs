//! Per-layer probes of one launch: the public functions `CuccCluster::plan`
//! and `CuccCluster::launch` are built from, called by the harness on the
//! same kernel, launch shape, arguments and node memory, each inside a span
//! named after the per-layer metric it feeds. Calls that mutate run on a
//! clone of the cluster's `SimCluster`, so the program's own state is never
//! touched.

use crate::spans::Tracer;
use cucc::analysis::{certify_program, global_extents, plan_launch};
use cucc::core::{CompiledKernel, CuccCluster, EngineKind, RuntimeConfig, ScheduleDecision};
use cucc::exec::{profile_launch, run_range, run_range_simd, Arg, CertMode, ExecOptions, Program};
use cucc::ir::LaunchConfig;
use std::hint::black_box;

/// One launch as the program is about to execute it.
pub struct LaunchSite<'a> {
    pub cluster: &'a CuccCluster,
    pub ck: &'a CompiledKernel,
    pub launch: LaunchConfig,
    pub args: &'a [Arg],
    pub engine: EngineKind,
}

/// Call every layer under `plan` and `launch` for `site`.
///
/// Parts of `core.plan_s`: `analysis.plan_launch_s`, `exec.profile_s`,
/// `exec.compile_s`, `analysis.certify_s`. Parts of `core.launch_s`:
/// `core.plan_s`, `exec.compile_s`, `analysis.certify_s`, `exec.run_s`,
/// `net.allgather_s`, `cluster.consistent_s`.
pub fn probe_launch(site: &LaunchSite, tr: &mut Tracer) -> Result<(), String> {
    let LaunchSite {
        cluster,
        ck,
        launch,
        args,
        engine,
    } = *site;
    let kernel = &ck.kernel;
    let config = RuntimeConfig::default();
    let node0 = cluster.sim().node(0);
    let err = |e: &dyn std::fmt::Display| format!("probe `{}`: {e}", ck.name());

    black_box(tr.time("analysis.plan_launch_s", || {
        plan_launch(kernel, &ck.analysis.verdict, launch, args, node0)
    }));
    black_box(
        tr.time("exec.profile_s", || {
            profile_launch(kernel, launch, args, node0, config.profile_samples)
        })
        .map_err(|e| err(&e))?,
    );
    let mut prog = tr
        .time("exec.compile_s", || Program::compile(kernel, launch, args))
        .map_err(|e| err(&e))?;
    let ranges = tr.time("analysis.certify_s", || {
        let extents = global_extents(&prog, |b| {
            (b.index() < node0.len()).then(|| node0.size_of(b))
        });
        certify_program(&mut prog, &extents, CertMode::Elide)
    });
    let (certified, total) = ranges.stats();
    tr.count("analysis.certified_accesses", certified as f64);
    tr.count("analysis.total_accesses", total as f64);
    tr.count("exec.lane_segments", prog.lane_plans().len() as f64);
    tr.count(
        "exec.scalar_segments",
        prog.phase_summary().matches("scalar[").count() as f64,
    );

    let sched = tr
        .time("core.plan_s", || cluster.plan(ck, launch, args))
        .map_err(|e| err(&e))?;

    // Execute the schedule the way `launch` does, on cloned node memory.
    let mut sim = cluster.sim().clone();
    let nodes = sim.num_nodes() as u64;
    let blocks = launch.num_blocks();
    match &sched.decision {
        ScheduleDecision::ThreePhase { plan, part, .. } => {
            let opts = ExecOptions {
                engine,
                node_threads: config.node_threads,
                block_parallel: true,
            };
            let pbn = part.partial_blocks_per_node;
            let partial: Vec<_> = (0..nodes).map(|i| i * pbn..(i + 1) * pbn).collect();
            tr.time("exec.run_s", || {
                sim.run_program_parallel(&prog, &partial, &opts)
            })
            .map_err(|e| err(&e))?;
            for region in &plan.buffers {
                let unit = region.unit * part.chunks_per_node;
                let Arg::Buffer(id) = args[region.param.index()] else {
                    return Err(err(&"gathered parameter is not a buffer"));
                };
                if unit == 0 {
                    continue;
                }
                let cost = tr.time("net.allgather_s", || {
                    sim.allgather_region(
                        id,
                        region.base,
                        unit,
                        config.allgather_algo,
                        config.placement,
                    )
                });
                // Every node receives the other nodes' slices.
                tr.count("net.allgather_bytes", (unit * nodes * (nodes - 1)) as f64);
                tr.count("net.sim_allgather_s", cost.time);
                tr.count("net.sim_wire_bytes", cost.wire_bytes as f64);
            }
            let callback: Vec<_> = (0..nodes).map(|_| part.callback_start..blocks).collect();
            tr.time("exec.run_s", || {
                sim.run_program_parallel(&prog, &callback, &opts)
            })
            .map_err(|e| err(&e))?;
        }
        ScheduleDecision::Replicated { .. } => {
            let opts = ExecOptions {
                engine,
                node_threads: config.node_threads,
                block_parallel: false,
            };
            let all: Vec<_> = (0..nodes).map(|_| 0..blocks).collect();
            tr.time("exec.run_s", || {
                sim.run_blocks_parallel_opts(kernel, launch, &all, args, &opts)
            })
            .map_err(|e| err(&e))?;
        }
    }
    for p in kernel.written_global_buffers() {
        if let Arg::Buffer(id) = args[p.index()] {
            if !tr.time("cluster.consistent_s", || sim.consistent(id)) {
                return Err(err(&"probe execution left the nodes inconsistent"));
            }
        }
    }

    // The same grid on one thread: the gap to `exec.run_s` is thread spawn
    // and oversubscription, not block work.
    let pool = sim.node_mut(0);
    let stats = tr
        .time("exec.run_serial_s", || {
            if engine == crate::workloads::engine("simd") {
                run_range_simd(&prog, pool, 0..blocks)
            } else {
                run_range(&prog, pool, 0..blocks)
            }
        })
        .map_err(|e| err(&e))?;
    tr.count("exec.blocks", blocks as f64);
    tr.count("exec.ops", stats.total_ops() as f64);
    tr.count("exec.global_bytes", stats.global_bytes() as f64);
    Ok(())
}

/// Σ buffer bytes × nodes held by `cluster`'s node pools (computed, not
/// measured).
pub fn node_bytes(cluster: &CuccCluster) -> f64 {
    let sim = cluster.sim();
    let pool = sim.node(0);
    let per_node: usize = (0..pool.len())
        .map(|i| pool.size_of(cucc::exec::BufferId(i as u32)))
        .sum();
    (per_node * sim.num_nodes()) as f64
}
