//! `serve_stream`: the multi-tenant path. One op builds a `JobServer`
//! (4 nodes, fair policy, queue depth 8) and runs one synthetic stream of
//! 72 jobs from 8 tenants arriving 1 µs apart on average; ops cycle over
//! ten streams derived from `--seed`. Admission, fair scheduling, the
//! `PlacementEngine`, the serve-local schedule cache and many tiny launches
//! are what it costs.

use super::{cluster_spec, fingerprint, Exact, Workload};
use crate::inputs::{f32_bytes, fnv1a, Rng, FNV_BASIS};
use crate::spans::Tracer;
use cucc::analysis::{certify_program, global_extents};
use cucc::core::schedule::plan_schedule;
use cucc::core::{
    compile_source, synthetic_stream, CompiledKernel, CuccCluster, EngineKind, JobServer, JobSpec,
    RunOptions, RuntimeConfig, ServeConfig, ServePolicy, ServeReport,
};
use cucc::exec::{Arg, BufferId, CertMode, Program};
use cucc::ir::LaunchConfig;
use cucc::slurm::PlacementEngine;
use cucc::trace::Category;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

const NODES: u32 = 4;
const JOBS: usize = 72;
const TENANTS: u32 = 8;
const STREAMS: u64 = 10;
const MEAN_GAP: f64 = 1e-6;
const QUEUE_DEPTH: usize = 8;
/// Threads per block of every serving launch (`JobSpec::launch`).
const BLOCK: u32 = 128;

fn config() -> ServeConfig {
    ServeConfig {
        policy: ServePolicy::Fair,
        queue_depth: QUEUE_DEPTH,
        options: RunOptions::default(),
    }
}

fn launch_of(job: &JobSpec) -> LaunchConfig {
    LaunchConfig::cover1(job.elems as u64, BLOCK)
}

/// A tenant's `x` buffer as the server initialises it.
fn tenant_x(tenant: u32, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| (i % 97) as f32 * 0.03125 + tenant as f32)
        .collect()
}

/// The jobs of `stream` that admission control let in.
fn admitted_jobs<'a>(
    stream: &'a [JobSpec],
    admitted: &'a [bool],
) -> impl Iterator<Item = &'a JobSpec> {
    stream
        .iter()
        .zip(admitted)
        .filter(|(_, &let_in)| let_in)
        .map(|(job, _)| job)
}

/// What the op leaves behind for `verify` and `probe`.
struct Served {
    report: ServeReport,
    /// Per job of the arrival-ordered stream: was it admitted?
    admitted: Vec<bool>,
    wire_bytes: u64,
    spans: usize,
}

pub struct ServeStream {
    /// The ten arrival streams, each sorted by arrival time.
    streams: Vec<Vec<JobSpec>>,
    served: Option<Served>,
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        let mut rng = Rng::new(seed, 6);
        let streams = (0..STREAMS)
            .map(|_| {
                let mut jobs = synthetic_stream(JOBS, TENANTS, rng.next_u64() | 1, MEAN_GAP);
                jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
                jobs
            })
            .collect();
        ServeStream {
            streams,
            served: None,
        }
    }

    /// Per-tenant memory digests of the admitted jobs, computed in pure
    /// Rust: each tenant's jobs run in arrival order on its own `(x, y)`
    /// pair, `y` starting at zero; floats are carried as f64 and rounded at
    /// stores, and the scalar `a` is declared `float`.
    fn reference_digests(stream: &[JobSpec], admitted: &[bool]) -> BTreeMap<u32, u64> {
        let mut memory: BTreeMap<u32, (Vec<f32>, Vec<f32>)> = BTreeMap::new();
        for job in admitted_jobs(stream, admitted) {
            let (x, y) = memory
                .entry(job.tenant)
                .or_insert_with(|| (tenant_x(job.tenant, job.elems), vec![0f32; job.elems]));
            let a = job.scale as f32 as f64;
            for (xv, yv) in x.iter().zip(y.iter_mut()) {
                *yv = if job.kernel % 2 == 0 {
                    (a * *xv as f64 + *yv as f64) as f32
                } else {
                    (a * *yv as f64 + *xv as f64) as f32
                };
            }
        }
        memory
            .into_iter()
            .map(|(tenant, (x, y))| {
                let h = fnv1a(fnv1a(FNV_BASIS, &f32_bytes(&x)), &f32_bytes(&y));
                (tenant, h)
            })
            .collect()
    }
}

impl Workload for ServeStream {
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        // Nothing is resident: every op builds its own server.
        Ok(())
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let stream = &self.streams[(i % STREAMS) as usize];
        let mut server = tr
            .time("core.serve.new_s", || {
                JobServer::new(cluster_spec(NODES), config())
            })
            .map_err(|e| e.to_string())?;
        let report = tr
            .time("core.serve.run_s", || server.run(stream))
            .map_err(|e| e.to_string())?;
        // One admission span per submitted job, in arrival order.
        let admitted: Vec<bool> = server
            .timeline()
            .spans()
            .iter()
            .filter(|s| s.category == Category::Admit)
            .map(|s| !s.name.starts_with("job reject"))
            .collect();
        self.served = Some(Served {
            report,
            admitted,
            wire_bytes: server.cluster().wire_bytes(),
            spans: server.timeline().spans().len() + server.cluster().timeline().spans().len(),
        });
        Ok(())
    }

    fn verify(&mut self, i: u64) -> Result<Exact, String> {
        let stream = &self.streams[(i % STREAMS) as usize];
        let served = self.served.as_ref().expect("verify follows op");
        let r = &served.report;
        if served.admitted.len() != stream.len()
            || served.admitted.iter().filter(|&&a| a).count() != r.admitted
        {
            return Err("admission spans do not account for every submitted job".into());
        }
        if r.completed != r.admitted || r.submitted != stream.len() {
            return Err(format!(
                "stream did not drain: {} submitted, {} admitted, {} completed",
                r.submitted, r.admitted, r.completed
            ));
        }
        if r.digests != ServeStream::reference_digests(stream, &served.admitted) {
            return Err("per-tenant digests differ from the pure-Rust reference".into());
        }
        Ok(Exact {
            sim_time: r.makespan,
            sim_wire: served.wire_bytes,
            fingerprint: fingerprint(r),
        })
    }

    fn probe(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let stream = &self.streams[(i % STREAMS) as usize];
        let served = self.served.as_ref().expect("probe follows op");
        let r = &served.report;
        tr.count("core.serve.admitted", r.admitted as f64);
        tr.count("core.serve.rejected", r.rejected as f64);
        tr.count("core.serve.completed", r.completed as f64);
        tr.count("core.serve.cache_hit_rate", r.cache.hit_rate());
        tr.count("trace.spans_per_op", served.spans as f64);

        let jobs: Vec<&JobSpec> = admitted_jobs(stream, &served.admitted).collect();
        let kernels: Vec<CompiledKernel> = JobServer::KERNELS
            .iter()
            .map(|src| compile_source(src).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;

        // The execution backend alone: the admitted jobs as plain uploads
        // and launches on a bare cluster, no queue, no placement.
        let mut cluster = CuccCluster::with_options(cluster_spec(NODES), RunOptions::default());
        let mut buffers: BTreeMap<(u32, usize), (BufferId, BufferId)> = BTreeMap::new();
        let args_of = |job: &JobSpec, (x, y): (BufferId, BufferId)| {
            [
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(job.scale),
                Arg::int(job.elems as i64),
            ]
        };
        tr.open("core.serve.backend_s");
        for job in &jobs {
            let key = (job.tenant, job.elems);
            if let Entry::Vacant(slot) = buffers.entry(key) {
                let x = cluster.alloc(job.elems * 4);
                let y = cluster.alloc(job.elems * 4);
                cluster
                    .upload(x, &tenant_x(job.tenant, job.elems))
                    .map_err(|e| e.to_string())?;
                slot.insert((x, y));
            }
            let ck = &kernels[job.kernel % kernels.len()];
            cluster
                .launch(ck, launch_of(job), &args_of(job, buffers[&key]))
                .map_err(|e| e.to_string())?;
        }
        tr.close();

        // Per-launch compile and certification on the same kernels, shapes
        // and buffers.
        let runtime = RuntimeConfig::default();
        let node0 = cluster.sim().node(0);
        let mut service: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for job in &jobs {
            let ck = &kernels[job.kernel % kernels.len()];
            let args = args_of(job, buffers[&(job.tenant, job.elems)]);
            let mut prog = tr
                .time("exec.compile_s", || {
                    Program::compile(&ck.kernel, launch_of(job), &args)
                })
                .map_err(|e| e.to_string())?;
            black_box(tr.time("analysis.certify_s", || {
                let extents = global_extents(&prog, |b| {
                    (b.index() < node0.len()).then(|| node0.size_of(b))
                });
                certify_program(&mut prog, &extents, CertMode::Elide)
            }));
            let k = job.nodes.clamp(1, NODES);
            // Service time on the serving clock, as the server plans it.
            if let Entry::Vacant(slot) = service.entry((job.tenant, k)) {
                let sched = plan_schedule(
                    ck,
                    launch_of(job),
                    &args,
                    node0,
                    cluster.spec(),
                    k as usize,
                    &runtime,
                )
                .map_err(|e| e.to_string())?;
                slot.insert(sched.time());
            }
        }

        // Placement alone: a FIFO queue with EASY backfill over the
        // admitted jobs' (nodes, runtime) requests on the serving clock.
        let requests: Vec<(f64, u32, f64)> = jobs
            .iter()
            .map(|j| {
                let k = j.nodes.clamp(1, NODES);
                (j.arrival, k, service[&(j.tenant, k)])
            })
            .collect();
        let calls = tr.time("slurm.placement_s", || drive_placement(&requests));
        tr.count("slurm.placement_calls", calls as f64);
        Ok(())
    }

    fn variants(&self) -> u64 {
        STREAMS
    }

    fn conditions(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nodes", NODES.to_string()),
            ("engine", EngineKind::default().to_string()),
            ("policy", "fair".into()),
            ("queue_depth", QUEUE_DEPTH.to_string()),
            ("jobs_per_op", JOBS.to_string()),
            ("tenants", TENANTS.to_string()),
            ("streams", STREAMS.to_string()),
            ("mean_gap_s", MEAN_GAP.to_string()),
            (
                "grid",
                format!("4 to 16 blocks x {BLOCK} threads (512 to 2048 floats per job)"),
            ),
        ]
    }
}

/// Drive a standalone [`PlacementEngine`] with `(arrival, nodes, runtime)`
/// requests: start the queue head when it fits, otherwise reserve for it
/// and backfill behind it. Returns the number of engine calls made.
fn drive_placement(requests: &[(f64, u32, f64)]) -> u64 {
    let mut engine = PlacementEngine::new(NODES);
    let mut queue: VecDeque<(u32, f64)> = VecDeque::new();
    let (mut next, mut clock, mut calls) = (0usize, 0.0f64, 0u64);
    loop {
        while let Some(&(nodes, runtime)) = queue.front() {
            calls += 1;
            if !engine.try_start(clock, nodes, runtime) {
                break;
            }
            queue.pop_front();
        }
        if let Some(&(nodes, _)) = queue.front() {
            calls += 1;
            let mut reservation = engine.reserve(clock, nodes);
            let mut waiting = VecDeque::new();
            waiting.push_back(queue.pop_front().expect("blocked head"));
            while let Some((n, rt)) = queue.pop_front() {
                calls += 1;
                if !engine.try_backfill(clock, n, rt, &mut reservation) {
                    waiting.push_back((n, rt));
                }
            }
            queue = waiting;
        }
        let arrival = requests.get(next).map(|r| r.0);
        clock = match (arrival, engine.next_completion()) {
            (Some(a), Some(e)) => clock.max(a.min(e)),
            (Some(a), None) => clock.max(a),
            (None, Some(e)) => clock.max(e),
            (None, None) => break,
        };
        calls += 1;
        engine.release_until(clock);
        while next < requests.len() && requests[next].0 <= clock {
            queue.push_back((requests[next].1, requests[next].2));
            next += 1;
        }
    }
    calls
}
