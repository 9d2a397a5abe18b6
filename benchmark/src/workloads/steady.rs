//! `steady_dense` and `steady_tiled`: two resident kernels re-launched on
//! resident buffers. Front-end work is zero; block execution should
//! dominate. The two workloads have the same shape and use the `exec`
//! layer differently: `steady_dense` runs a guarded memory-bound kernel
//! (predicated lanes) and a compute-bound one; `steady_tiled` runs barrier
//! kernels with shared memory (phase fission, per-phase fallback).

use super::{cluster_spec, engine, fingerprint, shape, Exact, KernelCase, Workload};
use crate::inputs::Rng;
use crate::probes::{node_bytes, probe_launch, LaunchSite};
use crate::spans::Tracer;
use cucc::core::{compile_source, CompiledKernel, CuccCluster, LaunchReport, RunOptions};
use cucc::exec::{Arg, BufferId};
use cucc::workloads::perf::{BlackScholes, Ga};

const NODES: u32 = 4;
const ENGINE: &str = "simd";

struct Resident {
    ck: CompiledKernel,
    args: Vec<Arg>,
    handles: Vec<BufferId>,
}

struct State {
    cluster: CuccCluster,
    kernels: Vec<Resident>,
}

pub struct Steady {
    cases: Vec<KernelCase>,
    /// Per case: the buffers its launch writes.
    outputs: Vec<Vec<usize>>,
    state: Option<State>,
    reports: Vec<LaunchReport>,
}

impl Steady {
    /// `vec_affine` over 1 Mi floats + `black_scholes` over 32768 options.
    pub fn dense(seed: u64) -> Steady {
        let black_scholes = BlackScholes {
            n: 32768,
            scenarios: 4,
        };
        Steady::of(vec![
            KernelCase::vec_affine(1 << 20, &mut Rng::new(seed, 2)),
            KernelCase::from_suite(&black_scholes),
        ])
    }

    /// `transpose` of a 1024×1024 matrix + `ga` over 128 blocks.
    pub fn tiled(seed: u64) -> Steady {
        let ga = Ga {
            blocks: 128,
            threads: 64,
            seg: 16,
            qlen: 4,
        };
        Steady::of(vec![
            KernelCase::transpose(1024, &mut Rng::new(seed, 3)),
            KernelCase::ga(ga, &mut Rng::new(seed, 4)),
        ])
    }

    fn of(cases: Vec<KernelCase>) -> Steady {
        Steady {
            outputs: cases.iter().map(KernelCase::outputs).collect(),
            cases,
            state: None,
            reports: Vec::new(),
        }
    }
}

impl Workload for Steady {
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        self.state = None;
        let mut cluster = CuccCluster::with_options(
            cluster_spec(NODES),
            RunOptions::builder().engine(engine(ENGINE)).build(),
        );
        let mut kernels = Vec::new();
        for case in &self.cases {
            let ck = compile_source(&case.source).map_err(|e| e.to_string())?;
            let (args, handles) = case.alloc(&mut cluster, &ck.kernel);
            case.upload(&mut cluster, &handles)?;
            kernels.push(Resident { ck, args, handles });
        }
        self.state = Some(State { cluster, kernels });
        Ok(())
    }

    fn before_op(&mut self, _i: u64) -> Result<(), String> {
        let State { cluster, kernels } = self.state.as_mut().expect("setup ran");
        for ((case, outputs), k) in self.cases.iter().zip(&self.outputs).zip(kernels.iter()) {
            case.clear_outputs(outputs, cluster, &k.handles)?;
        }
        Ok(())
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.reports.clear();
        let State { cluster, kernels } = self.state.as_mut().expect("setup ran");
        for (case, k) in self.cases.iter().zip(kernels.iter()) {
            let report = tr
                .time("core.launch_s", || {
                    cluster.launch(&k.ck, case.launch, &k.args)
                })
                .map_err(|e| format!("{}: {e}", case.name))?;
            self.reports.push(report);
        }
        Ok(())
    }

    fn verify(&mut self, _i: u64) -> Result<Exact, String> {
        let State { cluster, kernels } = self.state.as_mut().expect("setup ran");
        for (case, k) in self.cases.iter().zip(kernels.iter()) {
            case.check(&case.download(cluster, &k.handles)?)?;
        }
        Ok(Exact {
            sim_time: self.reports.iter().map(LaunchReport::time).sum(),
            sim_wire: self.reports.iter().map(|r| r.wire_bytes).sum(),
            fingerprint: fingerprint(&self.reports),
        })
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let State { cluster, kernels } = self.state.as_mut().expect("setup ran");
        // Both kernels are out of place, so the memory after the op is a
        // valid input to the same launches.
        for (case, k) in self.cases.iter().zip(kernels.iter()) {
            probe_launch(
                &LaunchSite {
                    cluster,
                    ck: &k.ck,
                    launch: case.launch,
                    args: &k.args,
                    engine: engine(ENGINE),
                },
                tr,
            )?;
        }
        tr.count("cluster.node_bytes", node_bytes(cluster));
        Ok(())
    }

    fn conditions(&self) -> Vec<(&'static str, String)> {
        let grids: Vec<String> = self
            .cases
            .iter()
            .map(|c| format!("{}: {}", c.name, shape(c.launch)))
            .collect();
        vec![
            ("nodes", NODES.to_string()),
            ("engine", ENGINE.into()),
            ("grid", grids.join("; ")),
            (
                "bytes_resident",
                self.cases
                    .iter()
                    .map(KernelCase::bytes)
                    .sum::<usize>()
                    .to_string(),
            ),
        ]
    }
}
