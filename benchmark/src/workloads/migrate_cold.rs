//! `migrate_cold`: what `cucc run kernel.cu` costs a user. For each of the
//! eight perf-suite programs: compile from source, build a 4-node cluster,
//! allocate, upload, launch once, download, compare with the suite's own
//! reference. One op is one pass over the eight, in a seeded order.

use super::{cluster_spec, fingerprint, shape, Exact, KernelCase, Workload};
use crate::inputs::Rng;
use crate::probes::{node_bytes, probe_launch, LaunchSite};
use crate::spans::Tracer;
use cucc::core::{compile_source, CompiledKernel, CuccCluster, EngineKind, RunOptions};
use cucc::exec::Arg;
use cucc::ir::{optimize, parse_kernel, validate};
use cucc::workloads::{perf_suite, Scale};
use std::hint::black_box;

const NODES: u32 = 4;

/// What the traced pass keeps of one program's run, to probe it afterwards.
struct Ran {
    case: usize,
    ck: CompiledKernel,
    cluster: CuccCluster,
    args: Vec<Arg>,
}

pub struct MigrateCold {
    cases: Vec<KernelCase>,
    /// Seeded visiting order of the eight programs.
    order: Vec<usize>,
    last: Option<Result<Exact, String>>,
    ran: Vec<Ran>,
}

impl MigrateCold {
    pub fn new(seed: u64) -> MigrateCold {
        let cases: Vec<KernelCase> = perf_suite(Scale::Test)
            .iter()
            .map(|b| KernelCase::from_suite(b.as_ref()))
            .collect();
        let order = Rng::new(seed, 1).permutation(cases.len());
        MigrateCold {
            cases,
            order,
            last: None,
            ran: Vec::new(),
        }
    }

    /// One program, source to checked result.
    fn migrate(&mut self, idx: usize, tr: &mut Tracer) -> Result<(f64, u64, u64), String> {
        let case = &self.cases[idx];
        let ck = tr
            .time("core.compile_source_s", || compile_source(&case.source))
            .map_err(|e| format!("{}: {e}", case.name))?;
        let (mut cluster, args, handles) = tr.time("core.new_cluster_s", || {
            let mut cluster = CuccCluster::with_options(cluster_spec(NODES), RunOptions::default());
            let (args, handles) = case.alloc(&mut cluster, &ck.kernel);
            (cluster, args, handles)
        });
        tr.time("core.upload_s", || case.upload(&mut cluster, &handles))?;
        let report = tr
            .time("core.launch_s", || cluster.launch(&ck, case.launch, &args))
            .map_err(|e| format!("{}: {e}", case.name))?;
        let got = tr.time("core.download_s", || case.download(&mut cluster, &handles))?;
        tr.time("harness.check_s", || case.check(&got))?;
        let exact = (report.time(), report.wire_bytes, fingerprint(&report));
        if tr.enabled() {
            self.ran.push(Ran {
                case: idx,
                ck,
                cluster,
                args,
            });
        }
        Ok(exact)
    }
}

impl Workload for MigrateCold {
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        // Nothing is resident: every op starts from source text.
        Ok(())
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.ran.clear();
        let mut total = Exact {
            sim_time: 0.0,
            sim_wire: 0,
            fingerprint: 0,
        };
        let mut outcome = Ok(());
        for k in 0..self.order.len() {
            match self.migrate(self.order[k], tr) {
                Ok((time, wire, print)) => {
                    total.sim_time += time;
                    total.sim_wire += wire;
                    total.fingerprint = total.fingerprint.rotate_left(7) ^ print;
                }
                Err(e) => outcome = Err(e),
            }
        }
        self.last = Some(outcome.map(|()| total));
        Ok(())
    }

    fn verify(&mut self, _i: u64) -> Result<Exact, String> {
        // The comparison with the reference is part of the op itself.
        self.last.take().expect("verify follows op")
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        for ran in &self.ran {
            let case = &self.cases[ran.case];
            // Front end, pass by pass, on the same source text.
            let mut kernel = tr
                .time("ir.parse_s", || parse_kernel(&case.source))
                .map_err(|e| e.to_string())?;
            tr.time("ir.validate_s", || validate(&kernel))
                .map_err(|e| e.to_string())?;
            tr.time("ir.optimize_s", || optimize(&mut kernel));
            tr.count("ir.stmts", kernel.flat_stmt_count() as f64);
            black_box(tr.time("analysis.analyze_s", || cucc::analysis::analyze(&kernel)));

            probe_launch(
                &LaunchSite {
                    cluster: &ran.cluster,
                    ck: &ran.ck,
                    launch: case.launch,
                    args: &ran.args,
                    engine: EngineKind::default(),
                },
                tr,
            )?;

            // The broadcast half of `upload`, on cloned node memory.
            let mut sim = ran.cluster.sim().clone();
            for (arg, data) in ran
                .args
                .iter()
                .filter(|a| matches!(a, Arg::Buffer(_)))
                .zip(&case.buffers)
            {
                if let Arg::Buffer(id) = arg {
                    tr.time("cluster.write_all_s", || sim.write_all(*id, data));
                }
            }
            tr.count("cluster.node_bytes", node_bytes(&ran.cluster));
        }
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
            ("engine", EngineKind::default().to_string()),
            ("programs", self.cases.len().to_string()),
            ("scale", "Scale::Test".into()),
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
