//! `graph_replay`: per-launch host overhead with almost no block work. A
//! captured upload plus an 8-launch ping-pong chain of the unguarded `step`
//! kernel (4096 floats, 16 blocks) replayed on 4 nodes; one op is one
//! replay. Schedule-cache hits, per-launch compile and certification,
//! thread spawn per node and gather-elision bookkeeping are what it costs.

use super::{cluster_spec, fingerprint, shape, Exact, Workload};
use crate::inputs::{f32_bytes, Rng};
use crate::probes::{node_bytes, probe_launch, LaunchSite};
use crate::spans::Tracer;
use cucc::core::{
    compile_source, CompiledKernel, CuccCluster, EngineKind, GraphCapture, LaunchGraph,
    ReplayStats, RunOptions,
};
use cucc::exec::{Arg, BufferId};
use cucc::ir::LaunchConfig;
use std::hint::black_box;

const STEP: &str = "__global__ void step(float* y, float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    y[id] = x[id] * 1.0009765f + 0.25f;
}";
const ELEMS: usize = 16 * 256;
const NODES: u32 = 4;
const CHAIN: usize = 8;

fn launch() -> LaunchConfig {
    LaunchConfig::cover1(ELEMS as u64, 256)
}

struct State {
    cluster: CuccCluster,
    ck: CompiledKernel,
    graph: LaunchGraph,
    a: BufferId,
    b: BufferId,
}

pub struct GraphReplay {
    init: Vec<u8>,
    /// Contents of the two buffers after the chain, computed in pure Rust.
    expected: [Vec<u8>; 2],
    state: Option<State>,
    stats: ReplayStats,
    spans_before: usize,
}

impl GraphReplay {
    pub fn new(seed: u64) -> GraphReplay {
        let x0 = Rng::new(seed, 5).f32s(ELEMS, -4.0, 4.0);
        // Launch i writes b from a when i is even, a from b when odd. The
        // interpreter carries floats — literals included, whatever their
        // suffix — as f64 and rounds at stores.
        let step = |v: &[f32]| -> Vec<f32> {
            v.iter()
                .map(|&x| (x as f64 * 1.0009765f64 + 0.25) as f32)
                .collect()
        };
        let (mut a, mut b) = (x0.clone(), vec![0f32; ELEMS]);
        for i in 0..CHAIN {
            if i % 2 == 0 {
                b = step(&a);
            } else {
                a = step(&b);
            }
        }
        GraphReplay {
            init: f32_bytes(&x0),
            expected: [f32_bytes(&a), f32_bytes(&b)],
            state: None,
            stats: ReplayStats::default(),
            spans_before: 0,
        }
    }
}

impl Workload for GraphReplay {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.state = None;
        let ck = compile_source(STEP).map_err(|e| e.to_string())?;
        let mut cluster = CuccCluster::with_options(cluster_spec(NODES), RunOptions::default());
        let a = cluster.alloc(ELEMS * 4);
        let b = cluster.alloc(ELEMS * 4);
        let graph = tr.time("core.graph_capture_s", || {
            let mut cap = GraphCapture::new();
            cap.upload(a, self.init.clone());
            for i in 0..CHAIN {
                let (dst, src) = if i % 2 == 0 { (b, a) } else { (a, b) };
                cap.launch(&ck, launch(), &[Arg::Buffer(dst), Arg::Buffer(src)]);
            }
            cap.finish()
        });
        self.state = Some(State {
            cluster,
            ck,
            graph,
            a,
            b,
        });
        Ok(())
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let st = self.state.as_mut().expect("setup ran");
        self.spans_before = st.cluster.timeline().spans().len();
        self.stats = tr
            .time("core.replay_s", || st.cluster.graph_replay(&st.graph))
            .map_err(|e| e.to_string())?;
        tr.count(
            "trace.spans_per_op",
            (st.cluster.timeline().spans().len() - self.spans_before) as f64,
        );
        Ok(())
    }

    fn verify(&mut self, _i: u64) -> Result<Exact, String> {
        let st = self.state.as_mut().expect("setup ran");
        for (buf, want) in [(st.a, &self.expected[0]), (st.b, &self.expected[1])] {
            let got = st.cluster.download::<u8>(buf).map_err(|e| e.to_string())?;
            if &got != want {
                return Err("replayed chain differs from the pure-Rust reference".into());
            }
        }
        Ok(Exact {
            sim_time: self.stats.time,
            sim_wire: self.stats.wire_bytes,
            // `time` is a difference of two readings of an ever-advancing
            // clock, so its last bits depend on how far the clock has run;
            // the gate compares it with a tolerance, the rest exactly.
            fingerprint: fingerprint(&ReplayStats {
                time: 0.0,
                ..self.stats
            }),
        })
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let st = self.state.as_mut().expect("setup ran");
        let s = self.stats;
        tr.count("core.replay_launches", CHAIN as f64);
        tr.count("core.cache_hits", s.cache_hits as f64);
        tr.count("core.cache_misses", s.cache_misses as f64);
        tr.count("core.gathers_elided", s.gathers_elided as f64);
        tr.count("core.gathers_full", s.gathers_full as f64);
        tr.count("core.materializations", s.materializations as f64);

        // Each of the chain's launches, probed on the same kernel, shape
        // and buffers. `plan_cached` counts hits, so it runs on a clone.
        let mut warm = st.cluster.clone();
        for i in 0..CHAIN {
            let (dst, src) = if i % 2 == 0 {
                (st.b, st.a)
            } else {
                (st.a, st.b)
            };
            let args = [Arg::Buffer(dst), Arg::Buffer(src)];
            black_box(
                tr.time("core.plan_cached_hit_s", || {
                    warm.plan_cached(&st.ck, launch(), &args)
                })
                .map_err(|e| e.to_string())?,
            );
            probe_launch(
                &LaunchSite {
                    cluster: &st.cluster,
                    ck: &st.ck,
                    launch: launch(),
                    args: &args,
                    engine: EngineKind::default(),
                },
                tr,
            )?;
        }
        tr.count("cluster.node_bytes", node_bytes(&st.cluster));
        Ok(())
    }

    fn conditions(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nodes", NODES.to_string()),
            ("engine", EngineKind::default().to_string()),
            ("grid", format!("step: {}", shape(launch()))),
            ("launches_per_op", CHAIN.to_string()),
            ("bytes_resident", (2 * ELEMS * 4).to_string()),
        ]
    }
}
