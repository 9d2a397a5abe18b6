//! Names, units and bounds of everything the benchmark reports — the one
//! place `BENCHMARK.json`, the README tables and the printed report agree
//! with (a unit test checks `BENCHMARK.json` against these tables).

/// Which clock a metric is read from. Host time and simulated time are
/// never mixed in one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine the benchmark runs on.
    Host,
    /// The cost model's clock: the paper's result, identical run to run.
    Simulated,
    /// A count or a computed size; repeats exactly.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::Count => "count",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the earlier value by which the metric may worsen before it
    /// counts as a regression; 0 means it must repeat exactly. The timing
    /// bounds are as wide as the driver allows because the spawn-heavy
    /// workloads swing by 15-20 % between runs on a 2-vCPU virtual machine
    /// (see the README's baseline section).
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it under `end_to_end`. The driver's
    /// contract takes only metrics that are never 0 and not constant, so
    /// the exact ones ride in `per_layer` and in `failed`/`attempted`.
    pub gated_by_driver: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "op_p50_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "op_p90_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.10,
        gated_by_driver: true,
    },
    EndToEnd {
        name: "failed_op_share",
        unit: "ratio",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.0,
        gated_by_driver: false,
    },
    EndToEnd {
        name: "sim_time_s",
        unit: "sim_s",
        clock: Clock::Simulated,
        higher_is_better: false,
        bound: 0.0,
        gated_by_driver: false,
    },
    EndToEnd {
        name: "sim_wire_bytes",
        unit: "B",
        clock: Clock::Simulated,
        higher_is_better: false,
        bound: 0.0,
        gated_by_driver: false,
    },
];

/// A per-layer metric: the time or count of one call into a layer's public
/// API, median over the traced ops.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
}

const fn secs(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
    }
}

const fn count(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Count,
        higher_is_better,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    secs("ir.parse_s"),
    secs("ir.validate_s"),
    secs("ir.optimize_s"),
    count("ir.stmts", "count", false),
    secs("analysis.analyze_s"),
    secs("analysis.plan_launch_s"),
    secs("analysis.certify_s"),
    count("analysis.certified_accesses", "count", true),
    count("analysis.total_accesses", "count", false),
    secs("exec.profile_s"),
    secs("exec.compile_s"),
    secs("exec.run_s"),
    secs("exec.run_serial_s"),
    count("exec.blocks", "count", false),
    PerLayer {
        name: "exec.blocks_per_s",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
    },
    count("exec.lane_segments", "count", true),
    count("exec.scalar_segments", "count", false),
    count("exec.ops", "count", false),
    count("exec.global_bytes", "B", false),
    secs("net.allgather_s"),
    count("net.allgather_bytes", "B", false),
    PerLayer {
        name: "net.sim_allgather_s",
        unit: "sim_s",
        clock: Clock::Simulated,
        higher_is_better: false,
    },
    PerLayer {
        name: "net.sim_wire_bytes",
        unit: "B",
        clock: Clock::Simulated,
        higher_is_better: false,
    },
    secs("cluster.write_all_s"),
    secs("cluster.consistent_s"),
    count("cluster.node_bytes", "B", false),
    secs("core.compile_source_s"),
    secs("core.new_cluster_s"),
    secs("core.upload_s"),
    secs("core.download_s"),
    secs("core.plan_s"),
    secs("core.plan_unattributed_s"),
    secs("core.plan_cached_hit_s"),
    secs("core.launch_s"),
    secs("core.launch_unattributed_s"),
    secs("core.graph_capture_s"),
    secs("core.replay_launch_s"),
    secs("core.replay_unattributed_s"),
    count("core.cache_hits", "count", true),
    count("core.cache_misses", "count", false),
    count("core.gathers_elided", "count", true),
    count("core.gathers_full", "count", false),
    count("core.materializations", "count", false),
    secs("core.serve.new_s"),
    secs("core.serve.run_s"),
    secs("core.serve.job_s"),
    secs("core.serve.backend_s"),
    secs("core.serve.queueing_s"),
    count("core.serve.admitted", "count", true),
    count("core.serve.rejected", "count", false),
    count("core.serve.cache_hit_rate", "ratio", true),
    secs("core.state.checkpoint_s"),
    secs("core.state.encode_s"),
    secs("core.state.decode_s"),
    secs("core.state.restore_s"),
    count("core.state.image_bytes", "B", false),
    secs("slurm.placement_s"),
    count("slurm.placement_calls", "count", false),
    count("trace.spans_per_op", "count", false),
    count("harness.trace_overhead_frac", "ratio", false),
    count("failed_op_share", "ratio", false),
    PerLayer {
        name: "sim_time_s",
        unit: "sim_s",
        clock: Clock::Simulated,
        higher_is_better: false,
    },
    PerLayer {
        name: "sim_wire_bytes",
        unit: "B",
        clock: Clock::Simulated,
        higher_is_better: false,
    },
];

/// A workload: its name, what one op is, and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "migrate_cold",
        op: "one pass over the 8 perf-suite programs: compile, new 4-node cluster, upload, launch, download, compare",
        why: "What `cucc run kernel.cu` costs: front end, planner probe and tree-walk profiler do most of the work, block execution little.",
    },
    WorkloadInfo {
        name: "steady_dense",
        op: "re-launch of resident vec_affine (1 Mi f32) + black_scholes (32768 options) on 4 nodes, simd engine",
        why: "Resident kernels, no front end: block execution should dominate. What an engine change or a worker pool must move.",
    },
    WorkloadInfo {
        name: "steady_tiled",
        op: "re-launch of resident transpose (1024x1024, shared tiles) + ga (128 blocks, barrier) on 4 nodes, simd engine",
        why: "Same shape on barrier kernels with shared memory: catches a lane-engine gain that costs them, or a collapse that drops a mode they need.",
    },
    WorkloadInfo {
        name: "graph_replay",
        op: "one replay of a captured upload + 8-launch ping-pong chain of `step` (4096 f32, 16 blocks) on 4 nodes",
        why: "Per-launch host overhead with almost no block work: cache hit, per-launch compile and certify, thread spawn, elision bookkeeping.",
    },
    WorkloadInfo {
        name: "serve_stream",
        op: "JobServer::new (4 nodes, fair, queue depth 8) + run of one 72-job, 8-tenant stream; ops cycle over 10 seeded streams",
        why: "The multi-tenant path: admission, fair scheduling, placement, serve-local cache, many tiny launches; exact-match on rejections.",
    },
    WorkloadInfo {
        name: "ckpt_cycle",
        op: "checkpoint + encode + decode + restore of a 4-node cluster holding 8 MiB in 3 buffers, and compare, in memory",
        why: "core::state written and read back; no other workload touches it, so it must not move when they do.",
    },
];

/// Ops discarded before the first timed one (part of `setup_s`).
pub const WARMUP_OPS: u64 = 3;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// `peak_rss_bytes` is read after this many timed ops, so that a faster
/// program — which fits more ops, and more of the ever-growing simulated
/// timeline, into the same seconds — is not charged for its speed.
pub const RSS_OPS: u64 = 30;
/// Fewest traced ops behind a per-layer median.
pub const MIN_TRACED_OPS: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use cucc::trace::json::{self, Value};
    use std::collections::BTreeSet;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| !PER_LAYER.iter().any(|p| p.name == *n))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let doc = manifest();
        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(w, "name"), spec.name);
            assert_eq!(field(w, "why"), spec.why);
        }
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated_by_driver).collect();
        let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), gated.len());
        for (m, spec) in listed.iter().zip(gated) {
            assert_eq!(field(m, "name"), spec.name);
            assert_eq!(field(m, "unit"), spec.unit);
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(m, "better"), better);
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(spec.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), spec.name);
            assert_eq!(field(m, "unit"), spec.unit);
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(m, "better"), better);
        }
    }
}
