//! The driver of one workload in one process: set-up (several times, for a
//! steady `setup_s`), warm-up, the timed closed loop with one client, the
//! correctness gate on every op, and — in the traced pass — the per-layer
//! probes. The harness is single-threaded; the threads the program spawns
//! (one per simulated node) are its own behaviour.

use crate::spans::{Tracer, SETUP_OP};
use crate::spec::{MIN_TRACED_OPS, PER_LAYER, RSS_OPS, SETUP_REPS, WARMUP_OPS};
use crate::stats::{median, peak_rss_bytes, percentile, samples_beyond, unattributed};
use crate::workloads::{Exact, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long, or how many ops, one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Timed region of this many seconds (whole input cycles).
    Seconds(f64),
    /// Exactly this many timed ops and a single set-up (`--smoke`).
    Ops(u64),
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
    /// The eight end-to-end metrics (untraced pass only).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Every per-layer metric (traced pass only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Timed ops behind the percentiles.
    pub samples: usize,
    /// Whether `op_p90_s` has its ten samples beyond it.
    pub p90_resolved: bool,
    /// Harness time spent outside the program (inputs, references).
    pub harness_prepare_s: f64,
    pub chrome_trace: Option<String>,
}

/// The correctness gate: runs ops, checks each against the reference and
/// against the simulated results the same input variant gave before — in
/// its last warm-up op (caches are filled by then), else in its first
/// timed op.
struct Gate {
    warming: bool,
    first: BTreeMap<u64, Exact>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    sim_time: Vec<f64>,
    sim_wire: Vec<f64>,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            warming: true,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            sim_time: Vec::new(),
            sim_wire: Vec::new(),
        }
    }

    /// Run op `i` (untimed preparation, the timed op, the untimed check).
    /// Returns the op's host duration.
    fn run(&mut self, wl: &mut dyn Workload, i: u64, tr: &mut Tracer) -> Duration {
        let variant = i % wl.variants();
        let mut result = wl.before_op(i);
        let t0 = Instant::now();
        if result.is_ok() {
            tr.open("harness.op_s");
            result = wl.op(i, tr);
            tr.close();
        }
        let took = t0.elapsed();
        let checked = result.and_then(|()| wl.verify(i)).and_then(|exact| {
            if self.warming {
                self.first.insert(variant, exact);
            }
            let first = *self.first.entry(variant).or_insert(exact);
            // Repetitions inside one process start at different readings of
            // the simulated clock, so a duration taken as a difference of
            // readings may differ in its last bits; across processes the
            // reported value is bit-identical (`--repeat` checks that).
            if (first.sim_time - exact.sim_time).abs() <= 1e-9 * first.sim_time.abs()
                && first.sim_wire == exact.sim_wire
                && first.fingerprint == exact.fingerprint
            {
                Ok(exact)
            } else {
                Err(format!(
                    "simulated results of variant {variant} changed between repetitions: \
                     {first:?} then {exact:?}"
                ))
            }
        });
        self.attempted += 1;
        match checked {
            Ok(exact) => {
                self.sim_time.push(exact.sim_time);
                self.sim_wire.push(exact.sim_wire as f64);
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        took
    }

    /// Forget the counts (not the reference results) after warm-up.
    fn start_timed_region(&mut self) -> Result<(), String> {
        if self.failed > 0 {
            return Err(format!("warm-up failed: {}", self.errors.join("; ")));
        }
        self.warming = false;
        self.attempted = 0;
        self.sim_time.clear();
        self.sim_wire.clear();
        Ok(())
    }

    /// Simulated results per op, over one cycle of input variants: a fixed
    /// set of ops, so that host speed cannot move them.
    fn sim_per_op(&self, variants: u64) -> (f64, f64) {
        let cycle = (variants as usize).min(self.sim_time.len()).max(1);
        let mean = |v: &[f64]| v.iter().take(cycle).sum::<f64>() / cycle as f64;
        (mean(&self.sim_time), mean(&self.sim_wire))
    }
}

/// One set-up plus the warm-up ops; returns the program-side seconds.
fn set_up(wl: &mut dyn Workload, gate: &mut Gate, tr: &mut Tracer) -> Result<f64, String> {
    tr.set_op(SETUP_OP);
    let t0 = Instant::now();
    wl.setup(tr)?;
    let mut spent = t0.elapsed();
    for i in 0..WARMUP_OPS {
        spent += gate.run(wl, i, tr);
    }
    Ok(spent.as_secs_f64())
}

/// The untraced pass: end-to-end metrics.
pub fn run_untraced(wl: &mut dyn Workload, length: Length) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut gate = Gate::new();
    let reps = match length {
        Length::Seconds(_) => SETUP_REPS,
        Length::Ops(_) => 1,
    };
    let mut setups = Vec::with_capacity(reps);
    for _ in 0..reps {
        setups.push(set_up(wl, &mut gate, &mut tr)?);
    }
    gate.start_timed_region()?;

    let variants = wl.variants();
    let started = Instant::now();
    let mut durations: Vec<f64> = Vec::new();
    let mut rss = None;
    loop {
        let i = durations.len() as u64;
        let enough = match length {
            Length::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Length::Ops(n) => i >= n,
        };
        // Stop on a whole number of input cycles, so every run times the
        // same mix.
        if enough && i.is_multiple_of(variants) && i > 0 {
            break;
        }
        durations.push(gate.run(wl, i, &mut tr).as_secs_f64());
        if i + 1 == RSS_OPS {
            rss = peak_rss_bytes();
        }
    }
    let rss = rss.or_else(peak_rss_bytes).ok_or("cannot read VmHWM")?;

    let busy: f64 = durations.iter().sum();
    let (sim_time, sim_wire) = gate.sim_per_op(variants);
    let mut out = Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        samples: durations.len(),
        p90_resolved: samples_beyond(durations.len(), 90) >= 10,
        ..Outcome::default()
    };
    let e = &mut out.end_to_end;
    e.insert("ops_per_s", durations.len() as f64 / busy);
    e.insert("op_p50_s", median(&durations));
    e.insert(
        "op_p90_s",
        percentile(&durations, 90).expect("at least one op"),
    );
    e.insert("setup_s", median(&setups));
    e.insert("peak_rss_bytes", rss as f64);
    e.insert("failed_op_share", out.failed as f64 / out.attempted as f64);
    e.insert("sim_time_s", sim_time);
    e.insert("sim_wire_bytes", sim_wire);
    Ok(out)
}

/// The traced pass: ops with harness-side spans and per-layer probes,
/// alternating with untraced ops that are the baseline of the tracing
/// overhead.
pub fn run_traced(wl: &mut dyn Workload, length: Length, name: &str) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut gate = Gate::new();
    set_up(wl, &mut gate, &mut tr)?;
    gate.start_timed_region()?;
    let variants = wl.variants();

    let (floor, budget) = match length {
        Length::Seconds(s) => (MIN_TRACED_OPS, s),
        Length::Ops(n) => (n, 0.0),
    };
    // Blocks of traced ops alternate with equal blocks of untraced ones, so
    // drift over the run (a growing timeline, a settling allocator) cancels
    // out of the tracing overhead.
    let block = if variants > 1 { variants } else { 5 };
    let started = Instant::now();
    let (mut traced, mut baseline): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    loop {
        let done = traced.len() as u64;
        if done >= floor && started.elapsed().as_secs_f64() >= budget {
            break;
        }
        for i in done..done + block {
            tr.set_op(i as i64);
            let before = gate.failed;
            traced.push(gate.run(wl, i, &mut tr).as_secs_f64());
            if gate.failed == before {
                if let Err(e) = wl.probe(i, &mut tr) {
                    gate.failed += 1;
                    gate.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        for i in done..done + block {
            baseline.push(gate.run(wl, i, &mut off).as_secs_f64());
        }
    }

    let ops = traced.len();
    let (sim_time, sim_wire) = gate.sim_per_op(variants);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for spec in &PER_LAYER {
        m.insert(spec.name, median(&tr.per_op(spec.name, ops)));
    }
    // Composites that are not themselves span names.
    let launches = median(&tr.per_op("core.replay_launches", ops));
    let completed = median(&tr.per_op("core.serve.completed", ops));
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    m.insert(
        "core.graph_capture_s",
        tr.setup_seconds("core.graph_capture_s"),
    );
    m.insert(
        "core.replay_launch_s",
        per(median(&tr.per_op("core.replay_s", ops)), launches),
    );
    m.insert("core.serve.job_s", per(m["core.serve.run_s"], completed));
    m.insert(
        "exec.blocks_per_s",
        per(m["exec.blocks"], m["exec.run_serial_s"]),
    );
    // Self time from outside: composite minus the parts the harness can
    // call itself (parts + unattributed = composite by construction).
    m.insert(
        "core.plan_unattributed_s",
        unattributed(
            m["core.plan_s"],
            &[
                m["analysis.plan_launch_s"],
                m["exec.profile_s"],
                m["exec.compile_s"],
                m["analysis.certify_s"],
            ],
        ),
    );
    m.insert(
        "core.launch_unattributed_s",
        unattributed(
            m["core.launch_s"],
            &[
                m["core.plan_s"],
                m["exec.compile_s"],
                m["analysis.certify_s"],
                m["exec.run_s"],
                m["net.allgather_s"],
                m["cluster.consistent_s"],
            ],
        ),
    );
    m.insert(
        "core.replay_unattributed_s",
        unattributed(
            m["core.replay_launch_s"],
            &[
                per(m["core.plan_cached_hit_s"], launches),
                per(m["exec.compile_s"], launches),
                per(m["analysis.certify_s"], launches),
                per(m["exec.run_s"], launches),
            ],
        ),
    );
    m.insert(
        "core.serve.queueing_s",
        unattributed(m["core.serve.run_s"], &[m["core.serve.backend_s"]]),
    );
    m.insert(
        "harness.trace_overhead_frac",
        median(&traced) / median(&baseline) - 1.0,
    );
    m.insert(
        "failed_op_share",
        gate.failed as f64 / gate.attempted as f64,
    );
    m.insert("sim_time_s", sim_time);
    m.insert("sim_wire_bytes", sim_wire);

    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        per_layer: m,
        samples: ops,
        chrome_trace: Some(tr.to_chrome_json(name)),
        ..Outcome::default()
    })
}
