//! Corpus tests for the one footprint: over the generators of
//! `tests/proptest_analysis.rs` and `tests/proptest_verify.rs` (the same
//! file, pulled in by path — these tests live in the crate because
//! integration tests cannot see the crate-visible planner halves), the 42
//! builtin kernels and the eight perf-suite sources,
//!
//! * **soundness** — every write the tree-walk traces for blocks `[a, b)`
//!   lies inside `writes[p].byte_ranges(a..b)` whenever that footprint is
//!   `Must` (graph elision rests on this);
//! * **differential** — whenever the static half of the planner's region
//!   derivation answers, it answers what the probe answers, and the oracle
//!   accepts the plan.
//!
//! Both print their case counts (`cargo test -p cucc-analysis corpus --
//! --nocapture`).

use crate::distributable::{analyze_kernel, KernelAccesses, Verdict};
use crate::footprint::LaunchFootprints;
use crate::oracle::verify_plan;
use crate::plan::{admit, plan_launch, probe_regions, static_regions, Plan, ReplicationCause};
use cucc_exec::{execute_block_traced, Arg, MemPool};
use cucc_ir::{parse_kernel, Kernel, LaunchConfig, Param, Value};
use cucc_workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "../../../tests/support/generators.rs"]
mod generators;
use generators::{random_kernel, subject};

/// One kernel at one launch, with its memory.
struct Case {
    name: String,
    kernel: Kernel,
    launch: LaunchConfig,
    args: Vec<Arg>,
    pool: MemPool,
}

impl Case {
    fn new(
        name: &str,
        src: &str,
        launch: LaunchConfig,
        bufs: &[Vec<u8>],
        scalars: &[Value],
    ) -> Case {
        let kernel = parse_kernel(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        cucc_ir::validate(&kernel).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut pool = MemPool::new();
        let (mut bufs, mut scalars) = (bufs.iter(), scalars.iter());
        let args = kernel
            .params
            .iter()
            .map(|p| match p {
                Param::Buffer { .. } => {
                    let data = bufs.next().expect("a buffer per buffer param");
                    let id = pool.alloc(data.len());
                    pool.write_all(id, data);
                    Arg::Buffer(id)
                }
                Param::Scalar { .. } => Arg::Scalar(*scalars.next().expect("a scalar per param")),
            })
            .collect();
        Case {
            name: name.to_string(),
            kernel,
            launch,
            args,
            pool,
        }
    }
}

/// The 42 builtin kernels at their own launches (the perf suite is both
/// the eight perf-suite sources and eight of the 42).
fn builtin_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for k in triton_kernels().into_iter().chain(heteromark_kernels()) {
        let bufs: Vec<Vec<u8>> = k.buffer_bytes.iter().map(|n| vec![0u8; *n]).collect();
        cases.push(Case::new(k.name, &k.source, k.launch, &bufs, &k.scalars));
    }
    for b in perf_suite(Scale::Test) {
        cases.push(Case::new(
            b.name(),
            &b.source(),
            b.launch(),
            &b.buffers(),
            &b.scalars(),
        ));
    }
    assert_eq!(cases.len(), 42);
    cases
}

/// Launches the generators never produce: multi-axis grids with and
/// without tail guards, loops in read and write indices, guards that are
/// not tail guards, a second site per buffer, a narrowing cast.
fn shape_cases() -> Vec<Case> {
    let f32s = |n: usize| vec![0u8; n * 4];
    let two_d = |guard: &str, w: i64, h: i64| {
        let src = format!(
            "__global__ void k(float* in, float* out, int w, int h) {{
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                {guard} out[y * w + x] = in[y * w + x] * 2.0f;
            }}"
        );
        Case::new(
            &format!("2d `{guard}` {w}x{h}"),
            &src,
            LaunchConfig::new((4u32, 4u32), (8u32, 8u32)),
            &[f32s(32 * 32), f32s(32 * 32)],
            &[Value::I64(w), Value::I64(h)],
        )
    };
    let one_d = |name: &str, body: &str, elems: usize, n: i64| {
        let src = format!(
            "__global__ void k(float* in, float* out, int n) {{
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                {body}
            }}"
        );
        Case::new(
            name,
            &src,
            LaunchConfig::new(8u32, 32u32),
            &[f32s(elems), f32s(elems)],
            &[Value::I64(n)],
        )
    };
    vec![
        two_d("", 32, 32),
        two_d("if (y < h)", 32, 32),
        two_d("if (x < w)", 32, 32),
        two_d("if (x < w && y < h)", 32, 32),
        two_d("if (y < h)", 32, 27),
        two_d("if (x < w && y < h)", 32, 20),
        one_d(
            "stencil read loop",
            "float acc = 0.0f; for (int i = 0; i < 4; i++) { acc = acc + in[id + i]; } out[id] = acc;",
            260,
            256,
        ),
        one_d("write loop", "for (int i = 0; i < 3; i++) out[id * 3 + i] = in[id];", 768, 256),
        one_d("uniform guard", "if (n > 0) out[id] = in[id];", 256, 256),
        one_d("thread-0 guard", "if (threadIdx.x == 0) out[blockIdx.x] = in[id];", 256, 256),
        one_d("two sites", "out[id * 2] = in[id]; out[id * 2 + 1] = in[id];", 512, 256),
        one_d("ragged tail", "if (id < n) out[id] = in[id];", 256, 200),
        one_d("narrowing cast", "out[(unsigned char)id] = in[id];", 256, 256),
        one_d("early return", "if (id >= n) return; out[id] = in[id];", 256, 200),
        // One counter, two loops: neither range describes both bodies.
        one_d(
            "reused counter",
            "int i; float acc = 0.0f; for (i = 0; i < 3; i++) out[id * 3 + i] = in[id]; \
             for (i = 0; i < 1; i++) acc = acc + in[id + i];",
            768,
            256,
        ),
        // After its loop the counter holds the exit value, 2.
        one_d(
            "counter after its loop",
            "int i; float acc = 0.0f; for (i = 0; i < 2; i++) acc = acc + in[id + i]; \
             out[id * 3 + i] = acc;",
            768,
            256,
        ),
    ]
}

/// `tests/proptest_analysis.rs`'s generator: `out[a·id + b (·w + i)] = …`
/// with an optional tail guard and an optional per-thread inner loop.
fn analysis_generator() -> impl Strategy<Value = Case> {
    random_kernel().prop_map(|rk| {
        Case::new(
            "analysis generator",
            &rk.source(),
            LaunchConfig::new(rk.blocks, rk.threads),
            &[vec![0u8; rk.out_elems() * 4]],
            &[Value::I64(rk.n)],
        )
    })
}

/// `tests/proptest_verify.rs`'s generator: five indexing shapes, a launch,
/// and an allocation shortfall that forces out-of-bounds traps.
fn verify_generator() -> impl Strategy<Value = Case> {
    subject().prop_map(|s| {
        let extent = (s.exact_extent() as u64).saturating_sub(s.shortfall).max(1);
        Case::new(
            "verify generator",
            &s.source(),
            LaunchConfig::new(s.blocks, s.threads),
            &[vec![0u8; extent as usize * 4]],
            &s.n_arg().map(Value::I64).into_iter().collect::<Vec<_>>(),
        )
    })
}

/// Soundness of one case: the number of traced writes checked against a
/// `Must` footprint.
fn check_write_soundness(case: &Case) -> usize {
    let acc = KernelAccesses::of_kernel(&case.kernel);
    let fps = LaunchFootprints::of(&acc, case.launch, &case.args);
    let nb = case.launch.num_blocks();
    let ranges = [0..nb, 0..nb / 2, nb / 2..nb, nb / 3..nb / 3 + 1, nb - 1..nb];
    let mut checked = 0;
    for blocks in ranges {
        let mut scratch = case.pool.clone();
        let mut trace = Vec::new();
        for b in blocks.clone() {
            // A block that traps has still made the writes before the trap.
            let _ = execute_block_traced(
                &case.kernel,
                case.launch,
                b,
                &case.args,
                &mut scratch,
                &mut trace,
            );
        }
        for w in &trace {
            let Some(allowed) = fps.writes[&cucc_ir::ParamId(w.param)].byte_ranges(blocks.clone())
            else {
                continue;
            };
            let (lo, hi) = (w.byte_off, w.byte_off + w.bytes as u64);
            assert!(
                allowed.iter().any(|&(s, e)| s <= lo && hi <= e),
                "{}: blocks {blocks:?} wrote p{} bytes [{lo}, {hi}) outside the Must footprint {allowed:?}",
                case.name,
                w.param
            );
            checked += 1;
        }
    }
    checked
}

/// Differential of one case: `Some(true)` when the static half answered
/// (and agreed with the probe and the oracle), `Some(false)` when it
/// declined, `None` when the launch never reaches the region derivation.
fn check_static_against_probe(case: &Case) -> Option<bool> {
    let Case {
        kernel,
        launch,
        args,
        pool,
        ..
    } = case;
    let verdict = analyze_kernel(kernel);
    let Verdict::Distributable(meta) = &verdict else {
        return None;
    };
    let (fps, full_blocks) = admit(kernel, meta, *launch, args).ok()?;
    let probed = probe_regions(kernel, meta, *launch, args, pool, full_blocks);
    let Some(plan) = static_regions(kernel, meta, &fps, args, pool, full_blocks) else {
        assert_eq!(plan_launch(kernel, &verdict, *launch, args, pool), probed);
        return Some(false);
    };
    assert_eq!(
        Plan::ThreePhase(plan.clone()),
        probed,
        "{}: the static regions are not the probe's",
        case.name
    );
    let report = verify_plan(kernel, *launch, args, pool, &plan).expect("a safe launch runs");
    assert!(
        report.ok(),
        "{}: oracle rejects the static plan: {:?}",
        case.name,
        report.violations
    );
    Some(true)
}

#[test]
fn corpus_write_footprints_are_sound_on_builtin_and_shape_kernels() {
    let cases: Vec<Case> = builtin_cases().into_iter().chain(shape_cases()).collect();
    let checked: usize = cases.iter().map(check_write_soundness).sum();
    println!(
        "write-footprint soundness: {} kernels, {checked} traced writes inside a Must footprint",
        cases.len()
    );
    assert!(checked > 0);
}

#[test]
fn corpus_static_regions_equal_probe_regions_on_builtin_and_shape_kernels() {
    let tally = |cases: &[Case]| {
        let mut on_probe = Vec::new();
        let (mut answered, mut not_planned) = (0, 0);
        for case in cases {
            match check_static_against_probe(case) {
                Some(true) => answered += 1,
                Some(false) => on_probe.push(case.name.clone()),
                None => not_planned += 1,
            }
        }
        println!(
            "static-vs-probe differential: {} kernels — {answered} planned statically (probe \
             skipped, oracle-confirmed), {} still on the probe {on_probe:?}, {not_planned} \
             replicated before the region derivation",
            cases.len(),
            on_probe.len()
        );
        (answered, on_probe)
    };
    let (builtin, _) = tally(&builtin_cases());
    assert!(
        builtin >= 23,
        "only {builtin} builtin kernels planned statically"
    );
    // The classes the static half must decline, each shown by its kernel;
    // every other shape is one it exists for.
    let (_, on_probe) = tally(&shape_cases());
    let declined = [
        "uniform guard",
        "thread-0 guard",
        "two sites",
        "narrowing cast",
        "early return",
        "reused counter",
        "counter after its loop",
    ];
    assert_eq!(on_probe, declined);
}

/// A kernel whose probe traps (an out-of-bounds read in a full block)
/// replicates with the probe's own error, as before the static half
/// existed: the bounds rule is not `Safe`, so the static half declines.
#[test]
fn corpus_probe_trap_is_reported_unchanged() {
    let case = Case::new(
        "oob read",
        "__global__ void k(float* in, float* out) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            out[id] = in[id + 4096];
        }",
        LaunchConfig::new(4u32, 16u32),
        &[vec![0u8; 64 * 4], vec![0u8; 64 * 4]],
        &[],
    );
    assert_eq!(check_static_against_probe(&case), Some(false));
    let verdict = analyze_kernel(&case.kernel);
    assert_eq!(
        plan_launch(&case.kernel, &verdict, case.launch, &case.args, &case.pool),
        Plan::Replicated(ReplicationCause::ProbeError(
            "out-of-bounds access to `in`: index 4096, length 64".into()
        ))
    );
}

/// Generated cases run, and how many of them the static half planned.
static GENERATED: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn corpus_generated_kernels_are_sound_and_statically_planned_like_the_probe(
        case in prop_oneof![analysis_generator(), verify_generator()],
    ) {
        check_write_soundness(&case);
        let planned = check_static_against_probe(&case) == Some(true);
        let cases = GENERATED[0].fetch_add(1, Ordering::Relaxed) + 1;
        let planned = GENERATED[1].fetch_add(planned as usize, Ordering::Relaxed) + planned as usize;
        if cases % 64 == 0 {
            println!("generated kernels: {cases} cases sound, {planned} planned statically like the probe");
        }
    }
}
