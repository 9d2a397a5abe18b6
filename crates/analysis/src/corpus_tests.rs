//! Corpus tests for the one footprint: over the generators of
//! `tests/proptest_analysis.rs` and `tests/proptest_verify.rs` (the same
//! file, pulled in by path), the 42 builtin kernels, the eight perf-suite
//! sources and a set of shape kernels,
//!
//! * **soundness** — every write the tree-walk traces for blocks `[a, b)`
//!   lies inside `writes[p].byte_ranges(a..b)` whenever that footprint is
//!   `Must` (graph elision rests on this);
//! * **planner against the oracle** — whenever the planner distributes a
//!   launch, the tree-walk oracle accepts the plan over every full chunk,
//!   or a full chunk traps (and with it the launch, under any plan). The
//!   builtin kernels are pinned at 37 of 37 distributable ones planned, and
//!   every shape the planner declines is pinned with its cause;
//! * **one bounds prover** — the `i`-th access of the walk and the `i`-th
//!   memory instruction of the compiled program address the same memory,
//!   one for one, and every access whose raw affine range lies inside its
//!   extent is certified (or unreachable) by the range analysis, so the
//!   verifier loses nothing by proving bounds through certificates alone;
//! * **one launch resolution** — the verifier's report, the lint findings
//!   and the certificate counts read off a launch's facts are the same
//!   whether the facts borrow the certified program the launch runs (the
//!   sanitizer's path) or compile the kernel afresh (`cucc check`'s path).
//!
//! All print their case counts (`cargo test -p cucc-analysis corpus --
//! --nocapture`).

use crate::distributable::{analyze_kernel, KernelAccesses};
use crate::footprint::{LaunchFacts, LaunchFootprints, SiteState};
use crate::oracle::verify_plan;
use crate::plan::{plan_launch, Plan, ReplicationCause};
use crate::range::{analyze_ranges, certify_program, global_extents, CompiledLaunch};
use crate::verify::{access_pcs, verify};
use cucc_exec::bytecode::Inst;
use cucc_exec::{execute_block_traced, Arg, BufferId, CertMode, MemPool, Program};
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
    /// Byte size of a buffer of the case's pool.
    fn size_of(&self, b: BufferId) -> Option<usize> {
        (b.index() < self.pool.len()).then(|| self.pool.size_of(b))
    }

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
/// not tail guards, a second site per buffer, a narrowing cast, and two
/// launches that trap in every full block.
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
        one_d("uniform guard false", "if (n < 0) out[id] = in[id];", 256, 256),
        one_d("thread-0 guard", "if (threadIdx.x == 0) out[blockIdx.x] = in[id];", 256, 256),
        one_d("thread-3 guard", "if (threadIdx.x == 3) out[blockIdx.x] = in[id];", 256, 256),
        // Thread 40 of a 32-thread block does not exist: the store never runs.
        one_d("thread-40 guard", "if (threadIdx.x == 40) out[blockIdx.x] = in[id];", 256, 256),
        one_d(
            "last-thread guard",
            "if (threadIdx.x == blockDim.x - 1) out[blockIdx.x] = in[id];",
            256,
            256,
        ),
        Case::new(
            "2d thread-0 guard",
            "__global__ void k(float* in, float* out, int w) {
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                if (threadIdx.x == 0 && threadIdx.y == 0)
                    out[blockIdx.y * gridDim.x + blockIdx.x] = in[y * w + x];
            }",
            LaunchConfig::new((4u32, 4u32), (8u32, 8u32)),
            &[f32s(32 * 32), f32s(16)],
            &[Value::I64(32)],
        ),
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
        // Every block traps, before its store or in it.
        one_d("zero-step loop", "for (int i = 0; i < 1; i += n) {} out[id] = in[id];", 256, 0),
        one_d("oob read", "out[id] = in[id + 4096];", 256, 256),
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

/// Bounds parity of one case: `[accesses, inside by the raw affine range,
/// certified or unreachable]`.
fn check_bounds_parity(case: &Case) -> [usize; 3] {
    let Case {
        kernel,
        launch,
        args,
        ..
    } = case;
    let acc = KernelAccesses::of_kernel(kernel);
    let prog =
        Program::compile(kernel, *launch, args).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let slots: Vec<usize> = (prog.code().iter())
        .filter_map(|i| match i {
            Inst::Load { slot, .. } | Inst::Store { slot, .. } | Inst::AtomicRmw { slot, .. } => {
                Some(*slot as usize)
            }
            _ => None,
        })
        .collect();
    let mems: Vec<usize> = acc.list.iter().map(|a| kernel.mem_slot(a.mem)).collect();
    assert_eq!(
        slots, mems,
        "{}: memory instructions vs accesses",
        case.name
    );
    let pcs = access_pcs(kernel, &acc, &prog).expect("paired one for one");

    let extents = global_extents(&prog, |b| case.size_of(b));
    let ra = analyze_ranges(&prog, &extents);
    let fps = LaunchFootprints::of(&acc, *launch, args);
    let mut counts = [acc.list.len(), 0, 0];
    for ((a, site), pc) in acc.list.iter().zip(&fps.sites).zip(pcs) {
        let proven = ra.pc_certified[pc] || !ra.reachable[pc];
        counts[2] += proven as usize;
        let extent = extents[kernel.mem_slot(a.mem)];
        let (SiteState::Resolved(form), Some(extent)) = (&site.state, extent) else {
            continue;
        };
        let raw = form.range(launch.grid);
        if raw.lo >= 0 && raw.hi < extent as i128 {
            counts[1] += 1;
            assert!(
                proven,
                "{}: access to {:?} at pc {pc} is inside [0, {extent}) by its affine range \
                 {raw:?} but not certified",
                case.name, a.mem
            );
        }
    }
    counts
}

/// Print the bounds-parity totals over a set of cases.
fn report_parity(what: &str, totals: [usize; 3], cases: usize) {
    let [accesses, affine, proven] = totals;
    println!(
        "bounds parity over {cases} {what}: {accesses} accesses paired with their instructions; \
         {affine} inside their extent by the raw affine range, every one certified; \
         {proven} certified or unreachable in all"
    );
}

/// Build one case's launch facts both ways and require the same verdicts,
/// lint findings and certificate counts: from the accesses and the program
/// a launch holds (compiled and certified in `CertMode::Validate`, as
/// `--sanitize` runs it) and afresh. Returns `[certified accesses, lint findings, diagnostics]`.
fn check_facts_parity(case: &Case) -> [usize; 3] {
    let Case {
        kernel,
        launch,
        args,
        ..
    } = case;
    let acc = KernelAccesses::of_kernel(kernel);
    let mut program =
        Program::compile(kernel, *launch, args).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let exts = global_extents(&program, |b| case.size_of(b));
    let ranges = certify_program(&mut program, &exts, CertMode::Validate);
    let launched = CompiledLaunch { program, ranges };
    // The launch holds the kernel's accesses and its program; `check` holds neither.
    let [ran, fresh] = [(Some(&acc), Some(&launched)), (None, None)]
        .map(|(a, c)| LaunchFacts::of(kernel, a, *launch, args, |b| case.size_of(b), c));
    let [v_ran, v_fresh] = [&ran, &fresh].map(|f| verify(f, false, None));
    assert_eq!(v_ran, v_fresh, "{}: verifier", case.name);
    let [l_ran, l_fresh] = [&ran, &fresh].map(|f| crate::lint_kernel(f, None).unwrap());
    assert_eq!(
        l_ran.diagnostics, l_fresh.diagnostics,
        "{}: lint",
        case.name
    );
    assert_eq!(l_ran.cert_stats, l_fresh.cert_stats, "{}: certs", case.name);
    assert_eq!(
        l_ran.reach_stats, l_fresh.reach_stats,
        "{}: reach",
        case.name
    );
    let findings = l_ran.diagnostics.len();
    [l_ran.cert_stats.0, findings, v_ran.diagnostics.len()]
}

#[test]
fn corpus_launch_facts_agree_from_the_launched_program_and_fresh() {
    for (what, cases) in [
        ("builtin kernels", builtin_cases()),
        ("shape kernels", shape_cases()),
    ] {
        let mut totals = [0; 3];
        for c in &cases {
            for (t, n) in totals.iter_mut().zip(check_facts_parity(c)) {
                *t += n;
            }
        }
        let [certified, lints, diags] = totals;
        println!(
            "launch facts parity over {} {what}: equal verify reports ({diags} diagnostics), \
             lint findings ({lints}) and certificate counts ({certified} certified accesses) \
             from the launched program and afresh",
            cases.len()
        );
        assert!(certified > 0);
    }
}

#[test]
fn corpus_accesses_pair_with_instructions_and_affine_proofs_are_certified() {
    for (what, cases) in [
        ("builtin kernels", builtin_cases()),
        ("shape kernels", shape_cases()),
    ] {
        let mut totals = [0; 3];
        for c in &cases {
            let counts = check_bounds_parity(c);
            for (t, n) in totals.iter_mut().zip(counts) {
                *t += n;
            }
        }
        report_parity(what, totals, cases.len());
        assert!(totals[1] > 0);
    }
}

/// What the planner made of one case.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Distributed, and the oracle accepts the plan over every full chunk.
    Planned,
    /// Distributed, and a full chunk traps: so does the launch, under any
    /// plan.
    Traps,
    /// Replicated by the region derivation, with the condition that failed.
    Declined(String),
    /// Replicated before the region derivation (not distributable, no full
    /// block, a race).
    Replicated,
}

fn check_plan(case: &Case) -> Outcome {
    let Case {
        kernel,
        launch,
        args,
        pool,
        ..
    } = case;
    let verdict = analyze_kernel(kernel);
    match plan_launch(kernel, &verdict, *launch, args, pool) {
        Plan::ThreePhase(plan) => match verify_plan(kernel, *launch, args, pool, &plan) {
            Ok(report) => {
                assert!(
                    report.ok(),
                    "{}: oracle rejects the plan: {:?}",
                    case.name,
                    report.violations
                );
                Outcome::Planned
            }
            Err(_) => Outcome::Traps,
        },
        Plan::Replicated(ReplicationCause::Unproven(why)) => Outcome::Declined(why),
        Plan::Replicated(_) => Outcome::Replicated,
    }
}

/// The outcomes of a set of cases, printed: planned and trapping names,
/// declined names with their causes, and the count replicated earlier.
fn tally(what: &str, cases: &[Case]) -> Vec<(String, Outcome)> {
    let outcomes: Vec<(String, Outcome)> = cases
        .iter()
        .map(|c| (c.name.clone(), check_plan(c)))
        .collect();
    let named = |pick: fn(&Outcome) -> bool| -> Vec<&str> {
        outcomes
            .iter()
            .filter(|(_, o)| pick(o))
            .map(|(n, _)| n.as_str())
            .collect()
    };
    let planned = named(|o| *o == Outcome::Planned);
    let traps = named(|o| *o == Outcome::Traps);
    let declined: Vec<_> = outcomes
        .iter()
        .filter_map(|(n, o)| match o {
            Outcome::Declined(why) => Some(format!("{n}: {why}")),
            _ => None,
        })
        .collect();
    println!(
        "planner over {} {what}: {} planned (oracle-confirmed), {} planned and trapping \
         {traps:?}, {} declined {declined:?}, {} replicated before the region derivation",
        cases.len(),
        planned.len(),
        traps.len(),
        declined.len(),
        named(|o| *o == Outcome::Replicated).len()
    );
    outcomes
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
fn corpus_plans_are_oracle_confirmed_on_builtin_and_shape_kernels() {
    // Every distributable builtin kernel is planned; the five others are
    // not distributable or race.
    let builtin = tally("builtin kernels", &builtin_cases());
    let count = |o: Outcome| builtin.iter().filter(|(_, b)| *b == o).count();
    assert_eq!(
        (count(Outcome::Planned), count(Outcome::Replicated)),
        (37, 5)
    );

    // The shapes the planner declines, each with the condition that failed;
    // the two trapping shapes are planned, and every other shape is one the
    // footprint decides.
    let shapes = tally("shape kernels", &shape_cases());
    let declined: Vec<(&str, &str)> = shapes
        .iter()
        .filter_map(|(n, o)| match o {
            Outcome::Declined(why) => Some((n.as_str(), why.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(declined, DECLINED);
    let traps: Vec<&str> = shapes
        .iter()
        .filter(|(_, o)| *o == Outcome::Traps)
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(traps, ["zero-step loop", "oob read"]);
    assert!(shapes.iter().all(|(_, o)| *o != Outcome::Replicated));
}

/// The shape kernels the planner replicates, and why.
const DECLINED: [(&str, &str); 7] = [
    (
        "uniform guard false",
        "write #0: launch-uniform guard not true at this launch",
    ),
    ("thread-40 guard", "chunks write nothing"),
    // Each site alone has a gap the other fills: undecided.
    (
        "two sites",
        "buffer p1: chunk 0 of 1 block(s) writes with a gap",
    ),
    (
        "narrowing cast",
        "a barrier under non-uniform control or a narrowing integer cast",
    ),
    ("early return", "a thread may `return` before its stores"),
    (
        "reused counter",
        "write #0: loop bounds not resolvable at this launch",
    ),
    (
        "counter after its loop",
        "write #0: loop bounds not resolvable at this launch",
    ),
];

/// Generated cases run, planned (oracle-confirmed) and planned but trapping.
static GENERATED: [AtomicUsize; 3] = [
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
];

/// Generated cases checked for bounds parity, then the three counts of
/// [`check_bounds_parity`] summed.
static PARITY: [AtomicUsize; 4] = [
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn corpus_generated_kernels_are_sound_and_planned_as_the_oracle_accepts(
        case in prop_oneof![analysis_generator(), verify_generator()],
    ) {
        check_write_soundness(&case);
        let outcome = check_plan(&case);
        let [cases, planned, traps] = [true, outcome == Outcome::Planned, outcome == Outcome::Traps]
            .map(|b| b as usize);
        let cases = GENERATED[0].fetch_add(cases, Ordering::Relaxed) + cases;
        let planned = GENERATED[1].fetch_add(planned, Ordering::Relaxed) + planned;
        let traps = GENERATED[2].fetch_add(traps, Ordering::Relaxed) + traps;
        if cases % 64 == 0 {
            println!(
                "generated kernels: {cases} cases sound, {planned} planned (oracle-confirmed), \
                 {traps} planned and trapping"
            );
        }
    }

    #[test]
    fn corpus_generated_accesses_pair_with_instructions_and_affine_proofs_are_certified(
        case in prop_oneof![analysis_generator(), verify_generator()],
    ) {
        let counts = check_bounds_parity(&case);
        let cases = PARITY[0].fetch_add(1, Ordering::Relaxed) + 1;
        let totals = [1, 2, 3].map(|i| PARITY[i].fetch_add(counts[i - 1], Ordering::Relaxed) + counts[i - 1]);
        if cases % 64 == 0 {
            report_parity("generated kernels", totals, cases);
        }
    }
}

// ------------------------------------------------------ barrier placement --

/// Where a generated condition or loop bound takes its value from.
#[derive(Debug, Clone, Copy)]
enum Source {
    Thread,
    Block,
    Param,
    /// A `__shared__` load.
    Shared,
    /// `w`, assigned under `if (threadIdx.x < 3)`.
    Tainted,
}

impl Source {
    const ALL: [Source; 5] = [
        Source::Thread,
        Source::Block,
        Source::Param,
        Source::Shared,
        Source::Tainted,
    ];

    fn expr(self) -> &'static str {
        match self {
            Source::Thread => "threadIdx.x",
            Source::Block => "blockIdx.x",
            Source::Param => "n",
            Source::Shared => "sh[1]",
            Source::Tainted => "w",
        }
    }

    fn thread_variant(self) -> bool {
        matches!(self, Source::Thread | Source::Shared | Source::Tainted)
    }
}

/// A nest of up to three `if`s / `for`s with one `__syncthreads()` under
/// the first `depth` of them.
#[derive(Debug, Clone)]
struct BarrierNest {
    /// `(is a for, where its condition or bound comes from)`, outermost
    /// first.
    levels: Vec<(bool, Source)>,
    depth: usize,
}

impl BarrierNest {
    fn source(&self) -> String {
        let mut body = String::new();
        for (i, (is_for, src)) in self.levels.iter().enumerate() {
            if i == self.depth {
                body += "__syncthreads(); ";
            }
            let e = src.expr();
            body += &match is_for {
                true => format!("for (int i{i} = 0; i{i} < {e}; i{i}++) {{ "),
                false => format!("if ({e} < 2) {{ "),
            };
        }
        if self.depth == self.levels.len() {
            body += "__syncthreads(); ";
        }
        body += "out[id] = out[id] + 1; ";
        body += &"} ".repeat(self.levels.len());
        format!(
            "__global__ void k(int* out, int n) {{
                __shared__ int sh[32];
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                sh[threadIdx.x] = id;
                int w = 0;
                if (threadIdx.x < 3) w = 1;
                {body}
                out[id] = sh[threadIdx.x] + w;
            }}"
        )
    }

    /// Whether a level enclosing the barrier is thread-variant.
    fn divergent(&self) -> bool {
        self.levels[..self.depth]
            .iter()
            .any(|(_, s)| s.thread_variant())
    }

    /// Enclosing `if`s with a thread-uniform condition.
    fn uniform_ifs(&self) -> usize {
        (self.levels[..self.depth].iter())
            .filter(|(is_for, s)| !is_for && !s.thread_variant())
            .count()
    }
}

fn barrier_nest() -> impl Strategy<Value = BarrierNest> {
    prop::collection::vec((any::<bool>(), 0..Source::ALL.len()), 1..4)
        .prop_flat_map(|levels| {
            let n = levels.len();
            (Just(levels), 0..=n)
        })
        .prop_map(|(levels, depth)| BarrierNest {
            levels: levels
                .into_iter()
                .map(|(f, s)| (f, Source::ALL[s]))
                .collect(),
            depth,
        })
}

/// The validator rejects a barrier exactly where the verifier's barrier
/// rule (on the kernel as parsed, unvalidated) proves divergence, both
/// agree with the nest, and on a kernel that validates the access walk
/// calls it faithful exactly under launch-uniform levels and the lint
/// counts the nest's uniform `if`s. Returns `[divergent, uniform-branch finding]`.
fn check_barrier_placement(nest: &BarrierNest) -> [bool; 2] {
    use crate::verify::PropertyVerdict;
    use cucc_ir::ValidateError;
    let src = nest.source();
    let kernel = parse_kernel(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let launch = LaunchConfig::new(2u32, 32u32);
    let args = [Arg::Buffer(BufferId(0)), Arg::int(3)];
    let facts = LaunchFacts::of(&kernel, None, launch, &args, |_| Some(64 * 4), None);
    let validated = cucc_ir::validate(&kernel);
    let report = verify(&facts, false, None);
    assert_eq!(
        validated == Err(ValidateError::DivergentBarrier),
        report.barrier == PropertyVerdict::Must,
        "{src}"
    );
    assert_eq!(validated.is_err(), nest.divergent(), "{src}: {validated:?}");
    if validated.is_err() {
        return [true, false];
    }
    // The distributable analysis trusts its forms only under launch-uniform
    // barriers: a legal barrier under a `blockIdx` level is not.
    let launch_uniform =
        (nest.levels[..nest.depth].iter()).all(|(_, s)| !matches!(s, Source::Block));
    assert_eq!(facts.accesses.faithful, launch_uniform, "{src}");
    let lint = crate::lint_kernel(&facts, None).unwrap();
    let uniform: Vec<&str> = (lint.diagnostics.iter())
        .map(|d| d.message.as_str())
        .filter(|m| m.starts_with("uniform branch barrier"))
        .collect();
    match nest.uniform_ifs() {
        0 => assert!(uniform.is_empty(), "{src}: {uniform:?}"),
        d => assert!(
            uniform.len() == 1 && uniform[0].contains(&format!("sits under {d} provably")),
            "{src}: {uniform:?}"
        ),
    }
    [false, !uniform.is_empty()]
}

/// Generated barrier nests checked, divergent ones, uniform-branch findings.
static NESTS: [AtomicUsize; 3] = [
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corpus_barrier_placement_validator_verifier_and_lint_agree(nest in barrier_nest()) {
        let [divergent, uniform] = check_barrier_placement(&nest);
        let [cases, divergent, uniform] = [(0, true), (1, divergent), (2, uniform)]
            .map(|(i, b)| NESTS[i].fetch_add(b as usize, Ordering::Relaxed) + b as usize);
        if cases % 64 == 0 {
            println!(
                "barrier nests: {cases} cases, {divergent} divergent (validator and verifier \
                 agree), {uniform} uniform-branch lint findings at the nest's depth"
            );
        }
    }
}
