//! End-to-end lint coverage: one kernel exhibiting four distinct finding
//! kinds with source-line attribution, and the graph-level dead-launch
//! lint on a captured graph (the acceptance shape of the `cucc lint`
//! subcommand).

use cucc::analysis::{lint_kernel, LaunchFacts};
use cucc::core::{compile_source, lint_graph, GraphCapture};
use cucc::exec::{Arg, BufferId};
use cucc::ir::{parse_kernel_with_map, validate, LaunchConfig};

#[test]
fn lint_reports_four_kinds_with_lines() {
    let src = "__global__ void demo(float* out, int n) {
        __shared__ float scratch[64];
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        scratch[threadIdx.x] = out[id % 64];
        __syncthreads();
        if (n > 0) {
            __syncthreads();
        }
        if (id < 100000) {
            out[id % 64] = 1.0f;
        } else {
            out[0] = 0.0f;
        }
    }";
    let (kernel, map) = parse_kernel_with_map(src).unwrap();
    validate(&kernel).unwrap();
    let args = [Arg::Buffer(BufferId(0)), Arg::int(7)];
    let launch = LaunchConfig::new(4u32, 64u32);
    let facts = LaunchFacts::of(&kernel, None, launch, &args, |_| Some(64 * 4), None);
    let report = lint_kernel(&facts, Some(&map)).unwrap();

    let kinds: std::collections::BTreeSet<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.split(':').next().unwrap())
        .collect();
    for kind in [
        "dead store",
        "uniform branch barrier",
        "constant condition",
        "unreachable code",
    ] {
        assert!(kinds.contains(kind), "missing `{kind}` in {kinds:?}");
    }
    assert!(kinds.len() >= 4);

    // Every sited finding carries a source line.
    let sited: Vec<_> = report
        .diagnostics
        .iter()
        .filter_map(|d| d.site.as_ref())
        .collect();
    assert!(sited.len() >= 3, "{:?}", report.diagnostics);
    assert!(sited.iter().all(|s| s.line.is_some()));
    // Spot-check two attributions against the source above.
    let dead = report
        .diagnostics
        .iter()
        .find(|d| d.message.starts_with("dead store"))
        .unwrap();
    assert_eq!(dead.site.as_ref().unwrap().line, Some(4));
    let ubb = report
        .diagnostics
        .iter()
        .find(|d| d.message.starts_with("uniform branch barrier"))
        .unwrap();
    assert_eq!(ubb.site.as_ref().unwrap().line, Some(7));
}

#[test]
fn graph_dead_launch_lint_fires() {
    let ck = compile_source(
        "__global__ void fill(float* x, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) x[id] = 3.0f;
        }",
    )
    .unwrap();
    let x = BufferId(0);
    let launch = LaunchConfig::cover1(512, 64);
    let args = [Arg::Buffer(x), Arg::int(512)];
    let mut cap = GraphCapture::new();
    let dead = cap.launch(&ck, launch, &args);
    cap.launch(&ck, launch, &args);
    let findings = lint_graph(&cap.finish());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.starts_with("dead launch"));
    assert_eq!(findings[0].site.as_ref().unwrap().ordinal, dead);
}
