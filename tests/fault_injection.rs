//! Failure-injection tests: the runtime's invariant checks must actually
//! fire when the invariants are broken.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CuccCluster, MigrateError, RuntimeConfig};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;

const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

#[test]
fn consistency_checker_catches_divergent_callback_inputs() {
    // Corruption inside the *gathered* region heals (each slice is
    // recomputed by exactly one owner and broadcast — that is why the
    // workflow is correct; see the benign-corruption test below).
    // Divergence survives only where every node computes independently:
    // the callback blocks. Corrupt one node's copy of the *input* in the
    // tail region — each node's callback then writes a different value,
    // and the post-launch consistency check must fire.
    let ck = compile_source(SAXPY).unwrap();
    let n = 1200usize; // 5 blocks of 256: block 4 is the tail callback
    let launch = LaunchConfig::cover1(n as u64, 256);
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(2),
        RuntimeConfig::default(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload(x, &vec![1.0f32; n]).unwrap();
    cl.upload(y, &vec![2.0f32; n]).unwrap();
    let args = [
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(0.5),
        Arg::int(n as i64),
    ];

    // Healthy launch: fine.
    cl.launch(&ck, launch, &args).unwrap();

    // Fault: node 1's copy of x diverges at element 1100 (tail region,
    // executed by the callback block on every node).
    cl.sim_mut().node_mut(1).bytes_mut(x)[1100 * 4] ^= 0xFF;

    let err = cl.launch(&ck, launch, &args);
    match err {
        Err(MigrateError::Launch(msg)) => {
            assert!(msg.contains("consistency violation"), "{msg}");
            assert!(msg.contains('y'), "{msg}");
        }
        other => panic!("expected consistency violation, got {other:?}"),
    }
}

#[test]
fn corruption_in_gathered_region_heals() {
    // The dual of the test above: corrupting one node's copy of the
    // *output* inside the gathered region is healed by the Allgather —
    // every slice is recomputed by its owner and re-broadcast.
    let ck = compile_source(SAXPY).unwrap();
    let n = 2048usize;
    let launch = LaunchConfig::cover1(n as u64, 256);
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(4),
        RuntimeConfig::default(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload(x, &vec![1.0f32; n]).unwrap();
    cl.upload(y, &vec![2.0f32; n]).unwrap();
    let args = [
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(0.5),
        Arg::int(n as i64),
    ];
    cl.sim_mut().node_mut(2).bytes_mut(y)[(2 * (n / 4) + 3) * 4] ^= 0xFF;
    // Every element of y is recomputed from (consistent) x, so the launch
    // succeeds and all nodes agree. Note the *values* differ from the
    // uncorrupted case only if the kernel had read the corrupted y — it
    // does (y appears on the right-hand side), so the corrupted input
    // propagates into one consistent slice: consistency ≠ correctness, and
    // the checker's job is only the former.
    cl.launch(&ck, launch, &args).unwrap();
    assert!(cl.sim().consistent(y));
}

#[test]
fn corruption_outside_written_region_is_benign_after_gather() {
    // Corrupting a node's copy of a *read-only* buffer region that the
    // node never reads for its own slice does not corrupt outputs of other
    // nodes — but the written buffer's consistency must still hold because
    // every element is recomputed and gathered.
    let ck = compile_source(
        "__global__ void fill(float* out, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) out[id] = (float)(id);
        }",
    )
    .unwrap();
    let n = 1024usize;
    let launch = LaunchConfig::cover1(n as u64, 256);
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(4),
        RuntimeConfig::default(),
    );
    let out = cl.alloc(n * 4);
    // Pre-corrupt node 3's output buffer: the kernel overwrites every
    // element, and the gather redistributes the fresh values, so the final
    // state is consistent and correct.
    cl.sim_mut().node_mut(3).bytes_mut(out)[0] = 0x5A;
    cl.launch(&ck, launch, &[Arg::Buffer(out), Arg::int(n as i64)])
        .unwrap();
    let got = cl.download::<f32>(out).unwrap();
    let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
    assert_eq!(got, want);
    assert!(cl.sim().fully_consistent());
}

#[test]
fn oob_kernel_reports_not_corrupts() {
    // A kernel writing out of bounds must fail the launch cleanly, not
    // scribble over other allocations.
    let ck = compile_source(
        "__global__ void bad(float* out) {
            out[blockIdx.x * blockDim.x + threadIdx.x + 1000000] = 1.0f;
        }",
    )
    .unwrap();
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(2),
        RuntimeConfig::default(),
    );
    let sentinel = cl.alloc(64);
    cl.upload(sentinel, &[0xABu8; 64]).unwrap();
    let out = cl.alloc(256);
    let err = cl.launch(&ck, LaunchConfig::new(2u32, 32u32), &[Arg::Buffer(out)]);
    assert!(err.is_err(), "OOB launch must fail");
    assert_eq!(
        cl.download::<u8>(sentinel).unwrap(),
        vec![0xAB; 64],
        "other memory untouched"
    );
}

/// A launch that traps fails with the error it fails with replicated: each
/// node runs its blocks in ascending order and the first error in node
/// order is returned, so the planner distributes without asking whether a
/// block can trap. Each kernel is planned three-phase and traps somewhere
/// else; on 1, 3 and 4 nodes, eager and replayed, its error is `Debug`-equal
/// to that of the same kernel forced replicated, and the sentinel buffers
/// around its operands stay intact on every node.
#[test]
fn trapping_launches_fail_as_they_do_replicated() {
    use cucc::analysis::{plan_launch, Plan, Reason, Verdict};
    use cucc::core::{CompiledKernel, GraphCapture};
    use cucc::exec::MemPool;

    // 8 blocks of 32 threads; the tail kernel's guard leaves 7 full blocks.
    let kernels = [
        (
            "oob read in every block",
            "out[id] = in[id + n];",
            1_000_000,
        ),
        (
            "integer trap at one thread of block 3",
            "out[id] = in[id] + (float)(n / (id - 100));",
            1,
        ),
        (
            "trap in the tail callback block only",
            "if (id < n) out[id] = in[id] + (float)(1 / (id - 240));",
            250,
        ),
        (
            "division by n = 0",
            "out[id] = in[id] + (float)(id / n);",
            0,
        ),
        // Blocks 3 and 5 trap on different nodes, and neither is profiled:
        // the index names which block's error the launch returns.
        (
            "oob reads in blocks 3 and 5",
            "out[id] = in[blockIdx.x == 3 || blockIdx.x == 5 ? id + n : id];",
            1_000_000,
        ),
    ];
    let launch = LaunchConfig::new(8u32, 32u32);
    for (what, body, n) in kernels {
        let ck = compile_source(&format!(
            "__global__ void k(float* in, float* out, int n) {{
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                {body}
            }}"
        ))
        .unwrap();
        let mut replicated = ck.clone();
        replicated.analysis.verdict = Verdict::Trivial(vec![Reason::AtomicWrite]);
        for nodes in [1, 3, 4] {
            let run = |ck: &CompiledKernel, replay: bool| {
                let mut cl = CuccCluster::with_options(
                    ClusterSpec::simd_focused().with_nodes(nodes),
                    RuntimeConfig::default(),
                );
                let before = cl.alloc(64);
                let (input, out) = (cl.alloc(256 * 4), cl.alloc(256 * 4));
                let after = cl.alloc(64);
                for s in [before, after] {
                    cl.upload(s, &[0xABu8; 64]).unwrap();
                }
                let args = [Arg::Buffer(input), Arg::Buffer(out), Arg::int(n)];
                let plan = plan_launch(
                    &ck.kernel,
                    &ck.analysis.verdict,
                    launch,
                    &args,
                    &MemPool::new(),
                );
                let err = if replay {
                    let mut cap = GraphCapture::new();
                    cap.launch(ck, launch, &args);
                    cl.graph_replay(&cap.finish()).unwrap_err()
                } else {
                    cl.launch(ck, launch, &args).unwrap_err()
                };
                for s in [before, after] {
                    assert!(cl.sim().consistent(s), "{what}: sentinel diverged");
                    assert_eq!(cl.download::<u8>(s).unwrap(), vec![0xAB; 64], "{what}");
                }
                (matches!(plan, Plan::ThreePhase(_)), format!("{err:?}"))
            };
            for replay in [false, true] {
                let (distributed, err) = run(&ck, replay);
                assert!(distributed, "{what}: not planned three-phase");
                assert_eq!(
                    (false, err),
                    run(&replicated, replay),
                    "{what} on {nodes} node(s), replay {replay}"
                );
            }
        }
    }
}
