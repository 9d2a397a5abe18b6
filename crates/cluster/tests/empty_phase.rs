//! A phase in which no node has blocks — the callback phase of every launch
//! without a tail — must run nothing: zeroed stats per node, no pool byte
//! touched, on every engine.

use cucc_cluster::{ClusterSpec, SimCluster};
use cucc_exec::{Arg, BlockStats, EngineKind, ExecError, ExecOptions, Program};
use cucc_ir::{parse_kernel, LaunchConfig};

#[test]
fn all_empty_assignments_run_nothing() {
    let k = parse_kernel(
        "__global__ void fill(int* out) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            out[id] = id + 1;
        }",
    )
    .unwrap();
    let mut c = SimCluster::new(ClusterSpec::simd_focused().with_nodes(4));
    let out = c.alloc(4 * 64 * 4);
    for node in 0..4 {
        c.node_mut(node).bytes_mut(out).fill(0xA0 + node as u8);
    }
    let before = c.clone();
    let launch = LaunchConfig::new(4u32, 64u32);
    let args = [Arg::Buffer(out)];
    let prog = Program::compile(&k, launch, &args).unwrap();
    // Every node's range is empty, at whatever offset.
    let empty: Vec<_> = (0..4u64).map(|i| i..i).collect();
    let opts = ExecOptions {
        engine: EngineKind::Lane,
        node_threads: 4,
        block_parallel: true,
    };
    let stats = c.run_program_parallel(&prog, &empty, &opts).unwrap();
    assert_eq!(stats, vec![BlockStats::default(); 4]);
    let tree = ExecOptions {
        engine: EngineKind::TreeWalk,
        ..ExecOptions::default()
    };
    let stats = c
        .run_blocks_parallel_opts(&k, launch, &empty, &args, &tree)
        .unwrap();
    assert_eq!(stats, vec![BlockStats::default(); 4]);
    for node in 0..4 {
        assert_eq!(c.node(node), before.node(node), "node {node} pool changed");
    }
    // The oracle's argument check does not depend on there being blocks.
    let err = c
        .run_blocks_parallel_opts(&k, launch, &empty, &[], &tree)
        .unwrap_err();
    assert!(matches!(err, ExecError::ArgCount { .. }));
}
