//! The simulated CPU cluster: distributed node memories and parallel
//! functional execution.
//!
//! Each node owns its own [`MemPool`], and no node ever observes another
//! node's write — exactly like the paper's distributed memory model
//! (§2.1.2). Any consistency the runtime achieves must be achieved by the
//! collectives in `cucc-net` really copying bytes between pools, which is
//! what makes the end-to-end correctness tests meaningful. A restored
//! buffer ([`SimCluster::alloc_from`]), identical on every node, is stored
//! once; a node keeps reading the shared bytes until it writes the buffer,
//! and its first write makes the buffer that node's own
//! ([`MemPool::bytes_mut`]). A launch makes only the buffers its kernel
//! stores to unique, on the nodes that run blocks.
//!
//! Functional block execution is multithreaded: every simulated node with
//! blocks to run is one job on the process-wide worker pool
//! ([`cucc_exec::pool`]; safe because node pools are disjoint), and a node
//! job may fan its range out into intra-node chunks on the same pool. The
//! pool's threads outlive every launch, so a launch costs what its blocks
//! cost, and a phase in which no node has blocks dispatches nothing.

use crate::specs::ClusterSpec;
use cucc_exec::interp::check_args;
use cucc_exec::{
    execute_block_range, pool, run_range_parallel, Arg, BlockStats, BufferId, EngineKind,
    ExecError, ExecOptions, MemPool, Program,
};
use cucc_ir::{Kernel, LaunchConfig};
use cucc_net::{AllgatherAlgo, AllgatherPlacement, CollectiveCost, GatherPlan, GatherSegment};
use std::ops::Range;
use std::sync::Arc;

/// A simulated CPU cluster.
#[derive(Debug, Clone)]
pub struct SimCluster {
    /// Hardware description.
    pub spec: ClusterSpec,
    pools: Vec<MemPool>,
}

impl SimCluster {
    /// Build a cluster with `spec.nodes` empty node memories.
    pub fn new(spec: ClusterSpec) -> SimCluster {
        let pools = (0..spec.nodes).map(|_| MemPool::new()).collect();
        SimCluster { spec, pools }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.pools.len()
    }

    /// Allocate a buffer of `bytes` on **every** node (lockstep, same id),
    /// mirroring `cudaMalloc` replicated across the cluster.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        let mut id = None;
        for p in &mut self.pools {
            let this = p.alloc(bytes);
            match id {
                None => id = Some(this),
                Some(prev) => assert_eq!(prev, this, "lockstep allocation diverged"),
            }
        }
        id.expect("cluster has at least one node")
    }

    /// Allocate a buffer holding `data` on **every** node (lockstep, same
    /// id), the way a restore rebuilds node memory from a checkpoint image:
    /// one copy of the bytes, shared by every node until it writes.
    pub fn alloc_from(&mut self, data: &[u8]) -> BufferId {
        let shared = Arc::new(data.to_vec());
        let mut id = None;
        for p in &mut self.pools {
            let this = p.alloc_shared(Arc::clone(&shared));
            match id {
                None => id = Some(this),
                Some(prev) => assert_eq!(prev, this, "lockstep allocation diverged"),
            }
        }
        id.expect("cluster has at least one node")
    }

    /// Copy host data into the buffer on every node (host-to-device
    /// broadcast; the time cost is charged by the runtime layer).
    pub fn write_all(&mut self, id: BufferId, data: &[u8]) {
        for p in &mut self.pools {
            p.write_all(id, data);
        }
    }

    /// Read the buffer from one node.
    pub fn read(&self, node: usize, id: BufferId) -> &[u8] {
        self.pools[node].bytes(id)
    }

    /// Grow the cluster by one node whose memory starts as a byte-for-byte
    /// clone of node `src`'s pool — the state transfer a joining node
    /// receives over the wire (the time cost is charged by the runtime
    /// layer). Returns the new node's id.
    pub fn add_node_from(&mut self, src: usize) -> usize {
        let pool = self.pools[src].clone();
        self.pools.push(pool);
        self.spec.nodes = self.pools.len() as u32;
        self.pools.len() - 1
    }

    /// Overwrite node `dst`'s memory with a byte-for-byte clone of node
    /// `src`'s pool — the state transfer a *reviving* node receives (its
    /// pool contents are stale from before it died).
    pub fn copy_node_state(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "state transfer needs two distinct nodes");
        self.pools[dst] = self.pools[src].clone();
    }

    /// Immutable access to a node memory.
    pub fn node(&self, i: usize) -> &MemPool {
        &self.pools[i]
    }

    /// Mutable access to a node memory.
    pub fn node_mut(&mut self, i: usize) -> &mut MemPool {
        &mut self.pools[i]
    }

    /// Chunks one node's block range is cut into for intra-node block
    /// parallelism under `opts`, given how many node jobs run concurrently
    /// and how many blocks the node has. Conservative: 1 unless the caller
    /// opted in via [`ExecOptions::block_parallel`], never more than the
    /// simulated node's core count, and never so many that chunks get fewer
    /// than a handful of blocks each.
    fn intra_node_workers(&self, opts: &ExecOptions, nodes_running: usize, nblocks: u64) -> usize {
        if !opts.block_parallel {
            return 1;
        }
        let req = if opts.node_threads > 0 {
            opts.node_threads
        } else {
            (pool::host_cores() / nodes_running.max(1)).clamp(1, self.spec.cpu.cores as usize)
        };
        req.min((nblocks / 4).max(1) as usize).max(1)
    }

    /// Execute per-node block ranges **in parallel** (one pool job per node
    /// with blocks to run).
    ///
    /// `assignments[i]` is the block range node `i` executes. Ranges need
    /// not be disjoint — callback phases intentionally run the same blocks
    /// everywhere. On the compiled path the kernel is compiled **once** and
    /// the program shared read-only by every node job.
    pub fn run_blocks_parallel_opts(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        assignments: &[Range<u64>],
        args: &[Arg],
        opts: &ExecOptions,
    ) -> Result<Vec<BlockStats>, ExecError> {
        match opts.engine {
            EngineKind::TreeWalk => {
                // The oracle type-checks its arguments per call; do it here
                // so a phase with no blocks anywhere still reports them.
                check_args(kernel, args)?;
                self.run_nodes(assignments, |_, pool, range| {
                    execute_block_range(kernel, launch, range, args, pool)
                })
            }
            EngineKind::Lane => {
                let prog = Program::compile(kernel, launch, args)?;
                self.run_program_parallel(&prog, assignments, opts)
            }
        }
    }

    /// Execute per-node block ranges of an already-compiled [`Program`] in
    /// parallel (one pool job per node with blocks to run, each optionally
    /// fanning out across intra-node chunks on the same pool). Compile once
    /// per launch, then reuse the program for every phase that shares the
    /// launch — this is the engine's compile-once contract.
    pub fn run_program_parallel(
        &mut self,
        prog: &Program,
        assignments: &[Range<u64>],
        opts: &ExecOptions,
    ) -> Result<Vec<BlockStats>, ExecError> {
        let nodes_running = assignments.iter().filter(|r| !r.is_empty()).count();
        let workers: Vec<usize> = assignments
            .iter()
            .map(|r| {
                let nblocks = r.end.saturating_sub(r.start);
                self.intra_node_workers(opts, nodes_running, nblocks)
            })
            .collect();
        self.run_nodes(assignments, |node, pool, range| {
            run_range_parallel(prog, pool, range, workers[node])
        })
    }

    /// Run `job(node, pool, range)` as one [`pool`] job for every node whose
    /// range is non-empty, each ascending on its own [`MemPool`]. A node
    /// without blocks reports zeroed stats and is never dispatched, so a
    /// phase that is empty everywhere (a callback phase with no tail) costs
    /// nothing. The first error in node order wins.
    fn run_nodes(
        &mut self,
        assignments: &[Range<u64>],
        job: impl Fn(usize, &mut MemPool, Range<u64>) -> Result<BlockStats, ExecError> + Sync,
    ) -> Result<Vec<BlockStats>, ExecError> {
        assert_eq!(assignments.len(), self.pools.len());
        let busy: Vec<(usize, &mut MemPool, Range<u64>)> = self
            .pools
            .iter_mut()
            .zip(assignments)
            .enumerate()
            .filter(|(_, (_, range))| !range.is_empty())
            .map(|(node, (pool, range))| (node, pool, range.clone()))
            .collect();
        let results = pool::run(busy, |(node, pool, range)| (node, job(node, pool, range)));
        let mut stats = vec![BlockStats::default(); assignments.len()];
        for (node, result) in results {
            stats[node] = result?;
        }
        Ok(stats)
    }

    /// Balanced Allgather over the byte region
    /// `[base, base + nodes·unit)` of `buf`: node `i` contributes
    /// `[base + i·unit, base + (i+1)·unit)`. Moves real bytes between the
    /// node pools and returns the network cost.
    pub fn allgather_region(
        &mut self,
        buf: BufferId,
        base: u64,
        unit: u64,
        algo: AllgatherAlgo,
        placement: AllgatherPlacement,
    ) -> CollectiveCost {
        let sizes = vec![unit; self.pools.len()];
        let plan = GatherPlan::new(&sizes, &self.spec.net, algo, placement);
        let all: Vec<usize> = (0..sizes.len()).collect();
        self.gather_segments(buf, base, &GatherSegment::contiguous(&sizes), &all, &plan);
        plan.cost()
    }

    /// Move a planned gather's bytes through `buf` among `nodes` (physical
    /// node indices, ascending — the communicator): every segment (byte
    /// ranges **relative to `base`**, each authoritative on the node in
    /// slot `owner` of `nodes`) ends up on every node of `nodes`; pools
    /// outside it — dead nodes — are left untouched. A full Allgather over
    /// survivors and the graph optimizer's narrowed gather of uncovered
    /// sub-ranges are both this.
    pub fn gather_segments(
        &mut self,
        buf: BufferId,
        base: u64,
        segments: &[GatherSegment],
        nodes: &[usize],
        plan: &GatherPlan,
    ) {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending indices");
        let mut views: Vec<&mut [u8]> = self
            .pools
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| nodes.contains(i))
            .map(|(_, p)| &mut p.bytes_mut(buf)[base as usize..])
            .collect();
        plan.apply(&mut views, segments);
    }

    /// True when every node holds identical contents for `buf` (consistency
    /// check used pervasively by tests).
    pub fn consistent(&self, buf: BufferId) -> bool {
        let first = self.pools[0].bytes(buf);
        self.pools.iter().skip(1).all(|p| p.bytes(buf) == first)
    }

    /// True when *all* buffers are identical on all nodes.
    pub fn fully_consistent(&self) -> bool {
        (0..self.pools[0].len() as u32).all(|i| self.consistent(BufferId(i)))
    }

    /// [`SimCluster::consistent`] restricted to a node subset — dead nodes'
    /// stale memory is exempt from the lockstep invariant.
    pub fn consistent_among(&self, buf: BufferId, nodes: &[usize]) -> bool {
        let Some(&first) = nodes.first() else {
            return true;
        };
        let first = self.pools[first].bytes(buf);
        nodes
            .iter()
            .skip(1)
            .all(|&i| self.pools[i].bytes(buf) == first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::ClusterSpec;
    use cucc_ir::parse_kernel;
    use cucc_ir::{Scalar, Value};

    fn small_cluster(n: u32) -> SimCluster {
        SimCluster::new(ClusterSpec::simd_focused().with_nodes(n))
    }

    #[test]
    fn survivor_subset_gather_skips_dead_pools() {
        let mut c = small_cluster(4);
        let b = c.alloc(16);
        let survivors = [0usize, 1, 3];
        for (slot, &node) in survivors.iter().enumerate() {
            let lo = slot * 4;
            c.node_mut(node).bytes_mut(b)[lo..lo + 4].fill(0x10 + node as u8);
        }
        let plan = GatherPlan::new(
            &[4; 3],
            &c.spec.net,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        );
        c.gather_segments(b, 0, &GatherSegment::contiguous(&[4; 3]), &survivors, &plan);
        let want: Vec<u8> = [0x10u8, 0x11, 0x13]
            .iter()
            .flat_map(|&v| [v; 4])
            .chain([0; 4])
            .collect();
        for &node in &survivors {
            assert_eq!(c.read(node, b), &want[..], "node {node}");
        }
        // The dead pool kept its zeros, so full consistency fails but the
        // survivor-restricted check passes.
        assert_eq!(c.read(2, b), &[0u8; 16]);
        assert!(!c.consistent(b));
        assert!(c.consistent_among(b, &survivors));
        assert!(c.consistent_among(b, &[]));
    }

    #[test]
    fn lockstep_alloc_and_broadcast() {
        let mut c = small_cluster(4);
        let b = c.alloc(16);
        c.write_all(b, &[7u8; 16]);
        assert!(c.consistent(b));
        assert_eq!(c.read(3, b), &[7u8; 16]);
    }

    #[test]
    fn disjoint_partial_execution_desyncs_then_allgather_fixes() {
        // The essence of the three-phase workflow at cluster level.
        let k = parse_kernel(
            "__global__ void fill(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = id + 1;
            }",
        )
        .unwrap();
        let mut c = small_cluster(4);
        let out = c.alloc(4 * 64 * 4); // 4 blocks × 64 threads × i32
        let launch = LaunchConfig::new(4u32, 64u32);
        let args = [Arg::Buffer(out)];
        // Node i executes block i only.
        let assignments: Vec<_> = (0..4u64).map(|i| i..i + 1).collect();
        c.run_blocks_parallel_opts(&k, launch, &assignments, &args, &ExecOptions::default())
            .unwrap();
        assert!(!c.consistent(out), "nodes must have diverged");
        let cost = c.allgather_region(
            out,
            0,
            64 * 4,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        );
        assert!(c.consistent(out), "allgather restores consistency");
        assert!(cost.time > 0.0);
        let got = c.node(0).read_i32(out);
        let want: Vec<i32> = (1..=256).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn replicated_execution_stays_consistent() {
        let k = parse_kernel(
            "__global__ void fill(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = id * 3;
            }",
        )
        .unwrap();
        let mut c = small_cluster(3);
        let out = c.alloc(2 * 32 * 4);
        let launch = LaunchConfig::new(2u32, 32u32);
        // Every node runs every block.
        let assignments = vec![0..2u64, 0..2, 0..2];
        c.run_blocks_parallel_opts(
            &k,
            launch,
            &assignments,
            &[Arg::Buffer(out)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(c.fully_consistent());
    }

    #[test]
    fn parallel_matches_sequential() {
        let k = parse_kernel(
            "__global__ void sq(float* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = (float)(id) * (float)(id);
            }",
        )
        .unwrap();
        let n = 1000u64;
        let launch = LaunchConfig::cover1(n, 128);
        let mut c1 = small_cluster(2);
        let b1 = c1.alloc(n as usize * 4);
        let args1 = [Arg::Buffer(b1), Arg::int(n as i64)];
        let half = launch.num_blocks() / 2;
        let opts = ExecOptions::default();
        let last = launch.num_blocks();
        c1.run_blocks_parallel_opts(&k, launch, &[0..half, half..last], &args1, &opts)
            .unwrap();

        let mut c2 = small_cluster(2);
        let b2 = c2.alloc(n as usize * 4);
        let args2 = [Arg::Buffer(b2), Arg::int(n as i64)];
        // One node at a time: the other node's empty range dispatches nothing.
        c2.run_blocks_parallel_opts(&k, launch, &[0..half, 0..0], &args2, &opts)
            .unwrap();
        c2.run_blocks_parallel_opts(&k, launch, &[0..0, half..last], &args2, &opts)
            .unwrap();

        assert_eq!(c1.read(0, b1), c2.read(0, b2));
        assert_eq!(c1.read(1, b1), c2.read(1, b2));
    }

    #[test]
    fn exec_error_propagates_from_node_thread() {
        let k = parse_kernel("__global__ void k(int* out) { out[threadIdx.x] = 1; }").unwrap();
        let mut c = small_cluster(2);
        let out = c.alloc(4); // 1 element, 4 threads → OOB
        let err = c
            .run_blocks_parallel_opts(
                &k,
                LaunchConfig::new(1u32, 4u32),
                &[0..1, 0..1],
                &[Arg::Buffer(out)],
                &ExecOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn allgather_with_base_offset() {
        let mut c = small_cluster(2);
        let b = c.alloc(16);
        // Node 0 owns bytes [4..8), node 1 owns [8..12).
        c.node_mut(0).bytes_mut(b)[4..8].copy_from_slice(&[1, 2, 3, 4]);
        c.node_mut(1).bytes_mut(b)[8..12].copy_from_slice(&[5, 6, 7, 8]);
        c.allgather_region(b, 4, 4, AllgatherAlgo::Ring, AllgatherPlacement::InPlace);
        for node in 0..2 {
            assert_eq!(&c.read(node, b)[4..12], &[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        // Bytes outside the region untouched.
        assert_eq!(&c.read(0, b)[0..4], &[0, 0, 0, 0]);
    }

    #[test]
    fn engines_and_intra_node_parallelism_agree() {
        let k = parse_kernel(
            "__global__ void sq(float* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = (float)(id) * (float)(id);
            }",
        )
        .unwrap();
        let n = 4096u64;
        let launch = LaunchConfig::cover1(n, 64);
        let assignments = vec![
            0..launch.num_blocks() / 2,
            launch.num_blocks() / 2..launch.num_blocks(),
        ];
        let run = |opts: &ExecOptions| {
            let mut c = small_cluster(2);
            let b = c.alloc(n as usize * 4);
            let args = [Arg::Buffer(b), Arg::int(n as i64)];
            let stats = c
                .run_blocks_parallel_opts(&k, launch, &assignments, &args, opts)
                .unwrap();
            (stats, c.read(0, b).to_vec(), c.read(1, b).to_vec())
        };
        let tree = run(&ExecOptions {
            engine: EngineKind::TreeWalk,
            ..ExecOptions::default()
        });
        let lane = run(&ExecOptions {
            engine: EngineKind::Lane,
            ..ExecOptions::default()
        });
        let par = run(&ExecOptions {
            engine: EngineKind::Lane,
            node_threads: 4,
            block_parallel: true,
        });
        assert_eq!(tree, lane, "compiled engine diverged from tree-walk");
        assert_eq!(tree, par, "intra-node parallel run diverged");
    }

    /// A restored image: distinct nonzero bytes, so a write shows.
    fn image(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 + 1).collect()
    }

    /// Every node but `k` still holds `image` for `b`, all at one shared
    /// address; node `k` holds its own, different bytes.
    fn only_node_wrote(c: &SimCluster, b: BufferId, k: usize, image: &[u8]) {
        let others: Vec<usize> = (0..c.num_nodes()).filter(|&j| j != k).collect();
        let at = c.read(others[0], b).as_ptr();
        for &j in &others {
            assert_eq!(c.read(j, b), image, "node {j} observed node {k}'s write");
            assert_eq!(c.read(j, b).as_ptr(), at, "node {j} stopped sharing");
        }
        assert_ne!(c.read(k, b).as_ptr(), at);
        assert_ne!(c.read(k, b), image);
    }

    const BUMP: &str = "__global__ void bump(int* src, int* out) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        out[id] = src[id] + 1;
    }";

    /// `BUMP`'s input: the restored `src` of 64 blocks of 32 threads.
    fn bump_src() -> Vec<u8> {
        (0..64 * 32)
            .flat_map(|i: i32| (3 * i).to_le_bytes())
            .collect()
    }

    /// Run `BUMP` over all 64 blocks on node `k` alone, through the engine
    /// selected by `opts`, on a 4-node cluster restored with `src` and
    /// `out`. Node `k` must have read `src` and written `out`; returns the
    /// cluster, both buffers and `out`'s restored image.
    fn bump_on_node(k: usize, opts: &ExecOptions) -> (SimCluster, BufferId, BufferId, Vec<u8>) {
        let kernel = parse_kernel(BUMP).unwrap();
        let launch = LaunchConfig::new(64u32, 32u32);
        let img = image(64 * 32 * 4);
        let mut c = small_cluster(4);
        let src = c.alloc_from(&bump_src());
        let out = c.alloc_from(&img);
        let mut ranges = vec![0..0u64; 4];
        ranges[k] = 0..launch.num_blocks();
        let args = [Arg::Buffer(src), Arg::Buffer(out)];
        c.run_blocks_parallel_opts(&kernel, launch, &ranges, &args, opts)
            .unwrap();
        let want: Vec<i32> = (0..64 * 32).map(|i| 3 * i + 1).collect();
        assert_eq!(c.node(k).read_i32(out), want);
        (c, src, out, img)
    }

    /// `b` holds `want` on every node, at one shared address.
    fn one_copy_everywhere(c: &SimCluster, b: BufferId, want: &[u8]) {
        let at = c.read(0, b).as_ptr();
        for j in 0..c.num_nodes() {
            assert_eq!(c.read(j, b), want, "node {j}");
            assert_eq!(c.read(j, b).as_ptr(), at, "node {j} stopped sharing");
        }
    }

    #[test]
    fn restore_shares_one_copy_and_bytes_mut_or_store_unshare_one_node() {
        let img = image(64);
        let mut c = small_cluster(4);
        let b = c.alloc_from(&img);
        one_copy_everywhere(&c, b, &img);
        c.node_mut(1).bytes_mut(b)[5] = 0;
        only_node_wrote(&c, b, 1, &img);
        let mut c = small_cluster(4);
        let b = c.alloc_from(&img);
        assert!(c.node_mut(2).store(b, Scalar::I32, 3, Value::I64(-1)));
        only_node_wrote(&c, b, 2, &img);
    }

    #[test]
    fn write_all_over_a_restored_buffer_replaces_it_on_one_node() {
        let img = image(64);
        let mut c = small_cluster(4);
        let b = c.alloc_from(&img);
        let data: Vec<u8> = img.iter().map(|v| v ^ 0xff).collect();
        c.node_mut(2).write_all(b, &data);
        assert_eq!(c.read(2, b), &data[..]);
        only_node_wrote(&c, b, 2, &img);
    }

    #[test]
    fn a_serial_launch_unshares_only_what_it_writes_on_the_node_that_runs() {
        // One worker: the engine reaches the pool through `GlobalMem::raw`
        // for loads and `GlobalMem::raw_mut` for stores.
        let (c, src, out, img) = bump_on_node(3, &ExecOptions::default());
        only_node_wrote(&c, out, 3, &img);
        one_copy_everywhere(&c, src, &bump_src());
        let tree = ExecOptions {
            engine: EngineKind::TreeWalk,
            ..ExecOptions::default()
        };
        let (c, src, out, img) = bump_on_node(1, &tree);
        only_node_wrote(&c, out, 1, &img);
        one_copy_everywhere(&c, src, &bump_src());
    }

    #[test]
    fn a_chunked_launch_unshares_only_what_it_writes_on_the_node_that_runs() {
        // Four chunks of 16 blocks: the workers share one `RacyView`.
        let opts = ExecOptions {
            engine: EngineKind::Lane,
            node_threads: 4,
            block_parallel: true,
        };
        let (c, src, out, img) = bump_on_node(0, &opts);
        only_node_wrote(&c, out, 0, &img);
        one_copy_everywhere(&c, src, &bump_src());
    }

    #[test]
    fn a_gather_among_a_subset_leaves_the_rest_shared() {
        let img = image(16);
        let mut c = small_cluster(4);
        let b = c.alloc_from(&img);
        c.node_mut(2).bytes_mut(b)[..8].fill(0);
        let plan = GatherPlan::new(
            &[8, 8],
            &c.spec.net,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        );
        // Node 2 owns the first half; node 1 receives it.
        c.gather_segments(b, 0, &GatherSegment::contiguous(&[8, 8]), &[1, 2], &plan);
        assert_eq!(c.read(1, b), c.read(2, b));
        assert_ne!(c.read(1, b).as_ptr(), c.read(2, b).as_ptr());
        let at = c.read(0, b).as_ptr();
        assert_eq!((c.read(0, b), c.read(3, b)), (&img[..], &img[..]));
        assert_eq!(c.read(3, b).as_ptr(), at);
    }

    #[test]
    fn restored_nodes_keep_their_own_partial_writes_and_share_what_they_only_read() {
        // Restore onto 4 nodes, then the partial phase of a three-phase
        // launch on every node, on both engine paths: node i runs blocks
        // 16i..16i+16, and no gather has run yet.
        let chunked = ExecOptions {
            engine: EngineKind::Lane,
            node_threads: 4,
            block_parallel: true,
        };
        for opts in [ExecOptions::default(), chunked] {
            let kernel = parse_kernel(BUMP).unwrap();
            let launch = LaunchConfig::new(64u32, 32u32);
            let img = image(64 * 32 * 4);
            let mut c = small_cluster(4);
            let src = c.alloc_from(&bump_src());
            let out = c.alloc_from(&img);
            let aux = c.alloc_from(&image(32));
            let ranges: Vec<_> = (0..4u64).map(|i| 16 * i..16 * (i + 1)).collect();
            let args = [Arg::Buffer(src), Arg::Buffer(out)];
            c.run_blocks_parallel_opts(&kernel, launch, &ranges, &args, &opts)
                .unwrap();
            for node in 0..4 {
                let mut want = img.clone();
                let own = node * 16 * 32 * 4..(node + 1) * 16 * 32 * 4;
                for (t, w) in want[own.clone()].chunks_exact_mut(4).enumerate() {
                    let id = (node * 16 * 32 + t) as i32;
                    w.copy_from_slice(&(3 * id + 1).to_le_bytes());
                }
                assert_eq!(c.read(node, out), &want[..], "node {node}");
            }
            // What the launch only read, and what it never touched, is
            // still one copy.
            one_copy_everywhere(&c, src, &bump_src());
            one_copy_everywhere(&c, aux, &image(32));
        }
    }

    #[test]
    fn typed_helpers_via_node_pools() {
        let mut c = small_cluster(2);
        let b = c.alloc(8);
        c.node_mut(1).write_f32(b, &[1.0, 2.0]);
        assert_eq!(c.node(1).read_f32(b), vec![1.0, 2.0]);
        assert_eq!(c.node(0).read_f32(b), vec![0.0, 0.0]);
        let _ = Scalar::F32;
    }
}
