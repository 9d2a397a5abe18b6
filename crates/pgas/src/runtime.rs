//! The PGAS migration runtime.
//!
//! Executes a compiled GPU kernel the way Listing 3 does: blocks are split
//! contiguously across ranks, written global buffers become distributed
//! global arrays, and **every element store is one asynchronous
//! `remote_put`** priced by the [`cucc_net::P2pTracker`]. Functional
//! execution really replays the traced writes so results can be compared
//! byte-for-byte with the GPU reference.

use crate::global::{Distribution, GlobalArray};
use cucc_cluster::{block_compute_time, node_time_profiled, ClusterSpec, SimCluster};
use cucc_core::{check_transfer, host_transfer_time, CompiledKernel, MigrateError, ProgramBackend};
use cucc_exec::{execute_block_traced, profile_launch, Arg, BufferId, WriteRecord};
use cucc_ir::LaunchConfig;
use cucc_net::{barrier_time, broadcast_traced, P2pTracker};
use cucc_trace::{Category, Timeline, Track, WIRE_BYTES};

/// Execution fidelity, mirroring `cucc_core::ExecutionFidelity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PgasFidelity {
    /// Trace every block, replay writes, verify functionally.
    Functional,
    /// Sampled profile, traffic extrapolated analytically.
    Modeled,
}

/// PGAS runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgasConfig {
    /// Functional vs modeled execution.
    pub fidelity: PgasFidelity,
    /// Layout of the distributed arrays.
    pub dist: Distribution,
    /// Blocks sampled per profile in modeled mode.
    pub profile_samples: usize,
}

impl Default for PgasConfig {
    fn default() -> PgasConfig {
        PgasConfig {
            fidelity: PgasFidelity::Functional,
            dist: Distribution::Cyclic,
            profile_samples: 3,
        }
    }
}

impl PgasConfig {
    /// Timing-only configuration.
    pub fn modeled() -> PgasConfig {
        PgasConfig {
            fidelity: PgasFidelity::Modeled,
            ..PgasConfig::default()
        }
    }
}

/// Outcome of one PGAS launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgasReport {
    /// Compute portion (max over ranks), seconds.
    pub compute: f64,
    /// Communication portion (put injection/reception + quiescence).
    pub comm: f64,
    /// Remote messages issued.
    pub messages: u64,
    /// Remote payload bytes.
    pub wire_bytes: u64,
    /// Blocks per rank (ceiling).
    pub blocks_per_rank: u64,
}

impl PgasReport {
    /// Total simulated time.
    pub fn time(&self) -> f64 {
        self.compute + self.comm
    }
}

/// A PGAS-backed cluster runtime with the same surface as `CuccCluster`.
#[derive(Debug, Clone)]
pub struct PgasCluster {
    sim: SimCluster,
    config: PgasConfig,
    /// Unified event record; owns the simulated clock (see `cucc-trace`).
    timeline: Timeline,
    /// Logical rank count; modeled mode materializes only one node memory.
    logical_nodes: usize,
}

impl PgasCluster {
    /// Build a PGAS runtime over the given cluster.
    pub fn new(spec: ClusterSpec, config: PgasConfig) -> PgasCluster {
        let logical_nodes = spec.nodes as usize;
        let sim_spec = if config.fidelity == PgasFidelity::Modeled {
            spec.with_nodes(1)
        } else {
            spec
        };
        PgasCluster {
            sim: SimCluster::new(sim_spec),
            config,
            timeline: Timeline::new(),
            logical_nodes,
        }
    }

    /// Number of (logical) ranks.
    pub fn num_nodes(&self) -> usize {
        self.logical_nodes
    }

    /// Simulated elapsed seconds (derived from the trace timeline).
    pub fn clock(&self) -> f64 {
        self.timeline.clock()
    }

    /// The recorded trace timeline (spans, counters, simulated clock).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Allocate a global array's backing storage (replicated per node, with
    /// virtual PGAS ownership).
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        self.sim.alloc(bytes)
    }

    /// Host→device broadcast (recorded on the timeline, wire traffic
    /// included).
    pub fn h2d(&mut self, buf: BufferId, data: &[u8]) {
        self.sim.write_all(buf, data);
        let t0 = self.timeline.clock();
        let bt = broadcast_traced(
            &self.sim.spec.net,
            self.logical_nodes,
            data.len() as u64,
            &mut self.timeline,
            t0,
            "h2d broadcast",
        );
        self.timeline
            .span("h2d", Track::Host, Category::H2d, t0, bt);
        self.timeline.advance(bt);
    }

    /// Read back from rank 0 (free, but recorded on the host track).
    pub fn d2h(&mut self, buf: BufferId) -> Vec<u8> {
        let t = self.timeline.clock();
        self.timeline
            .span("d2h", Track::Host, Category::D2h, t, 0.0);
        self.sim.read(0, buf).to_vec()
    }

    /// Contiguous block partition: rank `i` executes
    /// `[i·⌈B/N⌉, min((i+1)·⌈B/N⌉, B))`.
    fn block_range(&self, rank: usize, num_blocks: u64) -> std::ops::Range<u64> {
        let n = self.logical_nodes as u64;
        let per = num_blocks.div_ceil(n);
        let lo = (rank as u64 * per).min(num_blocks);
        let hi = ((rank as u64 + 1) * per).min(num_blocks);
        lo..hi
    }

    /// Launch a kernel with the PGAS migration.
    pub fn launch(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<PgasReport, MigrateError> {
        if launch.num_blocks() == 0 {
            return Err(MigrateError::Launch("empty grid".into()));
        }
        let n = self.logical_nodes;
        let num_blocks = launch.num_blocks();
        let bpr = num_blocks.div_ceil(n as u64);
        let cpu = self.sim.spec.cpu.clone();
        let net = self.sim.spec.net;
        let mut tracker = P2pTracker::new(n, net);

        // Distributed arrays: every written global buffer.
        let written = ck.kernel.written_global_buffers();
        let arrays: Vec<(u32, GlobalArray)> = written
            .iter()
            .map(|p| {
                let Arg::Buffer(id) = args[p.index()] else {
                    panic!("buffer parameter bound to scalar (caught by exec)")
                };
                let elem = ck.kernel.params[p.index()].scalar().size();
                let len = self.sim.node(0).size_of(id) / elem;
                (p.0, GlobalArray::new(elem, len, self.config.dist))
            })
            .collect();
        let array_of = |param: u32| -> &GlobalArray {
            &arrays
                .iter()
                .find(|(p, _)| *p == param)
                .expect("write to undeclared buffer")
                .1
        };

        // Profile for compute timing (both modes).
        let profile = profile_launch(
            &ck.kernel,
            launch,
            args,
            self.sim.node(0),
            self.config.profile_samples,
        )?;
        let simd_eff = ck.analysis.simd.efficiency;
        let bt_full = block_compute_time(&profile.per_block, simd_eff, &cpu);
        let bt_tail = block_compute_time(&profile.tail_block, simd_eff, &cpu);
        // A kernel is "staged" when it round-trips a substantial share of its
        // global traffic through emulated shared-memory tiles (transpose-like
        // reshaping) — small reduction scratchpads don't count.
        let staged = profile.per_block.shared_bytes * 4 >= profile.per_block.global_bytes().max(1);
        // The busiest rank: rank 0 holds ⌈B/N⌉ full blocks.
        let compute = node_time_profiled(
            bt_full,
            bpr,
            None,
            bpr * profile.per_block.global_bytes(),
            staged,
            &cpu,
        )
        .max(node_time_profiled(
            bt_full,
            0,
            Some(bt_tail),
            0,
            staged,
            &cpu,
        )) * (1.0 + self.sim.spec.jitter * (n - 1) as f64);

        match self.config.fidelity {
            PgasFidelity::Functional => {
                // Trace each rank's blocks on its own memory, price each
                // global store as a put to the owner rank.
                let mut all_traces: Vec<Vec<WriteRecord>> = Vec::with_capacity(n);
                for rank in 0..n {
                    let range = self.block_range(rank, num_blocks);
                    let mut trace = Vec::new();
                    for b in range {
                        execute_block_traced(
                            &ck.kernel,
                            launch,
                            b,
                            args,
                            self.sim.node_mut(rank),
                            &mut trace,
                        )?;
                    }
                    for w in &trace {
                        let owner = array_of(w.param).owner_of_byte(w.byte_off, n);
                        tracker.put(rank, owner, w.bytes as u64);
                    }
                    all_traces.push(trace);
                }
                // Deliver the puts: apply every rank's writes (in rank and
                // block order — a valid GPU block order) to a master image,
                // then install it everywhere. This is the quiesced state a
                // real PGAS runtime reaches at the end-of-kernel barrier.
                for &(param, _) in &arrays {
                    let Arg::Buffer(id) = args[param as usize] else {
                        unreachable!()
                    };
                    let mut master = self.sim.read(0, id).to_vec();
                    for (rank, trace) in all_traces.iter().enumerate() {
                        let src = self.sim.read(rank, id).to_vec();
                        for w in trace.iter().filter(|w| w.param == param) {
                            let lo = w.byte_off as usize;
                            let hi = lo + w.bytes as usize;
                            master[lo..hi].copy_from_slice(&src[lo..hi]);
                        }
                    }
                    self.sim.write_all(id, &master);
                }
            }
            PgasFidelity::Modeled => {
                // Extrapolate traffic from the sampled profile: every store
                // is one put; ownership spreads them (N−1)/N remote,
                // uniformly across peers under the cyclic layout.
                for rank in 0..n {
                    let range = self.block_range(rank, num_blocks);
                    let blocks = range.end.saturating_sub(range.start);
                    if blocks == 0 {
                        continue;
                    }
                    let has_tail = range.end == num_blocks && num_blocks > 0;
                    let full = blocks - u64::from(has_tail);
                    let mut stores = profile.per_block.global_stores * full;
                    let mut bytes = profile.per_block.global_write_bytes * full;
                    if has_tail {
                        stores += profile.tail_block.global_stores;
                        bytes += profile.tail_block.global_write_bytes;
                    }
                    if stores == 0 {
                        continue;
                    }
                    let avg = (bytes / stores).max(1);
                    if n > 1 {
                        let per_peer = stores / n as u64; // (N−1)/N remote, spread
                        for peer in 0..n {
                            if peer != rank {
                                tracker.put_many(rank, peer, avg, per_peer);
                            }
                        }
                    }
                }
            }
        }

        let comm = tracker.completion_time() + barrier_time(&net, n);
        let messages = tracker.stats().total_messages();
        let wire_bytes = tracker.stats().total_bytes();

        // Lay the launch out on the timeline: per-rank compute spans, then
        // one network span covering put delivery + the end-of-kernel
        // barrier, with the remote payload as a wire-byte counter.
        let t0 = self.timeline.clock();
        let mark = self.timeline.checkpoint();
        for rank in 0..n {
            self.timeline.span(
                format!("{}: compute ({bpr} blocks)", ck.name()),
                Track::Node(rank as u32),
                Category::Compute,
                t0,
                compute,
            );
        }
        self.timeline.span(
            format!("{}: puts + barrier ({messages} msgs)", ck.name()),
            Track::Network,
            Category::P2p,
            t0 + compute,
            comm,
        );
        if wire_bytes > 0 {
            self.timeline
                .counter(WIRE_BYTES, Track::Network, t0 + compute, wire_bytes);
        }
        profile
            .total
            .emit_counters(&mut self.timeline, Track::Host, t0);

        // Derived views over the recorded window, with the invariant that
        // they reproduce the directly computed values bit-for-bit.
        let report = PgasReport {
            compute: self.timeline.max_in_since(mark, Category::Compute),
            comm: self.timeline.time_in_since(mark, Category::P2p),
            messages,
            wire_bytes: self.timeline.wire_bytes_since(mark),
            blocks_per_rank: bpr,
        };
        assert_eq!(report.compute.to_bits(), compute.to_bits());
        assert_eq!(report.comm.to_bits(), comm.to_bits());
        assert_eq!(report.wire_bytes, wire_bytes);
        self.timeline.advance(report.time());
        Ok(report)
    }
}

impl ProgramBackend for PgasCluster {
    fn prog_alloc(&mut self, bytes: usize) -> BufferId {
        self.alloc(bytes)
    }
    fn prog_h2d(&mut self, buf: BufferId, data: &[u8]) -> Result<(), MigrateError> {
        check_transfer(self.sim.node(0), buf, Some(data.len()))?;
        self.h2d(buf, data);
        Ok(())
    }
    fn prog_d2h(&mut self, buf: BufferId) -> Result<Vec<u8>, MigrateError> {
        check_transfer(self.sim.node(0), buf, None)?;
        Ok(self.d2h(buf))
    }
    fn prog_launch(
        &mut self,
        kernel: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, MigrateError> {
        Ok(self.launch(kernel, launch, args)?.time())
    }
    fn prog_transfer_time(&self) -> f64 {
        host_transfer_time(&self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_core::compile_source;
    use cucc_gpu_model::{GpuDevice, GpuSpec};

    const LISTING1: &str = "__global__ void vec_copy(char* src, char* dest, int n) {
        int id = blockDim.x * blockIdx.x + threadIdx.x;
        if (id < n) dest[id] = src[id];
    }";

    fn spec(n: u32) -> ClusterSpec {
        ClusterSpec::simd_focused().with_nodes(n)
    }

    #[test]
    fn functional_matches_gpu_reference() {
        let ck = compile_source(LISTING1).unwrap();
        let n = 3000usize;
        let data: Vec<u8> = (0..n).map(|i| (i * 13 % 256) as u8).collect();
        let launch = LaunchConfig::cover1(n as u64, 256);

        let mut gpu = GpuDevice::new(GpuSpec::a100());
        let gs = gpu.alloc(n);
        let gd = gpu.alloc(n);
        gpu.h2d(gs, &data);
        gpu.launch(
            &ck.kernel,
            launch,
            &[Arg::Buffer(gs), Arg::Buffer(gd), Arg::int(n as i64)],
        )
        .unwrap();
        let reference = gpu.d2h(gd);

        for nodes in [1u32, 2, 4, 5] {
            let mut pg = PgasCluster::new(spec(nodes), PgasConfig::default());
            let ps = pg.alloc(n);
            let pd = pg.alloc(n);
            pg.h2d(ps, &data);
            let report = pg
                .launch(
                    &ck,
                    launch,
                    &[Arg::Buffer(ps), Arg::Buffer(pd), Arg::int(n as i64)],
                )
                .unwrap();
            assert_eq!(pg.d2h(pd), reference, "nodes={nodes}");
            if nodes > 1 {
                // Cyclic layout: ~ (N−1)/N of the 3000 writes are remote.
                let expected = (n as f64 * (nodes as f64 - 1.0) / nodes as f64).round() as i64;
                let got = report.messages as i64;
                assert!(
                    (got - expected).abs() <= n as i64 / 20,
                    "nodes={nodes}: {got} msgs vs ~{expected}"
                );
            }
        }
    }

    #[test]
    fn per_element_puts_make_pgas_slow() {
        // Listing 1 on 2 nodes: PGAS pays ~N/2 put overheads; a single
        // Allgather is orders of magnitude cheaper. We compare against
        // the CuCC runtime on an identical cluster.
        use cucc_core::{CuccCluster, RuntimeConfig};
        let ck = compile_source(LISTING1).unwrap();
        let n = 100_000usize;
        let launch = LaunchConfig::cover1(n as u64, 256);

        let mut pg = PgasCluster::new(spec(4), PgasConfig::modeled());
        let ps = pg.alloc(n);
        let pd = pg.alloc(n);
        let pr = pg
            .launch(
                &ck,
                launch,
                &[Arg::Buffer(ps), Arg::Buffer(pd), Arg::int(n as i64)],
            )
            .unwrap();

        let mut cc = CuccCluster::with_options(spec(4), RuntimeConfig::modeled());
        let cs = cc.alloc(n);
        let cd = cc.alloc(n);
        let cr = cc
            .launch(
                &ck,
                launch,
                &[Arg::Buffer(cs), Arg::Buffer(cd), Arg::int(n as i64)],
            )
            .unwrap();

        assert!(
            pr.time() / cr.time() > 10.0,
            "pgas {} vs cucc {}",
            pr.time(),
            cr.time()
        );
    }

    #[test]
    fn sparse_writers_close_to_cucc() {
        // BinomialOption shape: one scalar per block — PGAS and CuCC should
        // be in the same ballpark (paper §7.3).
        use cucc_core::{CuccCluster, RuntimeConfig};
        let src = "__global__ void k(float* out, int iters) {
            float acc = 0.0f;
            for (int i = 0; i < iters; i++)
                acc += 0.5f;
            if (threadIdx.x == 0)
                out[blockIdx.x] = acc;
        }";
        let ck = compile_source(src).unwrap();
        let blocks = 1024u32;
        let launch = LaunchConfig::new(blocks, 128u32);
        let args_of = |out| [Arg::Buffer(out), Arg::int(5000)];

        let mut pg = PgasCluster::new(spec(4), PgasConfig::modeled());
        let po = pg.alloc(blocks as usize * 4);
        let pr = pg.launch(&ck, launch, &args_of(po)).unwrap();

        let mut cc = CuccCluster::with_options(spec(4), RuntimeConfig::modeled());
        let co = cc.alloc(blocks as usize * 4);
        let cr = cc.launch(&ck, launch, &args_of(co)).unwrap();

        let ratio = pr.time() / cr.time();
        assert!(ratio < 1.5 && ratio > 0.6, "ratio {ratio}");
    }

    #[test]
    fn memory_heavy_kernel_slows_down_vs_single_node() {
        // Figure 4's signature: scaling a copy kernel with PGAS makes it
        // slower than single-node execution (comm dwarfs compute savings).
        let ck = compile_source(LISTING1).unwrap();
        let n = 1_000_000usize;
        let launch = LaunchConfig::cover1(n as u64, 256);
        let mut times = Vec::new();
        for nodes in [1u32, 2, 8, 32] {
            let mut pg = PgasCluster::new(spec(nodes), PgasConfig::modeled());
            let ps = pg.alloc(n);
            let pd = pg.alloc(n);
            let r = pg
                .launch(
                    &ck,
                    launch,
                    &[Arg::Buffer(ps), Arg::Buffer(pd), Arg::int(n as i64)],
                )
                .unwrap();
            times.push(r.time());
        }
        assert!(
            times[1] > times[0],
            "2-node PGAS should be slower than 1-node: {times:?}"
        );
        assert!(times[3] > times[0], "32-node still slower: {times:?}");
    }

    #[test]
    fn block_ranges_cover_grid() {
        let pg = PgasCluster::new(spec(5), PgasConfig::default());
        let total = 313u64;
        let mut covered = 0u64;
        let mut prev_end = 0;
        for r in 0..5 {
            let range = pg.block_range(r, total);
            assert_eq!(range.start, prev_end);
            prev_end = range.end;
            covered += range.end - range.start;
        }
        assert_eq!(covered, total);
        assert_eq!(prev_end, total);
    }
}
