//! Launch-time distribution planning.
//!
//! The static analysis ([`crate::distributable`]) works symbolically; once a
//! concrete launch configuration and argument list are known, the planner
//! resolves the metadata into an executable [`ThreePhasePlan`]:
//!
//! * tail guards are evaluated to the number of **full blocks** `F` (blocks
//!   whose guard is true for every thread — the rest are callback blocks);
//! * a distribution **chunk size** `G` is chosen (1 for 1-D kernels; a grid
//!   row/plane for 2-D/3-D kernels whose per-block footprints interleave but
//!   whose row-band footprints are dense);
//! * the chunk footprints must be dense, equal-length and advance linearly
//!   with the chunk index — the *balanced* and *in-place* requirements of
//!   §6. They are read off the launch-resolved write footprint
//!   ([`crate::footprint`]) alone: the planner reads no memory and runs no
//!   block. A launch whose footprint does not prove them falls back to
//!   replicated execution, naming the condition that failed
//!   ([`ReplicationCause::Unproven`]).
//!
//! This is the paper's observation that "metadata values are based on
//! symbolic analysis; thus, for programs with runtime-dependent values, CuCC
//! can still perform the migration" (§5): the symbols are resolved at launch.
//! Whether a block can trap is not asked. A trapping block fails the launch
//! under any plan with the same error, because each node runs its blocks in
//! ascending order and the first error in node order is the one returned.

use crate::distributable::{GatherBuffer, KernelMeta, TailGuard, Verdict};
use crate::footprint::{LaunchEnv, LaunchFootprints, ResolvedForm};
use crate::verify::{analyze_block_races, PropertyVerdict, Severity};
use cucc_exec::interp::check_args;
use cucc_exec::{Arg, MemPool};
use cucc_ir::{Kernel, LaunchConfig, ParamId};
use std::collections::BTreeMap;
use std::fmt;

/// The gathered byte region of one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRegion {
    /// Which buffer parameter.
    pub param: ParamId,
    /// Byte offset where chunk 0's writes begin.
    pub base: u64,
    /// Bytes written per chunk (the Allgather `unit_size` of Figure 6,
    /// scaled to chunk granularity).
    pub unit: u64,
}

/// Why a launch executes replicated instead of distributed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationCause {
    /// The static analysis already said trivial.
    NotDistributable(Vec<crate::distributable::Reason>),
    /// Tail guards leave no full blocks to distribute.
    NoFullBlocks,
    /// The launch-resolved footprint does not prove the chunks balanced and
    /// in place; the message names the condition that failed.
    Unproven(String),
    /// The kernel verifier found a possible or proven inter-block
    /// write-write race: distributing would make the result depend on node
    /// execution order, so the launch is replicated instead.
    RaceHazard(crate::verify::Severity, String),
    /// A node died mid-launch and the dead node's chunks could not be
    /// re-partitioned across the survivors without breaking Allgather
    /// balance, so the launch degraded to replicated execution on the
    /// surviving nodes.
    NodeLoss(String),
}

impl fmt::Display for ReplicationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationCause::NotDistributable(rs) => {
                write!(f, "not Allgather distributable (")?;
                for (i, r) in rs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, ")")
            }
            ReplicationCause::NoFullBlocks => write!(f, "no full blocks to distribute"),
            ReplicationCause::Unproven(m) => write!(f, "distribution not proven: {m}"),
            ReplicationCause::RaceHazard(sev, m) => write!(f, "{sev} write-race hazard: {m}"),
            ReplicationCause::NodeLoss(m) => write!(f, "node loss: {m}"),
        }
    }
}

/// Executable distribution plan for one launch.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Every node executes every block (trivial Allgather distribution).
    Replicated(ReplicationCause),
    /// The CuCC three-phase workflow applies.
    ThreePhase(ThreePhasePlan),
}

impl Plan {
    /// The three-phase plan, if any.
    pub fn three_phase(&self) -> Option<&ThreePhasePlan> {
        match self {
            Plan::ThreePhase(p) => Some(p),
            Plan::Replicated(_) => None,
        }
    }
}

/// Concrete three-phase execution geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreePhasePlan {
    /// Total blocks in the launch.
    pub num_blocks: u64,
    /// Chunk granularity in blocks (consecutive linear block ids).
    pub chunk_blocks: u64,
    /// Number of *full* chunks eligible for phase 1.
    pub full_chunks: u64,
    /// Gathered regions, one per synchronized buffer.
    pub buffers: Vec<BufferRegion>,
}

/// The per-node split of a [`ThreePhasePlan`] for an `n`-node cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Chunks assigned to each node in phase 1 (`p_size` of Figure 6, in
    /// chunks).
    pub chunks_per_node: u64,
    /// Blocks each node executes in phase 1: node `i` runs linear blocks
    /// `[i·chunks_per_node·G, (i+1)·chunks_per_node·G)`.
    pub partial_blocks_per_node: u64,
    /// First callback block (all blocks from here to `num_blocks` run on
    /// every node in phase 3).
    pub callback_start: u64,
    /// Total number of callback blocks.
    pub callback_blocks: u64,
}

impl ThreePhasePlan {
    /// Split the plan across `n_nodes`, mirroring the paper's arithmetic:
    /// `p_size = ⌊full/n⌋`, remainder and tail blocks become callbacks
    /// (§7.2's Kmeans walk-through: 313 blocks on 16 nodes → 19 partial + 9
    /// callback; on 32 nodes → 9 partial + 25 callback).
    pub fn partition(&self, n_nodes: u64) -> Partition {
        assert!(n_nodes > 0, "cluster must have at least one node");
        let chunks_per_node = self.full_chunks / n_nodes;
        let partial_blocks_per_node = chunks_per_node * self.chunk_blocks;
        let callback_start = partial_blocks_per_node * n_nodes;
        Partition {
            chunks_per_node,
            partial_blocks_per_node,
            callback_start,
            callback_blocks: self.num_blocks - callback_start,
        }
    }

    /// Bytes each node contributes to the Allgather for an `n`-node cluster
    /// (summed over buffers).
    pub fn bytes_per_node(&self, n_nodes: u64) -> u64 {
        let part = self.partition(n_nodes);
        self.buffers
            .iter()
            .map(|b| b.unit * part.chunks_per_node)
            .sum()
    }
}

/// Number of *full blocks* under a tail guard: the leading linear blocks
/// whose guard holds for every thread. Returns `None` when the guard
/// structure cannot be resolved for this launch (unresolvable or shrinking
/// block coefficients).
pub fn full_blocks_under_guard(
    guard: &TailGuard,
    launch: LaunchConfig,
    args: &[Arg],
) -> Option<u64> {
    LaunchEnv::new(launch, args).full_blocks(guard)
}

/// Per-buffer `(base, len)` in bytes of what one chunk writes.
type ChunkFootprint = BTreeMap<u32, (u64, u64)>;

/// Each buffer's exact write sites, resolved against the launch; a buffer
/// none of whose sites executes is absent.
type ExactSites = BTreeMap<ParamId, Vec<ResolvedForm>>;

/// Choose the chunk granularity and the gathered regions — the one
/// statement of what the §6 *balanced, in-place* requirement asks of a
/// launch. For each candidate granularity (single block, grid row, grid
/// plane), chunks 0, middle and last-full must each write one dense
/// interval per buffer ([`chunk_footprint`]), and the later chunks must be
/// linear translates of chunk 0 (a chunk named twice is checked twice, to
/// the same answer). `Err` says why the last candidate failed.
fn derive_regions(
    launch: LaunchConfig,
    full_blocks: u64,
    buffers: &[GatherBuffer],
    sites: &ExactSites,
) -> Result<ThreePhasePlan, String> {
    let (gx, gy) = (launch.grid.x as u64, launch.grid.y as u64);
    let candidates = [(true, 1), (gy > 1, gx), (launch.grid.z > 1, gx * gy)];
    let mut last_err = String::new();
    'cand: for (_, g) in candidates.into_iter().filter(|c| c.0) {
        let full_chunks = full_blocks / g;
        if full_chunks == 0 {
            continue;
        }
        let mut baseline: Option<ChunkFootprint> = None;
        for chunk in [0, full_chunks / 2, full_chunks - 1] {
            let fp = match chunk_footprint(launch, buffers, sites, g, chunk) {
                Ok(fp) => fp,
                Err(e) => {
                    last_err = e;
                    continue 'cand;
                }
            };
            let Some(base) = &baseline else {
                baseline = Some(fp);
                continue;
            };
            // Same buffers, same lengths, base advanced by chunk·unit.
            if !fp.keys().eq(base.keys()) {
                last_err = format!("chunk {chunk} writes other buffers than chunk 0");
                continue 'cand;
            }
            for ((param, (b0, u0)), (bc, uc)) in base.iter().zip(fp.values()) {
                if uc != u0 || *bc != b0 + chunk * u0 {
                    last_err = format!(
                        "buffer p{param}: chunk {chunk} footprint ({bc},{uc}) is not \
                         a translate of chunk 0 ({b0},{u0})"
                    );
                    continue 'cand;
                }
            }
        }
        let buffers: Vec<BufferRegion> = baseline
            .into_iter()
            .flatten()
            .map(|(param, (base, unit))| BufferRegion {
                param: ParamId(param),
                base,
                unit,
            })
            .collect();
        if buffers.is_empty() {
            last_err = "chunks write nothing".into();
            continue;
        }
        return Ok(ThreePhasePlan {
            num_blocks: launch.num_blocks(),
            chunk_blocks: g,
            full_chunks,
            buffers,
        });
    }
    Err(last_err)
}

/// What chunk `chunk` of `g` blocks writes: per buffer, the union of its
/// sites' exact intervals, which must be one gapless interval — or why not.
fn chunk_footprint(
    launch: LaunchConfig,
    buffers: &[GatherBuffer],
    sites: &ExactSites,
    g: u64,
    chunk: u64,
) -> Result<ChunkFootprint, String> {
    let mut fp = ChunkFootprint::new();
    for buf in buffers {
        let (p, elem) = (buf.param.0, buf.elem_size as u64);
        let Some(forms) = sites.get(&buf.param) else {
            continue;
        };
        let gap = || format!("buffer p{p}: chunk {chunk} of {g} block(s) writes with a gap");
        let mut spans = forms
            .iter()
            .map(|form| chunk_interval(form, launch, g, chunk).ok_or_else(gap))
            .collect::<Result<Vec<_>, _>>()?;
        spans.sort_unstable();
        let (lo, mut hi) = spans[0];
        for &(s, e) in &spans[1..] {
            if s > hi + 1 {
                return Err(gap());
            }
            hi = hi.max(e);
        }
        let len = (hi - lo + 1) as u64;
        let lo = u64::try_from(lo).map_err(|_| format!("buffer p{p}: negative write offset"))?;
        fp.insert(p, (lo * elem, len * elem));
    }
    Ok(fp)
}

/// The exact element interval `form` writes over chunk `chunk` of `g`
/// blocks when every thread and iteration stores, or `None` when that set
/// has a gap.
fn chunk_interval(
    form: &ResolvedForm,
    launch: LaunchConfig,
    g: u64,
    chunk: u64,
) -> Option<(i128, i128)> {
    let (gx, gy) = (launch.grid.x as u64, launch.grid.y as u64);
    let extent = [
        if g >= gx { gx } else { 1 },
        if g >= gx * gy { gy } else { 1 },
        1,
    ];
    form.dense_over(launch.grid.delinearize(chunk * g), extent)
}

/// Read `(base, unit)` per gathered buffer off the resolved write sites.
/// The conditions, the failing one named in the `Err`:
///
/// * no `return`, no barrier under non-uniform control, no narrowing
///   integer cast — in a full block every thread and iteration that does
///   not trap performs every store the forms say;
/// * every write site exact ([`LaunchFootprints::exact_write`]), so its
///   offset set is what the chunk writes;
/// * for some chunk granularity, each buffer's sites gapless over the chunk
///   and their union one interval that advances by one unit per chunk
///   ([`derive_regions`]).
fn static_regions(
    kernel: &Kernel,
    meta: &KernelMeta,
    fps: &LaunchFootprints,
    args: &[Arg],
    full_blocks: u64,
) -> Result<ThreePhasePlan, String> {
    let acc = &meta.accesses;
    if !acc.no_return {
        return Err("a thread may `return` before its stores".into());
    }
    if !acc.faithful {
        return Err("a barrier under non-uniform control or a narrowing integer cast".into());
    }
    check_args(kernel, args).map_err(|e| e.to_string())?;
    let mut sites = ExactSites::new();
    for (n, (i, param, a)) in acc.writes().enumerate() {
        let form = fps
            .exact_write(i, a)
            .map_err(|why| format!("write #{n}: {why}"))?;
        if let Some(form) = form {
            sites.entry(param).or_default().push(form);
        }
    }
    derive_regions(fps.env.launch, full_blocks, &meta.buffers, &sites)
}

/// A gathered buffer that is bound to a second buffer parameter too. The
/// footprint speaks per parameter, so it cannot see a block read, through
/// the other name, what another block wrote — on another node, that read
/// finds a stale copy. Names both parameters.
fn aliased_write(kernel: &Kernel, meta: &KernelMeta, args: &[Arg]) -> Option<String> {
    let name = |i: usize| kernel.params[i].name();
    meta.buffers.iter().find_map(|gb| {
        let w = gb.param.index();
        let bound = *args.get(w)?;
        let other = (0..args.len()).find(|&i| i != w && args[i] == bound)?;
        Some(format!(
            "written buffer `{}` is also bound to `{}`",
            name(w),
            name(other)
        ))
    })
}

/// What must hold before regions are worth deriving: no gathered buffer is
/// bound to two parameters, every tail guard resolves, at least one block
/// is full, and no two blocks may write one element. Returns the
/// launch-resolved footprints and the full-block count.
fn admit(
    kernel: &Kernel,
    meta: &KernelMeta,
    launch: LaunchConfig,
    args: &[Arg],
) -> Result<(LaunchFootprints, u64), ReplicationCause> {
    if let Some(why) = aliased_write(kernel, meta, args) {
        return Err(ReplicationCause::Unproven(why));
    }
    let fps = LaunchFootprints::of(&meta.accesses, launch, args);
    // Resolve tail guards to the full-block count.
    let mut full_blocks = launch.num_blocks();
    for g in &meta.tail_guards {
        let unresolved =
            || ReplicationCause::Unproven("tail guard not resolvable for this launch".into());
        full_blocks = full_blocks.min(fps.env.full_blocks(g).ok_or_else(unresolved)?);
    }
    if full_blocks == 0 {
        return Err(ReplicationCause::NoFullBlocks);
    }

    // Safety veto: a kernel with a possible inter-block write-write race
    // yields node-order-dependent results when distributed — replicate. A
    // verdict of Unknown does NOT veto (the region derivation stays the
    // guard for footprints the verifier cannot bound).
    let races = analyze_block_races(kernel, &meta.accesses, &fps, None);
    if races.verdict >= PropertyVerdict::May {
        let detail = races
            .diagnostics
            .first()
            .map(|d| d.message.clone())
            .unwrap_or_else(|| "write footprints overlap across blocks".into());
        let sev = if races.verdict == PropertyVerdict::Must {
            Severity::Must
        } else {
            Severity::May
        };
        return Err(ReplicationCause::RaceHazard(sev, detail));
    }
    Ok((fps, full_blocks))
}

/// Build the launch-time plan from the kernel, the launch and the argument
/// list; see the module docs for the algorithm. `_pool` is not read: the
/// plan is a function of the footprint, which no memory content changes.
/// The parameter stays so that callers keep one signature.
pub fn plan_launch(
    kernel: &Kernel,
    verdict: &Verdict,
    launch: LaunchConfig,
    args: &[Arg],
    _pool: &MemPool,
) -> Plan {
    let Verdict::Distributable(meta) = verdict else {
        let reasons = verdict.reasons().to_vec();
        return Plan::Replicated(ReplicationCause::NotDistributable(reasons));
    };
    let planned = admit(kernel, meta, launch, args).and_then(|(fps, full_blocks)| {
        static_regions(kernel, meta, &fps, args, full_blocks).map_err(ReplicationCause::Unproven)
    });
    match planned {
        Ok(plan) => Plan::ThreePhase(plan),
        Err(cause) => Plan::Replicated(cause),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributable::analyze_kernel;
    use cucc_ir::parse_kernel;
    use cucc_ir::Scalar;

    fn plan_for(
        src: &str,
        launch: LaunchConfig,
        mk_args: impl Fn(&mut MemPool) -> Vec<Arg>,
    ) -> Plan {
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let verdict = analyze_kernel(&k);
        let mut pool = MemPool::new();
        let args = mk_args(&mut pool);
        plan_launch(&k, &verdict, launch, &args, &pool)
    }

    const LISTING1: &str = "__global__ void vec_copy(char* src, char* dest, int n) {
        int id = blockDim.x * blockIdx.x + threadIdx.x;
        if (id < n)
            dest[id] = src[id];
    }";

    #[test]
    fn listing1_plan_matches_paper_figure5() {
        // N = 1200, block 256 → 5 blocks; block 4 is the callback block.
        let plan = plan_for(LISTING1, LaunchConfig::cover1(1200, 256), |p| {
            let src = p.alloc(1200);
            let dest = p.alloc(1200);
            vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1200)]
        });
        let tp = plan.three_phase().expect("three-phase plan");
        assert_eq!(tp.num_blocks, 5);
        assert_eq!(tp.chunk_blocks, 1);
        assert_eq!(tp.full_chunks, 4);
        assert_eq!(tp.buffers.len(), 1);
        assert_eq!(tp.buffers[0].base, 0);
        assert_eq!(tp.buffers[0].unit, 256);
        // Two-node partition (Figure 5): blocks {0,1} on node 0, {2,3} on
        // node 1, block 4 callback.
        let part = tp.partition(2);
        assert_eq!(part.partial_blocks_per_node, 2);
        assert_eq!(part.callback_start, 4);
        assert_eq!(part.callback_blocks, 1);
        assert_eq!(tp.bytes_per_node(2), 512);
    }

    #[test]
    fn kmeans_block_arithmetic_from_paper() {
        // §7.2: 313 blocks; on 16 nodes → 19 partial blocks/node and 9
        // callbacks; on 32 nodes → 9 partial and 25 callbacks.
        let n: u64 = 80_000; // 313 blocks of 256 threads, tail block partial
        let src = "__global__ void member(float* assign, int n) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n)
                assign[id] = 1.0f;
        }";
        let plan = plan_for(src, LaunchConfig::cover1(n, 256), |p| {
            let a = p.alloc_elems(Scalar::F32, n as usize);
            vec![Arg::Buffer(a), Arg::int(n as i64)]
        });
        let tp = plan.three_phase().unwrap();
        assert_eq!(tp.num_blocks, 313);
        assert_eq!(tp.full_chunks, 312);
        let p16 = tp.partition(16);
        assert_eq!(p16.partial_blocks_per_node, 19);
        assert_eq!(p16.callback_blocks, 9);
        let p32 = tp.partition(32);
        assert_eq!(p32.partial_blocks_per_node, 9);
        assert_eq!(p32.callback_blocks, 25);
    }

    #[test]
    fn written_buffer_bound_twice_replicates_naming_both() {
        let plan = plan_for(LISTING1, LaunchConfig::cover1(1024, 256), |p| {
            let buf = p.alloc(1024);
            vec![Arg::Buffer(buf), Arg::Buffer(buf), Arg::int(1024)]
        });
        assert_eq!(
            plan,
            Plan::Replicated(ReplicationCause::Unproven(
                "written buffer `dest` is also bound to `src`".into()
            ))
        );
    }

    #[test]
    fn exact_multiple_has_no_callbacks_on_divisor() {
        let plan = plan_for(LISTING1, LaunchConfig::cover1(1024, 256), |p| {
            let src = p.alloc(1024);
            let dest = p.alloc(1024);
            vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1024)]
        });
        let tp = plan.three_phase().unwrap();
        assert_eq!(tp.full_chunks, 4);
        let part = tp.partition(4);
        assert_eq!(part.callback_blocks, 0);
        assert_eq!(part.partial_blocks_per_node, 1);
    }

    #[test]
    fn two_d_kernel_plans_row_chunks() {
        // 2-D grid: per-block footprints interleave, but a row of blocks is
        // dense — the planner must pick chunk = gridDim.x.
        let src = "__global__ void k(float* out, int width) {
            int x = blockIdx.x * blockDim.x + threadIdx.x;
            int y = blockIdx.y * blockDim.y + threadIdx.y;
            out[y * width + x] = 1.0f;
        }";
        let width = 128u32;
        let launch = LaunchConfig::new((8u32, 8u32), (16u32, 16u32));
        let plan = plan_for(src, launch, |p| {
            let out = p.alloc_elems(Scalar::F32, (width * width) as usize);
            vec![Arg::Buffer(out), Arg::int(width as i64)]
        });
        let tp = plan.three_phase().unwrap();
        assert_eq!(tp.chunk_blocks, 8);
        assert_eq!(tp.full_chunks, 8);
        assert_eq!(tp.buffers[0].unit, (width * 16 * 4) as u64); // 16 rows of f32
        let part = tp.partition(4);
        assert_eq!(part.chunks_per_node, 2);
        assert_eq!(part.callback_blocks, 0);
    }

    #[test]
    fn per_block_scalar_write_unit_is_one_element() {
        let src = "__global__ void k(float* out) {
            float acc = 2.0f;
            if (threadIdx.x == 0)
                out[blockIdx.x] = acc;
        }";
        let plan = plan_for(src, LaunchConfig::new(64u32, 128u32), |p| {
            let out = p.alloc_elems(Scalar::F32, 64);
            vec![Arg::Buffer(out)]
        });
        let tp = plan.three_phase().unwrap();
        assert_eq!(tp.buffers[0].unit, 4);
        assert_eq!(tp.full_chunks, 64);
    }

    #[test]
    fn strided_write_is_unproven_and_replicates() {
        // Dense per thread but strided per block: footprints interleave and
        // no chunk granularity fixes it.
        let src = "__global__ void k(int* out) {
            out[threadIdx.x * gridDim.x + blockIdx.x] = 1;
        }";
        let plan = plan_for(src, LaunchConfig::new(4u32, 8u32), |p| {
            let out = p.alloc_elems(Scalar::I32, 32);
            vec![Arg::Buffer(out)]
        });
        assert_eq!(
            plan,
            Plan::Replicated(ReplicationCause::Unproven(
                "buffer p0: chunk 0 of 1 block(s) writes with a gap".into()
            ))
        );
    }

    #[test]
    fn plans_read_no_memory() {
        // The same launch over an empty pool and over one holding the
        // buffers: the plan is the footprint's.
        let k = parse_kernel(LISTING1).unwrap();
        let verdict = analyze_kernel(&k);
        let launch = LaunchConfig::cover1(1200, 256);
        let mut pool = MemPool::new();
        let args = vec![
            Arg::Buffer(pool.alloc(1200)),
            Arg::Buffer(pool.alloc(1200)),
            Arg::int(1200),
        ];
        let plan = plan_launch(&k, &verdict, launch, &args, &pool);
        assert!(plan.three_phase().is_some());
        assert_eq!(
            plan_launch(&k, &verdict, launch, &args, &MemPool::new()),
            plan
        );
    }

    #[test]
    fn tiny_bound_leaves_no_full_blocks() {
        let plan = plan_for(LISTING1, LaunchConfig::cover1(1200, 256), |p| {
            let src = p.alloc(1200);
            let dest = p.alloc(1200);
            vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(100)]
        });
        assert!(matches!(
            plan,
            Plan::Replicated(ReplicationCause::NoFullBlocks)
        ));
    }

    #[test]
    fn partition_invariant_blocks_conserved() {
        let plan = plan_for(LISTING1, LaunchConfig::cover1(100_000, 256), |p| {
            let src = p.alloc(100_000);
            let dest = p.alloc(100_000);
            vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(100_000)]
        });
        let tp = plan.three_phase().unwrap();
        for n in [1u64, 2, 3, 4, 7, 16, 32] {
            let part = tp.partition(n);
            assert_eq!(
                part.partial_blocks_per_node * n + part.callback_blocks,
                tp.num_blocks,
                "blocks conserved for n={n}"
            );
            assert!(part.callback_start <= tp.num_blocks);
        }
    }

    #[test]
    fn replicated_for_trivial_verdict() {
        let plan = plan_for(
            "__global__ void hist(int* bins, int* data) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                atomicAdd(&bins[data[id] % 8], 1);
            }",
            LaunchConfig::new(4u32, 32u32),
            |p| {
                let bins = p.alloc_elems(Scalar::I32, 8);
                let data = p.alloc_elems(Scalar::I32, 128);
                vec![Arg::Buffer(bins), Arg::Buffer(data)]
            },
        );
        assert!(matches!(
            plan,
            Plan::Replicated(ReplicationCause::NotDistributable(_))
        ));
    }
}
