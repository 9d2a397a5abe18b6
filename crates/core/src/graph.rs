//! Launch-graph capture and the graph communication optimizer.
//!
//! CUDA applications amortize launch overhead by capturing a stream of
//! kernel launches into a **graph** and replaying it; CuCC inherits the
//! idea and adds a cluster-specific payoff: on replay the runtime knows
//! the whole producer→consumer structure up front, so it can
//!
//! 1. serve every launch's [`crate::schedule::LaunchSchedule`] from the
//!    [`crate::schedule::ScheduleCache`], as every launch is (what is
//!    cached, and when it stops being, is [`crate::schedule::ScheduleKey`]'s
//!    to say), and
//! 2. **elide or narrow Allgathers**: when a consumer's launch-resolved
//!    read footprint ([`cucc_analysis::LaunchFootprints`]) on each node
//!    is covered by data already resident there (the producer's own
//!    write slice plus any earlier partial gathers), the producer's
//!    gather is skipped entirely or narrowed to the uncovered byte
//!    sub-ranges (a [`cucc_net::GatherPlan`] over just those segments).
//!
//! Capture records ops without executing them — the same contract as CUDA
//! stream capture. Replay runs the nodes in capture order.
//!
//! Elision soundness rests on the `Must` footprint being an
//! *over-approximation* of all accesses: if the hull of a consumer's
//! reads is covered by resident data, the real reads are too. `Unknown`
//! footprints, replicated consumers, aliased buffers and fault-injection
//! sessions all fall back to the full Allgather.

use crate::compile::CompiledKernel;
use cucc_analysis::{Diagnostic, LaunchFootprints, Rule, Severity, SiteRef};
use cucc_exec::{Arg, BufferId};
use cucc_ir::LaunchConfig;
use cucc_net::GatherSegment;

/// One captured operation.
#[derive(Debug, Clone)]
pub enum GraphOp {
    /// A kernel launch (clones share the compilation id, so cached
    /// schedules apply across replays).
    Launch {
        /// The compiled kernel (boxed: a kernel dwarfs the upload variant).
        ck: Box<CompiledKernel>,
        /// Launch geometry.
        launch: LaunchConfig,
        /// Arguments, captured by value.
        args: Vec<Arg>,
    },
    /// A host→device broadcast of the captured payload.
    Upload {
        /// Destination buffer (whole-buffer overwrite).
        buf: BufferId,
        /// The bytes to broadcast.
        data: Vec<u8>,
    },
}

/// A captured op plus its static metadata.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// The operation.
    pub op: GraphOp,
    /// Launch-resolved read/write footprints (launch nodes only). Purely
    /// static — a function of (kernel, launch, scalar args) — so they
    /// ride along the node and never need re-deriving on replay.
    pub footprints: Option<LaunchFootprints>,
}

/// An immutable captured op sequence, ready for [`replay`](crate::runtime::CuccCluster::graph_replay).
#[derive(Debug, Clone, Default)]
pub struct LaunchGraph {
    /// Nodes in capture (submission) order, the order replay runs them in.
    pub nodes: Vec<GraphNode>,
}

impl LaunchGraph {
    /// Number of captured ops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

// ---------------------------------------------------------------------
// Graph lint: statically dead launches
// ---------------------------------------------------------------------

/// `ParamId → BufferId` bindings of a launch node's buffer arguments.
fn buffer_args(args: &[Arg]) -> Vec<(usize, BufferId)> {
    args.iter()
        .enumerate()
        .filter_map(|(i, a)| match a {
            Arg::Buffer(b) => Some((i, *b)),
            _ => None,
        })
        .collect()
}

/// Find **statically dead launches**: launch nodes whose entire `Must`
/// write footprint is overwritten by later nodes before any node reads it.
/// Such a launch's output is unobservable — both inside the graph and
/// after replay — so the whole launch (and any Allgather it would have
/// triggered) is dead work.
///
/// The proof is conservative in the safe direction: an `Unknown` footprint
/// anywhere in the chain (the dead candidate's own writes, or a later
/// consumer's reads) blocks the finding, a later launch overwrites only
/// what it is *certain* to write ([`LaunchFootprints::certain_writes`], not
/// its `Must` hull), and any write surviving to the end of the graph blocks
/// it too (graph outputs are observable by the host).
/// Findings are `Severity::Info` under [`Rule::Lint`], matching the
/// kernel-level lints in `cucc-analysis`.
pub fn lint_graph(graph: &LaunchGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let GraphOp::Launch { ck, launch, args } = &node.op else {
            continue;
        };
        let Some(fp) = &node.footprints else { continue };
        if fp.writes.is_empty() {
            continue; // nothing observable to be dead
        }
        let blocks = launch.grid.count();
        let mut dead = true;
        let mut dead_bufs: Vec<BufferId> = Vec::new();
        'bufs: for (p, w) in &fp.writes {
            let Some(&(_, buf)) = buffer_args(args).iter().find(|(q, _)| *q == p.index()) else {
                dead = false;
                break;
            };
            // `Unknown` write footprint: cannot bound what i wrote.
            let Some(ranges) = w.byte_ranges(0..blocks) else {
                dead = false;
                break;
            };
            let mut remaining = normalize(ranges);
            for later in &graph.nodes[i + 1..] {
                if remaining.is_empty() {
                    break;
                }
                match &later.op {
                    GraphOp::Upload { buf: ub, data } if *ub == buf => {
                        // Whole-buffer broadcast overwrite.
                        remaining = remaining
                            .into_iter()
                            .flat_map(|r| subtract_one(r, &[(0, data.len() as u64)]))
                            .collect();
                    }
                    GraphOp::Upload { .. } => {}
                    GraphOp::Launch {
                        ck: ck2,
                        launch: l2,
                        args: a2,
                    } => {
                        let Some(fp2) = &later.footprints else {
                            dead = false;
                            break 'bufs;
                        };
                        let b2 = l2.grid.count();
                        for (q, qb) in buffer_args(a2) {
                            if qb != buf {
                                continue;
                            }
                            let q = cucc_ir::ParamId(q as u32);
                            // Reads first: a consumer observes the buffer
                            // before (conceptually, while) overwriting it.
                            if let Some(r) = fp2.reads.get(&q) {
                                match r.byte_ranges(0..b2) {
                                    // Unknown reads may touch anything.
                                    None => {
                                        dead = false;
                                        break 'bufs;
                                    }
                                    Some(rr) => {
                                        let rr = normalize(rr);
                                        if remaining
                                            .iter()
                                            .any(|&r| !intersect_one(r, &rr).is_empty())
                                        {
                                            dead = false;
                                            break 'bufs;
                                        }
                                    }
                                }
                            }
                            // Only what the later launch is certain to
                            // write covers anything: its `Must` hull is an
                            // over-approximation (guards, loops, the box
                            // around a block range).
                            let ww = normalize(fp2.certain_writes(&ck2.analysis.accesses, q));
                            remaining = remaining
                                .into_iter()
                                .flat_map(|r| subtract_one(r, &ww))
                                .collect();
                        }
                    }
                }
            }
            if !remaining.is_empty() {
                dead = false; // survives to graph exit: host-observable
                break;
            }
            dead_bufs.push(buf);
        }
        if dead {
            let bufs = dead_bufs
                .iter()
                .map(|b| format!("buffer {}", b.0))
                .collect::<Vec<_>>()
                .join(", ");
            let mut d = Diagnostic::new(
                Rule::Lint,
                Severity::Info,
                format!(
                    "dead launch: node #{i} (`{}`) writes only {bufs}, and every byte is \
                     overwritten by later nodes before any read — the launch and its \
                     Allgather are dead work",
                    ck.kernel.name
                ),
            );
            d.site = Some(SiteRef {
                buffer: ck.kernel.name.clone(),
                ordinal: i,
                line: None,
            });
            out.push(d);
        }
    }
    out
}

/// Records a stream of launches and transfers into a [`LaunchGraph`]
/// without executing anything.
///
/// ```
/// use cucc_core::{compile_source, GraphCapture};
/// use cucc_exec::{Arg, BufferId};
/// use cucc_ir::LaunchConfig;
///
/// let ck = compile_source(
///     "__global__ void k(float* x, int n) {
///         int id = blockIdx.x * blockDim.x + threadIdx.x;
///         if (id < n) x[id] = 1.0f;
///     }",
/// )
/// .unwrap();
/// let mut cap = GraphCapture::new();
/// let a = cap.launch(&ck, LaunchConfig::cover1(1024, 128),
///                    &[Arg::Buffer(BufferId(0)), Arg::int(1024)]);
/// let b = cap.launch(&ck, LaunchConfig::cover1(1024, 128),
///                    &[Arg::Buffer(BufferId(0)), Arg::int(1024)]);
/// let graph = cap.finish();
/// assert_eq!((a, b, graph.len()), (0, 1, 2));
/// assert!(graph.nodes[b].footprints.is_some());
/// ```
#[derive(Debug, Default)]
pub struct GraphCapture {
    nodes: Vec<GraphNode>,
}

impl GraphCapture {
    /// Start an empty capture.
    pub fn new() -> GraphCapture {
        GraphCapture::default()
    }

    /// Record a kernel launch. Returns the node index.
    pub fn launch(&mut self, ck: &CompiledKernel, launch: LaunchConfig, args: &[Arg]) -> usize {
        let id = self.nodes.len();
        let footprints = LaunchFootprints::of(&ck.analysis.accesses, launch, args);
        self.nodes.push(GraphNode {
            op: GraphOp::Launch {
                ck: Box::new(ck.clone()),
                launch,
                args: args.to_vec(),
            },
            footprints: Some(footprints),
        });
        id
    }

    /// Record a host→device broadcast. Returns the node index.
    pub fn upload(&mut self, buf: BufferId, data: Vec<u8>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(GraphNode {
            op: GraphOp::Upload { buf, data },
            footprints: None,
        });
        id
    }

    /// Finish the capture.
    pub fn finish(self) -> LaunchGraph {
        LaunchGraph { nodes: self.nodes }
    }
}

/// Counters from one [`graph_replay`](crate::runtime::CuccCluster::graph_replay) call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Schedule-cache hits during this replay.
    pub cache_hits: u64,
    /// Schedule-cache misses (fresh plans) during this replay.
    pub cache_misses: u64,
    /// Producer gathers skipped entirely (the buffer went pending).
    pub gathers_elided: u64,
    /// Partial gathers issued for uncovered consumer sub-ranges. A region
    /// that is first elided and later partially gathered counts in both
    /// `gathers_elided` and `gathers_narrowed`.
    pub gathers_narrowed: u64,
    /// Gathers executed in full inside launches (nothing elided).
    pub gathers_full: u64,
    /// Pending buffers force-materialized with a full gather (fallbacks:
    /// `Unknown` footprint, replicated consumer, geometry conflict).
    pub materializations: u64,
    /// Bytes actually moved across the wire during the replay window.
    pub wire_bytes: u64,
    /// Planned wire bytes (sum of the launches' scheduled gathers) minus
    /// `wire_bytes` — what elision and narrowing saved this iteration.
    pub wire_bytes_saved: u64,
    /// Simulated seconds the replay occupied.
    pub time: f64,
}

impl ReplayStats {
    /// Accumulate another replay's counters (CLI loops over iterations).
    pub fn accumulate(&mut self, other: &ReplayStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.gathers_elided += other.gathers_elided;
        self.gathers_narrowed += other.gathers_narrowed;
        self.gathers_full += other.gathers_full;
        self.materializations += other.materializations;
        self.wire_bytes += other.wire_bytes;
        self.wire_bytes_saved += other.wire_bytes_saved;
        self.time += other.time;
    }

    /// `cache_hits / (cache_hits + cache_misses)`, or 0 when no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// Pending-gather state and coverage arithmetic
// ---------------------------------------------------------------------

/// An elided Allgather: buffer region `[base, base + unit·nodes)` is *not*
/// consistent across nodes. Node `j`'s copy is valid only in its own slice
/// `[base + j·unit, base + (j+1)·unit)` plus `extras`; bytes outside the
/// region are consistent (partial-phase writes land slice-locally and
/// callback writes are redundant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingGather {
    /// Region start (bytes into the buffer).
    pub base: u64,
    /// Bytes per node slice.
    pub unit: u64,
    /// Node count the slicing was computed for.
    pub nodes: u64,
    /// Absolute byte ranges inside the region already gathered everywhere
    /// (by earlier partial gathers). Normalized: sorted, non-overlapping.
    pub extras: Vec<(u64, u64)>,
}

impl PendingGather {
    /// Total region length in bytes.
    pub fn len(&self) -> u64 {
        self.unit * self.nodes
    }

    /// True for a degenerate empty region.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The region as an absolute half-open byte range.
    pub fn span(&self) -> (u64, u64) {
        (self.base, self.base + self.len())
    }

    /// Node `j`'s slice as an absolute half-open byte range.
    pub fn slice(&self, j: u64) -> (u64, u64) {
        (self.base + j * self.unit, self.base + (j + 1) * self.unit)
    }
}

/// Normalize a range list: drop empties, sort, merge overlaps/adjacency.
pub(crate) fn normalize(mut rs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    rs.retain(|r| r.1 > r.0);
    rs.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(rs.len());
    for r in rs {
        match out.last_mut() {
            Some(last) if r.0 <= last.1 => last.1 = last.1.max(r.1),
            _ => out.push(r),
        }
    }
    out
}

/// Intersect one range with a normalized list.
fn intersect_one(r: (u64, u64), with: &[(u64, u64)]) -> Vec<(u64, u64)> {
    with.iter()
        .map(|w| (r.0.max(w.0), r.1.min(w.1)))
        .filter(|x| x.1 > x.0)
        .collect()
}

/// Subtract a normalized list from one range.
fn subtract_one(r: (u64, u64), minus: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut keep = vec![r];
    for m in minus {
        let mut next = Vec::with_capacity(keep.len() + 1);
        for k in keep {
            if m.1 <= k.0 || m.0 >= k.1 {
                next.push(k);
                continue;
            }
            if k.0 < m.0 {
                next.push((k.0, m.0));
            }
            if m.1 < k.1 {
                next.push((m.1, k.1));
            }
        }
        keep = next;
    }
    keep
}

/// The byte ranges of `pg`'s region that a consumer still needs gathered,
/// given what each node must read.
///
/// * `per_node[j]` — absolute byte ranges node `j`'s private (partial
///   phase) blocks read from the buffer; covered by node `j`'s own slice,
///   `extras`, or anything outside the region.
/// * `everywhere` — absolute byte ranges *every* node reads (callback
///   blocks run redundantly); only `extras` or out-of-region bytes cover
///   those.
///
/// Returns a normalized list of absolute uncovered ranges — empty means
/// the consumer is fully covered and the gather stays elided.
pub(crate) fn uncovered_ranges(
    pg: &PendingGather,
    per_node: &[Vec<(u64, u64)>],
    everywhere: &[(u64, u64)],
) -> Vec<(u64, u64)> {
    let span = pg.span();
    let mut missing = Vec::new();
    for (j, reqs) in per_node.iter().enumerate() {
        let slice = pg.slice(j as u64);
        for &r in reqs {
            for inside in intersect_one(r, &[span]) {
                for gap in subtract_one(inside, &[slice]) {
                    missing.extend(subtract_one(gap, &pg.extras));
                }
            }
        }
    }
    for &r in everywhere {
        for inside in intersect_one(r, &[span]) {
            missing.extend(subtract_one(inside, &pg.extras));
        }
    }
    normalize(missing)
}

/// Split absolute uncovered ranges into per-owner [`GatherSegment`]s
/// (offsets relative to `pg.base`): every uncovered byte lies in exactly
/// one owner's slice, and that owner holds the authoritative copy.
pub(crate) fn segments_for(pg: &PendingGather, uncovered: &[(u64, u64)]) -> Vec<GatherSegment> {
    let mut segs = Vec::new();
    for &(lo, hi) in uncovered {
        let mut cur = lo;
        while cur < hi {
            let owner = (cur - pg.base) / pg.unit;
            let slice_end = pg.slice(owner).1;
            let end = hi.min(slice_end);
            segs.push(GatherSegment {
                owner: owner as usize,
                lo: cur - pg.base,
                hi: end - pg.base,
            });
            cur = end;
        }
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_source;

    fn pg(base: u64, unit: u64, nodes: u64) -> PendingGather {
        PendingGather {
            base,
            unit,
            nodes,
            extras: Vec::new(),
        }
    }

    #[test]
    fn normalize_merges_and_sorts() {
        assert_eq!(
            normalize(vec![(10, 20), (0, 5), (4, 12), (30, 30)]),
            vec![(0, 20)]
        );
    }

    #[test]
    fn slice_local_reads_are_covered() {
        let pg = pg(0, 100, 4);
        // Each node reads exactly its own slice: nothing to gather.
        let per_node: Vec<_> = (0..4u64).map(|j| vec![pg.slice(j)]).collect();
        assert!(uncovered_ranges(&pg, &per_node, &[]).is_empty());
    }

    #[test]
    fn cross_slice_read_is_uncovered_and_owned() {
        let p = pg(1000, 100, 4);
        // Node 0 reads 10 bytes of node 2's slice.
        let per_node = vec![vec![(1205u64, 1215u64)], vec![], vec![], vec![]];
        let un = uncovered_ranges(&p, &per_node, &[]);
        assert_eq!(un, vec![(1205, 1215)]);
        let segs = segments_for(&p, &un);
        assert_eq!(
            segs,
            vec![GatherSegment {
                owner: 2,
                lo: 205,
                hi: 215
            }]
        );
    }

    #[test]
    fn extras_and_out_of_region_cover() {
        let mut p = pg(0, 100, 2);
        p.extras = vec![(150, 160)];
        // In-slice + extra + outside-region reads: all covered.
        let per_node = vec![vec![(0, 100), (150, 160), (200, 999)], vec![]];
        assert!(uncovered_ranges(&p, &per_node, &[]).is_empty());
        // Callback reads need extras (own slice does not help).
        assert!(uncovered_ranges(&p, &[vec![], vec![]], &[(150, 158)]).is_empty());
        assert_eq!(
            uncovered_ranges(&p, &[vec![], vec![]], &[(140, 155)]),
            vec![(140, 150)]
        );
    }

    #[test]
    fn uncovered_range_spanning_slices_splits_by_owner() {
        let p = pg(0, 100, 3);
        let un = vec![(50u64, 250u64)];
        let segs = segments_for(&p, &un);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].owner, 0);
        assert_eq!((segs[0].lo, segs[0].hi), (50, 100));
        assert_eq!(segs[1].owner, 1);
        assert_eq!((segs[1].lo, segs[1].hi), (100, 200));
        assert_eq!(segs[2].owner, 2);
        assert_eq!((segs[2].lo, segs[2].hi), (200, 250));
    }

    #[test]
    fn dead_launch_lint_fires_on_overwritten_producer() {
        let ck = compile_source(
            "__global__ void fill(float* x, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = 1.0f;
            }",
        )
        .unwrap();
        let x = BufferId(0);
        let launch = LaunchConfig::cover1(1024, 128);
        let args = [Arg::Buffer(x), Arg::int(1024)];
        let mut cap = GraphCapture::new();
        // First fill is completely overwritten by the second before anyone
        // reads x: statically dead.
        let dead = cap.launch(&ck, launch, &args);
        cap.launch(&ck, launch, &args);
        let g = cap.finish();
        let findings = lint_graph(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.starts_with("dead launch"));
        assert_eq!(findings[0].site.as_ref().unwrap().ordinal, dead);
    }

    #[test]
    fn dead_launch_lint_spares_read_and_final_writes() {
        let fill = compile_source(
            "__global__ void fill(float* x, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = 1.0f;
            }",
        )
        .unwrap();
        let copy = compile_source(
            "__global__ void copy(float* src, float* dst, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) dst[id] = src[id];
            }",
        )
        .unwrap();
        let x = BufferId(0);
        let y = BufferId(1);
        let launch = LaunchConfig::cover1(1024, 128);
        let mut cap = GraphCapture::new();
        // fill(x) is read by copy(x→y) before the second fill(x): not dead.
        cap.launch(&fill, launch, &[Arg::Buffer(x), Arg::int(1024)]);
        cap.launch(
            &copy,
            launch,
            &[Arg::Buffer(x), Arg::Buffer(y), Arg::int(1024)],
        );
        cap.launch(&fill, launch, &[Arg::Buffer(x), Arg::int(1024)]);
        let g = cap.finish();
        // Second fill survives to graph exit (host-observable) — no finding
        // for it either.
        assert!(lint_graph(&g).is_empty(), "{:?}", lint_graph(&g));
    }

    #[test]
    fn dead_launch_lint_subtracts_only_certain_writes() {
        // A later launch's `Must` write hull covers bytes it never stores:
        // a tail guard that fails for half the grid, a loop write with a
        // gap. Neither may kill the earlier fill.
        let fill = compile_source(
            "__global__ void fill(float* x, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = 1.0f;
            }",
        )
        .unwrap();
        let gapped = compile_source(
            "__global__ void gapped(float* x) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < 2; i++) x[id * 4 + i] = 2.0f;
            }",
        )
        .unwrap();
        let x = BufferId(0);
        let launch = LaunchConfig::cover1(1024, 128);
        for later in [
            (&fill, vec![Arg::Buffer(x), Arg::int(512)]),
            (&gapped, vec![Arg::Buffer(x)]),
        ] {
            let mut cap = GraphCapture::new();
            cap.launch(&fill, launch, &[Arg::Buffer(x), Arg::int(1024)]);
            cap.launch(later.0, launch, &later.1);
            let findings = lint_graph(&cap.finish());
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn dead_launch_lint_counts_upload_overwrite() {
        let ck = compile_source(
            "__global__ void fill(float* x, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = 1.0f;
            }",
        )
        .unwrap();
        let x = BufferId(0);
        let mut cap = GraphCapture::new();
        cap.launch(
            &ck,
            LaunchConfig::cover1(1024, 128),
            &[Arg::Buffer(x), Arg::int(1024)],
        );
        // Host broadcast overwrites all 4096 bytes the launch wrote.
        cap.upload(x, vec![0u8; 4096]);
        let g = cap.finish();
        assert_eq!(lint_graph(&g).len(), 1);
    }

    #[test]
    fn capture_records_nodes_in_order() {
        let ck = compile_source(
            "__global__ void k(float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = 2.0f * x[id];
            }",
        )
        .unwrap();
        let x = BufferId(0);
        let y = BufferId(1);
        let launch = LaunchConfig::cover1(1024, 128);
        let mut cap = GraphCapture::new();
        let up = cap.upload(x, vec![0u8; 4096]);
        let a = cap.launch(
            &ck,
            launch,
            &[Arg::Buffer(x), Arg::Buffer(y), Arg::int(1024)],
        );
        let b = cap.launch(
            &ck,
            launch,
            &[Arg::Buffer(y), Arg::Buffer(x), Arg::int(1024)],
        );
        let g = cap.finish();
        assert_eq!((up, a, b, g.len()), (0, 1, 2, 3));
        assert!(g.nodes[up].footprints.is_none());
        assert!(g.nodes[a].footprints.is_some());
        assert!(g.nodes[b].footprints.is_some());
    }
}
