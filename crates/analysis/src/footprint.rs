//! Launch level: a kernel's accesses resolved against one launch, once.
//!
//! [`KernelAccesses`] says what a kernel touches in symbols; a launch fixes
//! the symbols. [`LaunchFootprints::of`] evaluates every access of the list
//! against a [`LaunchConfig`] and the scalar arguments exactly once —
//! per-axis `blockIdx` coefficients, thread and loop dimensions, offset
//! hull and stride — through the one function that turns an affine form
//! into numbers, `LaunchEnv::resolve`. Every launch-time question reads
//! that value: which bytes a range of blocks may touch
//! ([`BufferFootprint::byte_ranges`], for the graph communication optimizer
//! in `cucc-core`), whether two blocks can write one element
//! ([`crate::verify::analyze_block_races`]), whether an index can leave its
//! buffer (the bounds rule of [`crate::verify::verify`]), how many
//! leading blocks pass a tail guard in every thread
//! ([`crate::plan::full_blocks_under_guard`]), and which region each node
//! gathers ([`crate::plan::plan_launch`], which reads nothing else).
//! [`LaunchFacts`] carries that value together with the kernel compiled for
//! the launch and its range analysis: the one launch resolution the
//! verifier and the lint read.
//!
//! # The `Must` direction
//!
//! * [`BufferFootprint::Must`] — **every** access to the buffer provably
//!   falls inside a union of per-block intervals `span + Σ coeff[a]·b_a`
//!   (elements, inclusive, `b` the block coordinate). This is an
//!   *over-approximation* of the accessed set: guards are ignored (they
//!   only shrink the real set), loops contribute their whole range, and a
//!   range of linear blocks is widened to the coordinate box around it.
//!   That is the sound direction for elision — if the `Must` hull is
//!   covered by resident data, the real reads are too — and no evidence
//!   that a byte *is* written.
//! * [`BufferFootprint::Unknown`] — the analysis gave up (non-affine or
//!   data-dependent index, unresolvable scalar or loop bound). The caller
//!   must assume the buffer is read/written anywhere; the communication
//!   optimizer keeps the full Allgather.
//!
//! There is deliberately no `May`: partial knowledge would be unsound to
//! elide on. Two readers need the opposite direction — the *exact* set of
//! writes — and take it from the resolved sites only under exactness
//! conditions: the planner, for what a chunk writes (listed at
//! `plan::static_regions`), and the dead-launch lint of `cucc-core`, for
//! what a later launch overwrites ([`LaunchFootprints::certain_writes`]).
//!
//! A loop's `[start, end, step]` bounds its counter only inside that one
//! loop's body; [`KernelAccesses`] withholds the bounds of a counter that
//! is read anywhere else, so an index that uses one is `Unknown` here.

use crate::affine::{AffineForm, IdxVar};
use crate::distributable::{Access, Comparison, GuardClass, KernelAccesses, TailGuard};
use crate::poly::{Poly, Sym};
use crate::range::{analyze_ranges, global_extents, CompiledLaunch, Interval};
use cucc_exec::{Arg, BufferId, Program};
use cucc_ir::{Axis, Dim3, Kernel, LaunchConfig, MemRef, ParamId, Value, VarId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Per-site offset-set enumeration budget (elements). Beyond this the race
/// check falls back to interval + stride reasoning only.
const OFFSET_BUDGET: u64 = 1 << 16;

/// A 3-D thread or block coordinate.
pub(crate) type Coord = (u32, u32, u32);

/// One per-block access interval: block `(bx, by, bz)` touches elements
/// `span + coeff[0]·bx + coeff[1]·by + coeff[2]·bz` (inclusive offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInterval {
    /// Elements the interval shifts per block along x, y and z.
    pub coeff: [i128; 3],
    /// Element offsets touched at block `(0, 0, 0)`.
    pub span: Interval,
}

impl BlockInterval {
    /// Hull of the element offsets touched by the blocks of the coordinate
    /// box `[lo, hi]` (inclusive per axis).
    pub fn over(self, lo: [u64; 3], hi: [u64; 3]) -> Interval {
        (0..3).fold(self.span, |iv, a| {
            let ends = [lo[a], hi[a]].map(|b| self.coeff[a].saturating_mul(b as i128));
            iv.add(Interval::point(ends[0]).hull(Interval::point(ends[1])))
        })
    }
}

/// Launch-resolved footprint of one buffer parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferFootprint {
    /// Every access provably falls inside the union of the intervals.
    Must {
        /// Element size in bytes (indices scale by this).
        elem_bytes: u64,
        /// The grid the intervals were resolved against (linear block ids
        /// are x-fastest over it).
        grid: Dim3,
        /// Per-block access intervals (deduplicated, order of discovery).
        intervals: Vec<BlockInterval>,
    },
    /// The analysis could not bound the accesses.
    Unknown {
        /// Human-readable reason (diagnostics / trace labels).
        why: String,
    },
}

impl BufferFootprint {
    /// True when the footprint bounds every access.
    pub fn is_must(&self) -> bool {
        matches!(self, BufferFootprint::Must { .. })
    }

    /// Byte ranges (half-open, clamped at 0) touched by the linear blocks
    /// `[blocks.start, blocks.end)`; `None` for [`BufferFootprint::Unknown`].
    /// Each interval contributes its convex hull over the smallest
    /// coordinate box holding the block range, so the union is an
    /// over-approximation of the touched set.
    pub fn byte_ranges(&self, blocks: std::ops::Range<u64>) -> Option<Vec<(u64, u64)>> {
        let BufferFootprint::Must {
            elem_bytes,
            grid,
            intervals,
        } = self
        else {
            return None;
        };
        let mut out = Vec::new();
        if blocks.start >= blocks.end {
            return Some(out);
        }
        let (gx, gy) = (grid.x.max(1) as u64, grid.y.max(1) as u64);
        let split = |b: u64| [b % gx, b / gx % gy, b / (gx * gy)];
        let (mut lo, mut hi) = (split(blocks.start), split(blocks.end - 1));
        // A range that crosses a row (plane) boundary spans every x (y).
        for a in [1, 2] {
            if lo[a] != hi[a] {
                for below in 0..a {
                    lo[below] = 0;
                    hi[below] = [gx, gy][below] - 1;
                }
            }
        }
        for iv in intervals {
            let hullv = iv.over(lo, hi);
            let lo = hullv.lo.max(0);
            if hullv.hi < lo {
                continue;
            }
            out.push((lo as u64 * elem_bytes, (hullv.hi as u64 + 1) * elem_bytes));
        }
        Some(out)
    }
}

/// Why an access could not be resolved against a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unresolved {
    Indirect,
    NonAffine,
    Coefficients,
    LoopBounds,
}

impl Unresolved {
    /// The reason, worded for a `what` ("read" / "write") index.
    pub fn describe(self, what: &str) -> String {
        match self {
            Unresolved::Indirect => format!("data-dependent (indirect) {what} index"),
            Unresolved::NonAffine => format!("non-affine {what} index"),
            Unresolved::Coefficients => {
                format!("{what}-index coefficients not resolvable at this launch")
            }
            Unresolved::LoopBounds => "loop bounds not resolvable at this launch".into(),
        }
    }
}

/// One thread or loop dimension of a resolved form: the variable takes
/// `count` values and moves the form by `stride` between consecutive ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dim {
    pub var: IdxVar,
    pub stride: i128,
    pub count: u64,
}

/// An affine form with every symbol evaluated for one launch. Offsets are
/// in the form's own unit (elements, for an index) and exclude the
/// `blockIdx` contribution, which is linear: `Σ block[a]·b_a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResolvedForm {
    /// Per-axis `blockIdx` coefficients (x, y, z).
    pub block: [i128; 3],
    /// Thread and loop dimensions, in [`IdxVar`] order.
    pub dims: Vec<Dim>,
    /// Offset-set hull (the constant and loop starts folded in).
    pub span: Interval,
    /// All offsets are ≡ `base` (mod `gcd`); `base` is the offset at every
    /// dimension's first value, `gcd == 0` ⇔ singleton set.
    pub base: i128,
    pub gcd: i128,
}

impl ResolvedForm {
    /// True when a loop induction variable moves the form.
    pub fn has_loop(&self) -> bool {
        self.dims.iter().any(|d| matches!(d.var, IdxVar::Loop(_)))
    }

    /// The `blockIdx` contribution at one block.
    pub fn block_part(&self, blk: Coord) -> i128 {
        self.block[0] * blk.0 as i128
            + self.block[1] * blk.1 as i128
            + self.block[2] * blk.2 as i128
    }

    /// Value range over every thread, iteration and block of `grid`.
    pub fn range(&self, grid: Dim3) -> Interval {
        Axis::ALL.iter().fold(self.span, |iv, &a| {
            let far = self.block[a as usize].saturating_mul(grid.get(a) as i128 - 1);
            iv.add(Interval::point(0).hull(Interval::point(far)))
        })
    }

    /// Value at one thread of one block; `None` when a loop moves the form.
    pub fn at(&self, thread: Coord, blk: Coord) -> Option<i128> {
        let mut v = self.base + self.block_part(blk);
        for d in &self.dims {
            let IdxVar::Thread(a) = d.var else {
                return None;
            };
            v += d.stride * [thread.0, thread.1, thread.2][a as usize] as i128;
        }
        Some(v)
    }

    /// The exact element interval the form takes over the box of `extent`
    /// blocks per axis at `origin` when every thread and iteration evaluates
    /// it, or `None` when that set has a gap. A sum of strided dimensions is
    /// gapless iff, taken by ascending stride, each stride is at most one
    /// past what the smaller ones already reach.
    pub fn dense_over(&self, origin: Coord, extent: [u64; 3]) -> Option<(i128, i128)> {
        let mut strides: Vec<(i128, i128)> = self
            .dims
            .iter()
            .map(|d| (d.stride, d.count))
            .chain(self.block.into_iter().zip(extent))
            .filter(|(s, n)| *s != 0 && *n > 1)
            .map(|(s, n)| (s, n as i128 - 1))
            .collect();
        let mut lo = self.base + self.block_part(origin);
        lo += strides.iter().map(|(s, n)| s.min(&0) * n).sum::<i128>();
        strides.sort_unstable_by_key(|(s, _)| s.abs());
        let mut reach = 0i128;
        for (s, n) in strides {
            if s.abs() > reach + 1 {
                return None;
            }
            reach += s.abs() * n;
        }
        Some((lo, lo + reach))
    }

    /// Fix `var` at the value `at`. The form then takes a subset of its
    /// offsets, which `span` and `gcd` still bound.
    fn pin(&mut self, var: IdxVar, at: i128) {
        if let Some(i) = self.dims.iter().position(|d| d.var == var) {
            self.base += self.dims.remove(i).stride * at;
        }
    }

    /// Every offset with a thread coordinate that produces it (loop
    /// dimensions leave the coordinate untouched), when the set fits
    /// [`OFFSET_BUDGET`].
    pub fn offsets(&self) -> Option<Vec<(i128, Coord)>> {
        let total = self
            .dims
            .iter()
            .fold(1u64, |t, d| t.saturating_mul(d.count));
        if total > OFFSET_BUDGET {
            return None;
        }
        let mut out = vec![(self.base, (0, 0, 0))];
        for d in &self.dims {
            let prev = std::mem::take(&mut out);
            out.reserve(prev.len() * d.count as usize);
            for (acc, wit) in prev {
                for k in 0..d.count {
                    let mut w = wit;
                    match d.var {
                        IdxVar::Thread(Axis::X) => w.0 = k as u32,
                        IdxVar::Thread(Axis::Y) => w.1 = k as u32,
                        IdxVar::Thread(Axis::Z) => w.2 = k as u32,
                        _ => {}
                    }
                    out.push((acc + d.stride * k as i128, w));
                }
            }
        }
        Some(out)
    }
}

/// A tail guard `lhs < bound` with both sides evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResolvedGuard {
    pub lhs: ResolvedForm,
    pub bound: i128,
}

/// What a launch makes of one access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SiteState {
    /// The index, in numbers.
    Resolved(ResolvedForm),
    /// An enclosing loop is provably empty: never executes.
    Dead,
    /// The index cannot be bounded.
    Unresolved(Unresolved),
}

/// One access of the kernel list, resolved; `sites[i]` belongs to
/// `KernelAccesses::list[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Site {
    pub state: SiteState,
    /// An enclosing loop's trip count is unknown: the access may never
    /// execute (bounds proofs hold for whatever iterations do run).
    pub loop_unknown: bool,
    /// The tail guards of a write site, in path order; `None` where one
    /// does not evaluate at this launch. Empty for reads.
    pub tail_guards: Vec<Option<ResolvedGuard>>,
}

/// One launch as the analyses see it: geometry, scalar arguments and the
/// iteration ranges of the loops they fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LaunchEnv {
    pub launch: LaunchConfig,
    /// Integer value of each scalar argument (`None` for buffers and for
    /// floats that are not whole numbers — the forms are integer forms).
    scalars: Vec<Option<i128>>,
    /// `var -> (first, last, step)` of the values the interpreter iterates
    /// (`first <= last` normalized); `None` for a provably empty loop;
    /// absent when the bounds do not resolve.
    loops: BTreeMap<VarId, Option<(i128, i128, i128)>>,
}

impl LaunchEnv {
    /// The environment of a launch, before any loop is resolved.
    pub fn new(launch: LaunchConfig, args: &[Arg]) -> LaunchEnv {
        let scalars = args
            .iter()
            .map(|a| match a {
                Arg::Scalar(Value::I64(v)) => Some(*v as i128),
                Arg::Scalar(Value::F64(v)) => (v.fract() == 0.0).then_some(*v as i128),
                Arg::Buffer(_) => None,
            })
            .collect();
        LaunchEnv {
            launch,
            scalars,
            loops: BTreeMap::new(),
        }
    }

    /// Evaluate a launch-invariant polynomial: scalar params from the
    /// arguments, dims from the launch.
    pub fn eval(&self, p: &Poly) -> Option<i128> {
        p.eval(&|s| self.sym(s))
    }

    fn sym(&self, s: Sym) -> Option<i128> {
        match s {
            Sym::Param(p) => *self.scalars.get(p.index())?,
            Sym::BlockDim(a) => Some(self.launch.block.get(a) as i128),
            Sym::GridDim(a) => Some(self.launch.grid.get(a) as i128),
        }
    }

    /// Resolve the iteration range of every loop whose bounds are launch
    /// constants, with the interpreter's semantics:
    /// `v = start; while (step > 0 ? v < end : v > end)`.
    fn resolve_loops(&mut self, acc: &KernelAccesses) {
        for (var, bounds) in &acc.loops {
            let Some([start, end, step]) = bounds else {
                continue;
            };
            let (Some(s0), Some(e0), Some(st)) =
                (self.eval(start), self.eval(end), self.eval(step))
            else {
                continue;
            };
            let range = match st {
                0 => continue,
                1.. if s0 >= e0 => None,
                1.. => Some((s0, s0 + ((e0 - 1 - s0) / st) * st, st)),
                _ if s0 <= e0 => None,
                _ => Some((s0 - ((s0 - (e0 + 1)) / -st) * -st, s0, -st)),
            };
            self.loops.insert(*var, range);
        }
    }

    /// Turn an affine form into numbers — the one place a form's
    /// coefficients are evaluated against a launch.
    pub fn resolve(&self, form: &AffineForm) -> Result<ResolvedForm, Unresolved> {
        let (coeffs, c0) = form
            .eval_coeffs(&|s| self.sym(s))
            .ok_or(Unresolved::Coefficients)?;
        let mut out = ResolvedForm {
            block: [0; 3],
            dims: Vec::new(),
            span: Interval::point(c0),
            base: c0,
            gcd: 0,
        };
        for (var, c) in coeffs {
            let (first, last, step) = match var {
                IdxVar::Block(a) => {
                    out.block[a as usize] = c;
                    continue;
                }
                IdxVar::Thread(a) => (0, self.launch.block.get(a) as i128 - 1, 1),
                // An empty loop's variable has no value to stand for (its
                // body, the only place it should appear, is dead).
                IdxVar::Loop(lv) => match self.loops.get(&lv) {
                    Some(Some(range)) => *range,
                    _ => return Err(Unresolved::LoopBounds),
                },
            };
            out.dims.push(Dim {
                var,
                stride: c * step,
                count: ((last - first) / step + 1) as u64,
            });
            out.span = out
                .span
                .add(Interval::point(c * first).hull(Interval::point(c * last)));
            out.base += c * first;
            out.gcd = gcd(out.gcd, c * step);
        }
        Ok(out)
    }

    /// Number of leading linear blocks (x-fastest) in which `guard` holds
    /// for every thread — the *full blocks* of the three-phase workflow.
    /// `None` when the guard does not resolve for this launch or shrinks
    /// along an axis (full blocks would not be a prefix).
    pub fn full_blocks(&self, guard: &TailGuard) -> Option<u64> {
        let lhs = self.resolve(&guard.lhs).ok()?;
        if lhs.has_loop() {
            return None;
        }
        let grid = self.launch.grid;
        let ext = [grid.x, grid.y, grid.z].map(|e| e as i128);
        // An axis of extent 1 pins its index at 0, whatever the coefficient.
        let coef: [i128; 3] = std::array::from_fn(|a| if ext[a] == 1 { 0 } else { lhs.block[a] });
        if coef.iter().any(|c| *c < 0) {
            return None;
        }
        // A block is full iff the guard holds at its largest thread offset:
        // Σ coef[a]·b_a < k.
        let k = self.eval(&guard.bound)? - lhs.span.hi;
        // Leading values `v` of an axis with `c·v < k`.
        let lead = |a: usize, k: i128| match (k > 0, coef[a]) {
            (false, _) => 0,
            (true, 0) => ext[a],
            (true, c) => ext[a].min((k + c - 1) / c),
        };
        let reach = |a: usize| coef[a] * (ext[a] - 1);
        // Whole planes, then whole rows of the first partial plane, then
        // the blocks of its first partial row.
        let planes = lead(2, k - reach(0) - reach(1));
        let mut full = planes * ext[0] * ext[1];
        if planes < ext[2] {
            let k = k - coef[2] * planes;
            let rows = lead(1, k - reach(0));
            full += rows * ext[0];
            if rows < ext[1] {
                full += lead(0, k - coef[1] * rows);
            }
        }
        Some(full as u64)
    }
}

pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A kernel's accesses resolved against one launch: the per-buffer read
/// and write footprints, and the per-access sites they are folded from.
/// Only parameters with at least one global access that can execute appear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchFootprints {
    /// Loads plus the read half of atomics.
    pub reads: BTreeMap<ParamId, BufferFootprint>,
    /// Stores plus atomics.
    pub writes: BTreeMap<ParamId, BufferFootprint>,
    pub(crate) env: LaunchEnv,
    pub(crate) sites: Vec<Site>,
}

impl LaunchFootprints {
    /// Resolve every access of `acc` under a concrete launch.
    ///
    /// Purely static — no probing, no memory access — so the result is a
    /// function of `(kernel, launch, scalar args)` alone and can ride along
    /// a captured graph node.
    pub fn of(acc: &KernelAccesses, launch: LaunchConfig, args: &[Arg]) -> LaunchFootprints {
        let mut env = LaunchEnv::new(launch, args);
        env.resolve_loops(acc);
        let mut fp = LaunchFootprints {
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            env,
            sites: Vec::with_capacity(acc.list.len()),
        };
        for a in &acc.list {
            let mut site = Site {
                state: SiteState::Dead,
                loop_unknown: false,
                tail_guards: Vec::new(),
            };
            let mut dead = false;
            for lv in &a.loops {
                match fp.env.loops.get(lv) {
                    Some(Some(_)) => {}
                    Some(None) => dead = true,
                    None => site.loop_unknown = true,
                }
            }
            if !dead {
                site.state = match &a.index {
                    _ if a.indirect => SiteState::Unresolved(Unresolved::Indirect),
                    None => SiteState::Unresolved(Unresolved::NonAffine),
                    Some(index) => match fp.env.resolve(index) {
                        Ok(form) => SiteState::Resolved(form),
                        Err(why) => SiteState::Unresolved(why),
                    },
                };
            }
            if let MemRef::Global(p) = a.mem {
                if a.write {
                    site.tail_guards = a
                        .tail_guards()
                        .map(|g| {
                            Some(ResolvedGuard {
                                lhs: fp.env.resolve(&g.lhs).ok()?,
                                bound: fp.env.eval(&g.bound)?,
                            })
                        })
                        .collect();
                }
                let folds = [
                    (&mut fp.writes, "write", a.write),
                    (&mut fp.reads, "read", !a.write || a.atomic),
                ];
                for (map, what, touched) in folds {
                    if touched {
                        record(map, what, p, a.elem_size, launch.grid, &site.state);
                    }
                }
            }
            fp.sites.push(site);
        }
        fp
    }

    /// The offsets write site `i` (`a` is `acc.list[i]`) stores in a full
    /// block, where this launch makes that set exact: the index and every
    /// enclosing loop resolve, and each guard conjunct on the path is passed
    /// by threads known here. A tail guard passes every thread of a full
    /// block; a launch-uniform comparison that holds at this launch passes
    /// every thread; a per-thread equality whose `small − big` resolves to
    /// `s·threadIdx.a + k` passes the one thread `t₀ = −k/s`, at which the
    /// form's `a` dimension is pinned (equalities on different axes compose).
    /// `Ok(None)`: the site never executes (an enclosing loop is empty, or no
    /// thread of the block passes). `Err` names what is not exact.
    pub(crate) fn exact_write(&self, i: usize, a: &Access) -> Result<Option<ResolvedForm>, String> {
        let site = &self.sites[i];
        let mut form = match &site.state {
            SiteState::Dead => return Ok(None),
            SiteState::Unresolved(why) => return Err(why.describe("write")),
            SiteState::Resolved(_) if site.loop_unknown => {
                return Err(Unresolved::LoopBounds.describe("write"))
            }
            SiteState::Resolved(form) => form.clone(),
        };
        let mut pinned = [None; 3];
        for g in &a.guards {
            if matches!(g.class, GuardClass::Tail(_)) {
                continue;
            }
            let diff = |c: &Comparison| self.env.resolve(&c.small.sub(&c.big)).ok();
            match (&g.class, g.cmp.as_ref().and_then(|c| Some((c, diff(c)?)))) {
                (GuardClass::Uniform, Some((c, d))) if d.dims.is_empty() && c.holds(d.base) => {}
                (GuardClass::Uniform, _) => {
                    return Err("launch-uniform guard not true at this launch".into())
                }
                (GuardClass::PerThreadUniform, Some((c, d))) if c.eq && d.block == [0; 3] => {
                    let [Dim {
                        var: IdxVar::Thread(axis),
                        stride,
                        count,
                    }] = d.dims[..]
                    else {
                        return Err("equality guard does not select one thread".into());
                    };
                    let t0 = -d.base / stride;
                    if d.base % stride != 0 || !(0..count as i128).contains(&t0) {
                        return Ok(None);
                    }
                    match pinned[axis as usize].replace(t0) {
                        None => form.pin(IdxVar::Thread(axis), t0),
                        Some(p) if p != t0 => return Ok(None),
                        Some(_) => {}
                    }
                }
                _ => return Err("guard selects threads other than by one equality".into()),
            }
        }
        Ok(Some(form))
    }

    /// Byte ranges of buffer `p` the launch is certain to write — the
    /// direction opposite to `Must`, for a reader that asks what a launch
    /// overwrites. A write site counts only where its offset set is exactly
    /// what the grid stores: the kernel runs to completion as the forms say,
    /// the site is an `exact_write`, every block of the grid is full
    /// under its tail guards, and its set over the whole grid is gapless.
    /// Any other site contributes nothing.
    pub fn certain_writes(&self, acc: &KernelAccesses, p: ParamId) -> Vec<(u64, u64)> {
        if !(acc.runs_to_completion() && acc.faithful) {
            return Vec::new();
        }
        let grid = self.env.launch.grid;
        let all_full = |g: &TailGuard| self.env.full_blocks(g) == Some(grid.count());
        let exact = |(i, _, a): (usize, ParamId, &Access)| {
            let form = self
                .exact_write(i, a)
                .ok()
                .flatten()
                .filter(|_| a.tail_guards().all(all_full))?;
            let (lo, hi) = form.dense_over((0, 0, 0), [grid.x, grid.y, grid.z].map(u64::from))?;
            let (lo, elem) = (u64::try_from(lo).ok()?, a.elem_size as u64);
            Some((lo * elem, (hi as u64 + 1) * elem))
        };
        let sites = acc.writes().filter(|(_, q, _)| *q == p);
        sites.filter_map(exact).collect()
    }
}

/// One launch as the launch-time rules read it, resolved once: the
/// footprints, the kernel compiled for the launch and the range analysis
/// over that program. The verifier ([`crate::verify()`]) and the lint
/// ([`crate::lint_kernel`]) read it; a sanitized launch builds it from the
/// program it runs. Buffers are measured in bytes: an extent is a byte size
/// over the element size of the parameter (or slot, [`global_extents`])
/// that reads it, so two parameters bound to one buffer each get their own.
#[derive(Debug)]
pub struct LaunchFacts<'a> {
    /// The kernel as launched.
    pub kernel: &'a Kernel,
    /// Its accesses ([`KernelAccesses::of_kernel`]).
    pub accesses: Cow<'a, KernelAccesses>,
    /// The launch's arguments.
    pub args: &'a [Arg],
    /// The accesses resolved against the launch.
    pub footprints: LaunchFootprints,
    /// Byte size of the buffer bound to each parameter (`None`: a scalar, or unknown).
    bytes: Vec<Option<usize>>,
    /// The launch's program and its range analysis, or why it does not compile.
    pub compiled: Result<Cow<'a, CompiledLaunch>, String>,
}

impl<'a> LaunchFacts<'a> {
    /// The facts of `kernel` launched as `launch` on `args`, whose buffers
    /// hold `size_of` bytes. A caller holding the kernel's `accesses` (a
    /// compiled kernel's `analysis.accesses`) or the program the launch
    /// runs (`compiled`, for this launch and these arguments) passes them;
    /// what it does not hold is walked, or compiled and range-analysed, here.
    pub fn of(
        kernel: &'a Kernel,
        accesses: Option<&'a KernelAccesses>,
        launch: LaunchConfig,
        args: &'a [Arg],
        size_of: impl Fn(BufferId) -> Option<usize>,
        compiled: Option<&'a CompiledLaunch>,
    ) -> LaunchFacts<'a> {
        let compiled = match compiled {
            Some(c) => Ok(Cow::Borrowed(c)),
            None => Program::compile(kernel, launch, args)
                .map(|program| {
                    let ranges = analyze_ranges(&program, &global_extents(&program, &size_of));
                    Cow::Owned(CompiledLaunch { program, ranges })
                })
                .map_err(|e| e.to_string()),
        };
        let bytes = (args.iter())
            .map(|a| match a {
                Arg::Buffer(b) => size_of(*b),
                Arg::Scalar(_) => None,
            })
            .collect();
        let accesses = accesses.map_or_else(
            || Cow::Owned(KernelAccesses::of_kernel(kernel)),
            Cow::Borrowed,
        );
        let footprints = LaunchFootprints::of(&accesses, launch, args);
        LaunchFacts {
            kernel,
            accesses,
            args,
            footprints,
            bytes,
            compiled,
        }
    }

    /// Element count of the buffer bound to global parameter `p`.
    pub(crate) fn extent(&self, p: ParamId) -> Option<u64> {
        let elem = self.kernel.elem_type(MemRef::Global(p)).size();
        self.bytes[p.index()].map(|b| (b / elem) as u64)
    }
}

/// Fold one site into its buffer's footprint.
fn record(
    map: &mut BTreeMap<ParamId, BufferFootprint>,
    what: &str,
    p: ParamId,
    elem_size: usize,
    grid: Dim3,
    state: &SiteState,
) {
    let next = match state {
        SiteState::Dead => return,
        SiteState::Unresolved(why) => {
            let why = why.describe(what);
            map.insert(p, BufferFootprint::Unknown { why });
            return;
        }
        SiteState::Resolved(form) => BlockInterval {
            coeff: form.block,
            span: form.span,
        },
    };
    let fp = map.entry(p).or_insert_with(|| BufferFootprint::Must {
        elem_bytes: elem_size as u64,
        grid,
        intervals: Vec::new(),
    });
    // An `Unknown` buffer stays `Unknown`.
    if let BufferFootprint::Must { intervals, .. } = fp {
        if !intervals.contains(&next) {
            intervals.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::{parse_kernel, Kernel};

    fn kernel_of(src: &str) -> Kernel {
        parse_kernel(src).expect("parse")
    }

    fn launch_footprints(kernel: &Kernel, launch: &LaunchConfig, args: &[Arg]) -> LaunchFootprints {
        LaunchFootprints::of(&KernelAccesses::of_kernel(kernel), *launch, args)
    }

    #[test]
    fn slice_local_kernel_is_must_with_block_coeff() {
        let k = kernel_of(
            "__global__ void f(float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = 2.0f * x[id];
            }",
        );
        let launch = LaunchConfig::cover1(1024, 128);
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(0), Arg::int(1024)]);
        let x = k.param_by_name("x").unwrap();
        let y = k.param_by_name("y").unwrap();
        let read = fp.reads.get(&x).expect("x read");
        assert!(read.is_must());
        // block b reads elements [128b, 128b + 127] -> bytes [512b, 512b+512)
        assert_eq!(read.byte_ranges(2..3), Some(vec![(1024, 1536)]));
        assert_eq!(read.byte_ranges(0..8), Some(vec![(0, 4096)]));
        let write = fp.writes.get(&y).expect("y write");
        assert!(write.is_must());
        assert!(!fp.reads.contains_key(&y), "y is write-only");
    }

    #[test]
    fn indirect_index_is_unknown() {
        let k = kernel_of(
            "__global__ void g(int* idx, float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = x[idx[id]];
            }",
        );
        let launch = LaunchConfig::cover1(256, 64);
        let fp = launch_footprints(
            &k,
            &launch,
            &[Arg::int(0), Arg::int(0), Arg::int(0), Arg::int(256)],
        );
        let x = k.param_by_name("x").unwrap();
        assert!(
            !fp.reads.get(&x).expect("x read").is_must(),
            "data-dependent read must stay Unknown"
        );
        // The index buffer itself is still an affine Must read.
        let idx = k.param_by_name("idx").unwrap();
        assert!(fp.reads.get(&idx).unwrap().is_must());
    }

    #[test]
    fn block_invariant_read_has_zero_coeff() {
        let k = kernel_of(
            "__global__ void h(float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = x[id] + x[0];
            }",
        );
        let launch = LaunchConfig::cover1(512, 64);
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(0), Arg::int(512)]);
        let x = k.param_by_name("x").unwrap();
        let BufferFootprint::Must { intervals, .. } = fp.reads.get(&x).unwrap() else {
            panic!("expected Must");
        };
        assert_eq!(intervals.len(), 2, "slice-local + broadcast element");
        assert!(intervals.contains(&BlockInterval {
            coeff: [0; 3],
            span: Interval::point(0),
        }));
        // Blocks 4..8 read their slices plus element 0.
        let ranges = fp.reads.get(&x).unwrap().byte_ranges(4..8).unwrap();
        assert!(ranges.contains(&(4 * 64 * 4, 8 * 64 * 4)));
        assert!(ranges.contains(&(0, 4)));
    }

    #[test]
    fn loop_dependent_index_spans_the_loop() {
        let k = kernel_of(
            "__global__ void l(float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int i = 0; i < 4; i++) { acc = acc + x[id + i]; }
                if (id < n) y[id] = acc;
            }",
        );
        let launch = LaunchConfig::cover1(256, 64);
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(0), Arg::int(256)]);
        let x = k.param_by_name("x").unwrap();
        // Block b reads x[64b .. 64b + 63 + 3]: the loop widens the hull.
        assert_eq!(
            fp.reads.get(&x).unwrap().byte_ranges(1..2),
            Some(vec![(64 * 4, (128 + 3) * 4)])
        );
    }

    #[test]
    fn unresolvable_loop_bound_is_unknown() {
        let k = kernel_of(
            "__global__ void l(float* x, float* y, int* m) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int i = 0; i < m[0]; i++) { acc = acc + x[id + i]; }
                y[id] = acc;
            }",
        );
        let launch = LaunchConfig::cover1(256, 64);
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(0), Arg::int(0)]);
        assert!(!fp
            .reads
            .get(&k.param_by_name("x").unwrap())
            .unwrap()
            .is_must());
        assert!(fp
            .writes
            .get(&k.param_by_name("y").unwrap())
            .unwrap()
            .is_must());
    }

    #[test]
    fn multi_axis_grid_widens_a_block_range_to_its_box() {
        let k = kernel_of(
            "__global__ void t(float* in, float* out, int w) {
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                out[y * w + x] = in[y * w + x];
            }",
        );
        let launch = LaunchConfig::new((4u32, 4u32), (8u32, 8u32));
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(0), Arg::int(32)]);
        let read = fp.reads.get(&k.param_by_name("in").unwrap()).unwrap();
        // Block (1, 2): rows 16..=23, columns 8..=15.
        assert_eq!(
            read.byte_ranges(9..10),
            Some(vec![((16 * 32 + 8) * 4, (23 * 32 + 16) * 4)])
        );
        // A whole row of blocks is its 8 image rows; a range that crosses a
        // row boundary covers both rows of blocks in full.
        assert_eq!(
            read.byte_ranges(4..8),
            Some(vec![(8 * 32 * 4, 16 * 32 * 4)])
        );
        assert_eq!(read.byte_ranges(3..5), Some(vec![(0, 16 * 32 * 4)]));
    }

    #[test]
    fn atomic_counts_as_read_and_write() {
        let k = kernel_of(
            "__global__ void a(int* c, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) atomicAdd(&c[0], 1);
            }",
        );
        let launch = LaunchConfig::cover1(128, 64);
        let fp = launch_footprints(&k, &launch, &[Arg::int(0), Arg::int(128)]);
        let c = k.param_by_name("c").unwrap();
        assert!(fp.reads.contains_key(&c));
        assert!(fp.writes.contains_key(&c));
    }
}
