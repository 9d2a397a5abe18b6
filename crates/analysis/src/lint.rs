//! Kernel lint pass: dead-code and style findings on top of the range
//! analysis.
//!
//! The verifier ([`mod@crate::verify`]) answers "can this launch fault or
//! race?"; this module answers the softer question "is this kernel doing
//! work that cannot matter?". All findings are `Severity::Info` — a lint
//! never fails a build — and reuse the verifier's [`Diagnostic`] shape so
//! `cucc lint`, `cucc check` and `cucc analyze` share one rendering.
//!
//! Finding catalog (each message starts with its stable kind tag):
//!
//! * `dead store` — a store to a `__shared__` or local array that the
//!   kernel never reads back: the array is write-only, so the stores (and
//!   any barrier protecting them) are dead work.
//! * `redundant barrier` — a `__syncthreads()` with nothing to order at
//!   this launch: the kernel touches no shared memory, and every global
//!   buffer it writes is accessed at one loop-free index that no two threads
//!   of a block share, so no thread reads, overwrites or is overwritten by
//!   another's element (read-after-write, write-after-read and
//!   write-after-write all need two threads on one element).
//! * `uniform branch barrier` — a barrier nested under `if`s whose
//!   conditions are all provably thread-uniform: legal (no divergence), but
//!   the barrier can be hoisted out of the conditional, where the phase
//!   splitter handles it without per-phase condition re-evaluation.
//! * `constant condition` — an `if` whose condition the range analysis
//!   proves always-true or always-false *under this launch* (attributed to
//!   a source line through the compiler's `if`-site table — `?:` selects
//!   also lower to conditional jumps, so jump-counting alone would
//!   misattribute).
//! * `unreachable code` — compiled instructions the abstract interpreter
//!   proves can never execute under this launch (dead branches of constant
//!   conditions, code after a uniform `return`).
//!
//! The launch-graph analogue (a statically dead *launch*) lives in
//! `cucc-core::graph`, which owns the graph structure; it reuses this
//! module's diagnostic shape.

use crate::affine::IdxVar;
use crate::footprint::{LaunchFacts, ResolvedForm, SiteState};
use crate::range::RangeAnalysis;
use crate::verify::{Diagnostic, Rule, Severity, SiteRef};
use cucc_exec::bytecode::injective;
use cucc_exec::{Arg, Program};
use cucc_ir::{barrier_sites, var_variance, Expr, Kernel, MemRef, SourceMap, Stmt};
use std::collections::HashMap;

/// Result of [`lint_kernel`]: findings plus the range-analysis coverage
/// summary (`cucc check --builtin` prints the latter per kernel).
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, in catalog order (every severity is `Info`).
    pub diagnostics: Vec<Diagnostic>,
    /// `(certified, total)` reachable memory accesses.
    pub cert_stats: (usize, usize),
    /// `(reachable, total)` compiled instructions.
    pub reach_stats: (usize, usize),
}

impl LintReport {
    /// One-line range/lint summary (used by `cucc check --builtin`).
    pub fn summary(&self) -> String {
        let (c, t) = self.cert_stats;
        let (r, n) = self.reach_stats;
        format!(
            "certified {c}/{t} accesses, reachable {r}/{n} insts, {} lint finding(s)",
            self.diagnostics.len()
        )
    }

    /// Multi-line human rendering in the verifier's format.
    pub fn render(&self) -> String {
        let mut out = format!("  range   : {}\n", self.summary());
        for d in &self.diagnostics {
            out += &format!("  {d}\n");
        }
        if self.diagnostics.is_empty() {
            out += "  no lint findings\n";
        }
        out
    }
}

/// Run every kernel lint on one launch's facts. Fails only when the kernel
/// does not compile at the launch.
pub fn lint_kernel(facts: &LaunchFacts, map: Option<&SourceMap>) -> Result<LintReport, String> {
    let c = facts.compiled.as_ref().map_err(String::clone)?;
    let ra = &c.ranges;

    let mut diags = Vec::new();
    lint_dead_stores(facts.kernel, map, &mut diags);
    lint_barriers(facts, map, &mut diags);
    lint_constant_conditions(&c.program, ra, map, &mut diags);
    lint_unreachable(ra, &mut diags);

    let reachable = ra.reachable.iter().filter(|r| **r).count();
    Ok(LintReport {
        diagnostics: diags,
        cert_stats: ra.stats(),
        reach_stats: (reachable, ra.reachable.len()),
    })
}

fn info(msg: String) -> Diagnostic {
    Diagnostic::new(Rule::Lint, Severity::Info, msg)
}

// ------------------------------------------------------------ dead store --

/// Name of a shared/local array, for messages.
fn array_name(kernel: &Kernel, mem: MemRef) -> Option<&str> {
    match mem {
        MemRef::Shared(i) => kernel.shared.get(i as usize).map(|d| d.name.as_str()),
        MemRef::Local(i) => kernel.locals.get(i as usize).map(|d| d.name.as_str()),
        MemRef::Global(_) => None,
    }
}

/// Stores to shared/local arrays the kernel never reads. Global buffers are
/// exempt: their stores are the kernel's observable output.
fn lint_dead_stores(kernel: &Kernel, map: Option<&SourceMap>, out: &mut Vec<Diagnostic>) {
    use std::collections::HashSet;
    let mut read: HashSet<MemRef> = HashSet::new();
    kernel.visit_stmts(&mut |s| {
        // Atomics read-modify-write their target.
        if let Stmt::AtomicRmw { mem, .. } = s {
            read.insert(*mem);
        }
        s.visit_exprs(&mut |e| {
            e.visit(&mut |e| {
                if let Expr::Load { mem, .. } = e {
                    read.insert(*mem);
                }
            });
        });
    });
    // Pre-order walk over non-global writes, tracking the shared-write
    // ordinal for source-line attribution.
    let mut ordinal = 0usize;
    kernel.visit_stmts(&mut |s| {
        let (Stmt::Store { mem, .. } | Stmt::AtomicRmw { mem, .. }) = s else {
            return;
        };
        if matches!(mem, MemRef::Global(_)) {
            return;
        }
        if !read.contains(mem) {
            let name = array_name(kernel, *mem).unwrap_or("?");
            let mut d = info(format!(
                "dead store: `{name}` is written but never read — the store (and any \
                 barrier ordering it) is dead work"
            ));
            d.site = Some(SiteRef {
                buffer: name.to_string(),
                ordinal,
                line: map.and_then(|m| m.shared_write_lines.get(ordinal).copied()),
            });
            out.push(d);
        }
        ordinal += 1;
    });
}

// -------------------------------------------------------------- barriers --

/// Redundant and uniformly-guarded barriers, at the validator's sites
/// ([`barrier_sites`]).
fn lint_barriers(facts: &LaunchFacts, map: Option<&SourceMap>, out: &mut Vec<Diagnostic>) {
    let sites = barrier_sites(facts.kernel, &var_variance(facts.kernel));
    let redundant = !sites.is_empty() && !barrier_orders_memory(facts);
    for (ordinal, site) in sites.iter().enumerate() {
        let mut d = match (redundant, site.uniform_ifs) {
            (true, _) => info(
                "redundant barrier: no shared memory, and no two threads of a block touch one \
                 element of global memory, so `__syncthreads()` has nothing to order"
                    .into(),
            ),
            (false, 0) => continue,
            (false, n) => info(format!(
                "uniform branch barrier: `__syncthreads()` sits under {n} provably \
                 thread-uniform condition(s) — hoisting it out of the conditional avoids \
                 per-phase condition re-evaluation"
            )),
        };
        d.site = Some(SiteRef::barrier(ordinal, map));
        out.push(d);
    }
}

/// Whether a barrier can order memory at this launch: the kernel touches
/// shared memory, or some global buffer it writes is accessed by two
/// threads of one block at one element. A buffer (the memory object a
/// parameter is bound to, so two parameters bound to one buffer are one)
/// whose every access takes one resolved, loop-free index form, injective
/// over the threads of a block, is touched by each thread at its own
/// element only — when the forms are faithful (no narrowing cast wraps
/// them).
fn barrier_orders_memory(facts: &LaunchFacts) -> bool {
    let (acc, launch, args) = (&facts.accesses, facts.footprints.env.launch, facts.args);
    if !acc.faithful {
        return true;
    }
    let own = |f: &ResolvedForm| {
        let mut c = [0i64; 3];
        for d in &f.dims {
            match (d.var, i64::try_from(d.stride)) {
                (IdxVar::Thread(a), Ok(s)) => c[a as usize] = s,
                _ => return false,
            }
        }
        injective(c, launch.block)
    };
    // Per buffer: written at all, and the one own-element index every
    // access takes (`None` once one is not its thread's own or two differ).
    let mut buffers = HashMap::new();
    for (a, site) in acc.list.iter().zip(&facts.footprints.sites) {
        let p = match a.mem {
            MemRef::Shared(_) => return true,
            MemRef::Local(_) => continue,
            MemRef::Global(p) => p,
        };
        let index = match &site.state {
            SiteState::Dead => continue,
            SiteState::Resolved(f) if own(f) => Some((a.elem_size, f)),
            _ => None,
        };
        let Some(Arg::Buffer(id)) = args.get(p.index()) else {
            return true;
        };
        let (written, one) = buffers.entry(*id).or_insert((false, index));
        *written |= a.write;
        if *one != index {
            *one = None;
        }
    }
    (buffers.values()).any(|(written, one)| *written && one.is_none())
}

// --------------------------------------------------- constant conditions --

/// `if`s whose condition the range analysis proves constant at this launch.
fn lint_constant_conditions(
    prog: &Program,
    ra: &RangeAnalysis,
    map: Option<&SourceMap>,
    out: &mut Vec<Diagnostic>,
) {
    for fact in &ra.branches {
        let Some(outcome) = fact.outcome else {
            continue;
        };
        // Attribute the branch pc to a source `if` (selects are excluded
        // from the if-site table, so they never produce this lint).
        let Some(ord) = prog.if_sites().iter().position(|pc| *pc == fact.pc) else {
            continue;
        };
        let mut d = info(format!(
            "constant condition: `if` #{ord} is provably always {outcome} at this launch — \
             the {} branch is dead here",
            if outcome { "else" } else { "then" }
        ));
        d.site = Some(SiteRef {
            buffer: String::new(),
            ordinal: ord,
            line: map.and_then(|m| m.if_lines.get(ord).copied()),
        });
        out.push(d);
    }
}

// ------------------------------------------------------ unreachable code --

/// Instructions the abstract interpreter never reached under this launch.
fn lint_unreachable(ra: &RangeAnalysis, out: &mut Vec<Diagnostic>) {
    let dead = ra.reachable.iter().filter(|r| !**r).count();
    if dead > 0 {
        out.push(info(format!(
            "unreachable code: {dead} of {} compiled instruction(s) can never execute at \
             this launch",
            ra.reachable.len()
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_exec::BufferId;
    use cucc_ir::{parse_kernel_with_map, LaunchConfig};

    /// Lint at `launch`, parameter `i` (bound to `BufferId(i)`) holding
    /// `extents[i]` elements.
    fn lint_at(
        src: &str,
        launch: LaunchConfig,
        args: &[Arg],
        extents: &[Option<u64>],
    ) -> LintReport {
        let (k, map) = parse_kernel_with_map(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let bytes = |b: BufferId| {
            let elem = k.elem_type(MemRef::Global(cucc_ir::ParamId(b.0)));
            extents[b.index()].map(|e| e as usize * elem.size())
        };
        let facts = LaunchFacts::of(&k, None, launch, args, bytes, None);
        lint_kernel(&facts, Some(&map)).unwrap()
    }

    fn lint(src: &str, args: Vec<Arg>, extents: Vec<Option<u64>>) -> LintReport {
        lint_at(src, LaunchConfig::new(2u32, 32u32), &args, &extents)
    }

    fn kinds(r: &LintReport) -> Vec<&str> {
        r.diagnostics
            .iter()
            .map(|d| d.message.split(':').next().unwrap())
            .collect()
    }

    #[test]
    fn clean_kernel_has_no_findings() {
        let r = lint(
            "__global__ void k(float* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = 1.0f;
            }",
            // n = 50 < 64 threads, so the guard genuinely cuts (a guard that
            // is always true at the launch is itself a constant-condition
            // finding, by design).
            vec![Arg::Buffer(BufferId(0)), Arg::int(50)],
            vec![Some(64), None],
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.cert_stats.0, r.cert_stats.1);
    }

    #[test]
    fn dead_store_to_unread_shared_array() {
        let r = lint(
            "__global__ void k(float* out) {
                __shared__ float tile[32];
                tile[threadIdx.x] = 1.0f;
                out[blockIdx.x * blockDim.x + threadIdx.x] = 2.0f;
            }",
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(64)],
        );
        assert!(kinds(&r).contains(&"dead store"), "{:?}", r.diagnostics);
        let d = &r.diagnostics[0];
        assert_eq!(d.site.as_ref().unwrap().line, Some(3));
    }

    #[test]
    fn redundant_barrier_without_shared_memory() {
        let r = lint(
            "__global__ void k(float* out) {
                out[threadIdx.x] = 1.0f;
                __syncthreads();
                out[threadIdx.x] = 2.0f;
            }",
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(32)],
        );
        assert!(
            kinds(&r).contains(&"redundant barrier"),
            "{:?}",
            r.diagnostics
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.message.starts_with("redundant barrier"))
            .unwrap();
        assert_eq!(d.site.as_ref().unwrap().line, Some(3));
    }

    /// `__syncthreads()` orders global memory too: each kernel below changes
    /// its output when the barrier is deleted.
    fn barrier_findings(src: &str, launch: LaunchConfig, args: &[Arg]) -> Vec<String> {
        let extents: Vec<_> = (args.iter())
            .map(|a| matches!(a, Arg::Buffer(_)).then_some(64))
            .collect();
        let r = lint_at(src, launch, args, &extents);
        (r.diagnostics.iter())
            .filter(|d| d.message.contains("barrier"))
            .map(|d| d.message.clone())
            .collect()
    }

    #[test]
    fn barrier_ordering_a_neighbours_global_read_is_not_redundant() {
        // Read-after-write: thread t reads the element thread t ^ 1 wrote.
        let src = "__global__ void k(int* a, int* b) {
            int t = blockIdx.x * blockDim.x + threadIdx.x;
            a[t] = t;
            __syncthreads();
            b[t] = a[t ^ 1];
        }";
        let args = [Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))];
        let found = barrier_findings(src, LaunchConfig::new(2u32, 4u32), &args);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn barrier_ordering_two_writes_to_one_element_is_not_redundant() {
        // Write-after-write: every thread of a block writes `out[blockIdx.x]`,
        // then thread 5 overwrites it.
        let src = "__global__ void k(float* out) {
            out[blockIdx.x] = 1.0f;
            __syncthreads();
            if (threadIdx.x == 5) out[blockIdx.x] = 2.0f;
        }";
        let found = barrier_findings(
            src,
            LaunchConfig::new(2u32, 8u32),
            &[Arg::Buffer(BufferId(0))],
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn barrier_redundancy_keys_on_the_buffer_and_the_block_shape() {
        // Write-after-read through two parameters bound to one buffer.
        let src = "__global__ void k(int* a, int* b) {
            int t = threadIdx.x;
            int v = a[t];
            __syncthreads();
            b[t + 1] = v;
        }";
        let one = [Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(0))];
        let two = [Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))];
        let launch = LaunchConfig::new(2u32, 8u32);
        assert!(barrier_findings(src, launch, &one).is_empty());
        let found = barrier_findings(src, launch, &two);
        assert!(found[0].starts_with("redundant barrier"), "{found:?}");
        // `threadIdx.x` is shared by the rows of a 2-D block.
        let own = "__global__ void k(float* out) {
            out[threadIdx.x] = 1.0f;
            __syncthreads();
            out[threadIdx.x] = 2.0f;
        }";
        let args = [Arg::Buffer(BufferId(0))];
        assert!(barrier_findings(own, LaunchConfig::new(1u32, (4u32, 2u32)), &args).is_empty());
        let found = barrier_findings(own, LaunchConfig::new(1u32, (4u32, 1u32)), &args);
        assert!(found[0].starts_with("redundant barrier"), "{found:?}");
    }

    #[test]
    fn uniform_branch_barrier_flagged() {
        let r = lint(
            "__global__ void k(float* out, int n) {
                __shared__ float tile[32];
                if (n > 0) {
                    tile[threadIdx.x] = 1.0f;
                    __syncthreads();
                    out[threadIdx.x] = tile[0];
                }
            }",
            vec![Arg::Buffer(BufferId(0)), Arg::int(4)],
            vec![Some(32), None],
        );
        assert!(
            kinds(&r).contains(&"uniform branch barrier"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn constant_condition_and_unreachable_reported_with_line() {
        let r = lint(
            "__global__ void k(float* out, int n) {
                int id = threadIdx.x;
                if (id < 100) {
                    out[id] = 1.0f;
                } else {
                    out[0] = 2.0f;
                }
            }",
            vec![Arg::Buffer(BufferId(0)), Arg::int(4)],
            vec![Some(32), None],
        );
        // blockDim 32 → id < 100 always true; the else branch is dead.
        let ks = kinds(&r);
        assert!(ks.contains(&"constant condition"), "{:?}", r.diagnostics);
        assert!(ks.contains(&"unreachable code"), "{:?}", r.diagnostics);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.message.starts_with("constant condition"))
            .unwrap();
        assert_eq!(d.site.as_ref().unwrap().line, Some(3));
    }

    #[test]
    fn select_does_not_masquerade_as_if() {
        // `?:` lowers to a conditional jump too; the if-site table must not
        // attribute its constant condition to a nonexistent `if`.
        let r = lint(
            "__global__ void k(float* out) {
                int id = threadIdx.x;
                out[id] = id < 100 ? 1.0f : 2.0f;
            }",
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(32)],
        );
        assert!(
            !kinds(&r).contains(&"constant condition"),
            "{:?}",
            r.diagnostics
        );
    }
}
