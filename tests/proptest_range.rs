//! Two-sided soundness corpus for the range abstract interpreter
//! (`cucc-analysis::range`) and the engine's certified unchecked fast
//! paths:
//!
//! 1. **Certificates are sound** — on random kernels, launches, and
//!    (possibly undersized) allocations, forcing `CertMode::Validate`
//!    re-checks every certified access at runtime; a certified access
//!    that faults is `ExecError::CertificateViolation`, which must never
//!    occur. Uncertified accesses may still trap — imprecision is
//!    allowed, unsoundness is not. When the analysis certifies *every*
//!    access, the dynamic sanitizer must observe zero OOB.
//!
//! 2. **Elision is invisible** — with certificates attached in
//!    `CertMode::Elide`, final memory and `BlockStats` must be
//!    bit-identical to the checked path three ways (tree-walk oracle,
//!    compiled engine, compiled engine with its lane plans detached).

use cucc::analysis::{analyze_ranges, certify_program, global_extents};
use cucc::exec::{
    execute_launch, run_range, sanitize_launch, Arg, BufferId, CertMode, ExecError, MemPool,
    Program,
};
use cucc::ir::{parse_kernel, validate, LaunchConfig, Scalar};
use proptest::prelude::*;

/// One random subject: an access shape, a launch geometry, and an
/// allocation shortfall (elements removed from the exact footprint — 0
/// means certified shapes stay certified, >0 forces uncertified or
/// faulting accesses the analysis must *not* have certified).
#[derive(Debug, Clone)]
struct Subject {
    shape: Shape,
    blocks: u32,
    threads: u32,
    shortfall: u64,
}

#[derive(Debug, Clone)]
enum Shape {
    /// `out[id]` — certified iff the buffer covers the grid.
    Plain,
    /// `if (id < n) out[id]` — guard certifies against extent `n`.
    Guarded { quarters: i64 },
    /// `out[id % m]` — rem transfer certifies against extent `m`.
    Modulo { m: i64 },
    /// `out[id] = x[id] + x[id / 2]` — two read sites, one certified-width.
    ReadPair,
    /// Loop accumulation with a local array staged in between.
    LoopLocal { iters: i64 },
}

impl Subject {
    fn total(&self) -> i64 {
        self.blocks as i64 * self.threads as i64
    }

    fn source(&self) -> String {
        let body = match &self.shape {
            Shape::Plain => "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 out[id] = id;"
                .to_string(),
            Shape::Guarded { .. } => "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 if (id < n) out[id] = 2 * id;"
                .to_string(),
            Shape::Modulo { m } => format!(
                "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 out[id % {m}] = id;"
            ),
            Shape::ReadPair => "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 out[id] = x[id] + x[id / 2];"
                .to_string(),
            Shape::LoopLocal { iters } => format!(
                "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 int acc[4];
                 acc[0] = 0;
                 for (int i = 0; i < {iters}; i++) {{
                     acc[i % 4] = id + i;
                 }}
                 out[id] = acc[0];"
            ),
        };
        let params = match self.shape {
            Shape::Guarded { .. } => "int* out, int n",
            Shape::ReadPair => "int* out, int* x",
            _ => "int* out",
        };
        format!("__global__ void k({params}) {{ {body} }}")
    }

    /// Exact element footprint of `out` (before the shortfall).
    fn exact_extent(&self) -> i64 {
        match &self.shape {
            Shape::Guarded { quarters } => (self.total() * quarters / 4).max(1),
            Shape::Modulo { m } => *m,
            _ => self.total(),
        }
    }

    /// Build the argument pool at the (possibly shortened) extent.
    fn build(&self) -> (MemPool, Vec<Arg>, u64) {
        let extent = (self.exact_extent() as u64)
            .saturating_sub(self.shortfall)
            .max(1);
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, extent as usize);
        let mut args = vec![Arg::Buffer(out)];
        match self.shape {
            Shape::Guarded { .. } => args.push(Arg::int(self.exact_extent())),
            Shape::ReadPair => {
                // `x` always covers the grid, so only `out` can fault.
                let x = pool.alloc_elems(Scalar::I32, self.total() as usize);
                args.push(Arg::Buffer(x));
            }
            _ => {}
        }
        (pool, args, extent)
    }
}

fn subject() -> impl Strategy<Value = Subject> {
    let shape = prop_oneof![
        Just(Shape::Plain),
        (1i64..=4).prop_map(|quarters| Shape::Guarded { quarters }),
        (1i64..24).prop_map(|m| Shape::Modulo { m }),
        Just(Shape::ReadPair),
        (1i64..6).prop_map(|iters| Shape::LoopLocal { iters }),
    ];
    (
        shape,
        1u32..6,
        prop::sample::select(vec![2u32, 4, 8, 16]),
        0u64..3,
    )
        .prop_map(|(shape, blocks, threads, shortfall)| Subject {
            shape,
            blocks,
            threads,
            shortfall,
        })
}

/// Compile and certify against the pool's real allocation sizes.
fn certified_program(s: &Subject, mode: CertMode) -> (Program, MemPool, Vec<Arg>, (usize, usize)) {
    let kernel = parse_kernel(&s.source()).unwrap();
    validate(&kernel).unwrap();
    let launch = LaunchConfig::new(s.blocks, s.threads);
    let (pool, args, _) = s.build();
    let mut prog = Program::compile(&kernel, launch, &args).unwrap();
    let exts = global_extents(&prog, |b| (b.index() < pool.len()).then(|| pool.size_of(b)));
    let stats = certify_program(&mut prog, &exts, mode).stats();
    (prog, pool, args, stats)
}

/// Run the whole launch on a scratch clone of `pool`, with the lane plans
/// and with them detached (both read the one per-pc certificate mask).
fn run_both_ways(prog: &Program, pool: &MemPool) -> Result<(), ExecError> {
    let nb = prog.launch().num_blocks();
    run_range(prog, &mut pool.clone(), 0..nb)?;
    let mut detached = prog.clone();
    detached.detach_lane_plans();
    run_range(&detached, &mut pool.clone(), 0..nb)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Side 1 — soundness: no certificate is ever contradicted at runtime.
    #[test]
    fn certified_accesses_never_trap(s in subject()) {
        let (prog, pool, args, (certified, total)) = certified_program(&s, CertMode::Validate);
        // Validate mode re-checks every certified access with and without
        // lane plans; a cert-violating fault is CertificateViolation.
        match run_both_ways(&prog, &pool) {
            Ok(()) => {}
            Err(ExecError::CertificateViolation { .. }) => {
                prop_assert!(false, "certificate contradicted at runtime on {s:?}");
            }
            Err(_) => {} // an *uncertified* access faulted: imprecision, fine
        }
        // Fully certified ⇒ the sanitizer observes zero OOB.
        if certified == total {
            let kernel = parse_kernel(&s.source()).unwrap();
            let launch = LaunchConfig::new(s.blocks, s.threads);
            let report = sanitize_launch(&kernel, launch, &args, &pool);
            prop_assert!(
                report.oob.is_empty(),
                "fully certified but sanitizer trapped on {s:?}: {:?}",
                report.oob
            );
        }
    }

    /// Side 1b — precision floor: with exact extents, every corpus shape is
    /// fully certified (the fast path actually engages).
    #[test]
    fn exact_extents_fully_certify(s in subject()) {
        let s = Subject { shortfall: 0, ..s };
        let (_, _, _, (certified, total)) = certified_program(&s, CertMode::Elide);
        prop_assert!(total > 0);
        prop_assert_eq!(certified, total, "uncertified access at exact extent on {:?}", s);
    }

    /// Side 2 — transparency: the certified unchecked path is bit-identical
    /// to the checked path (memory and BlockStats), with lanes and
    /// thread-major, and both equal the oracle.
    #[test]
    fn elision_is_bit_identical(s in subject()) {
        let s = Subject { shortfall: 0, ..s };
        let kernel = parse_kernel(&s.source()).unwrap();
        validate(&kernel).unwrap();
        let launch = LaunchConfig::new(s.blocks, s.threads);
        let blocks = launch.num_blocks();

        // Tree-walk oracle (no cert machinery at all).
        let (mut pool_tree, args, _) = s.build();
        let st_tree = execute_launch(&kernel, launch, &args, &mut pool_tree).unwrap();

        // Checked: plain program, no certs attached. Unchecked:
        // certificates attached in Elide mode. Each with its lane plans and
        // with them detached (every segment thread-major).
        let plain = Program::compile(&kernel, launch, &args).unwrap();
        let (elide, _, _, _) = certified_program(&s, CertMode::Elide);
        for (what, mut prog) in [("checked", plain), ("unchecked", elide)] {
            for lanes in ["lane", "detached"] {
                if lanes == "detached" {
                    prog.detach_lane_plans();
                }
                let (mut pool, _, _) = s.build();
                let st = run_range(&prog, &mut pool, 0..blocks).unwrap();
                prop_assert_eq!(&st_tree, &st, "{} {} stats diverged from oracle", what, lanes);
                for i in 0..pool_tree.len() {
                    let id = BufferId(i as u32);
                    prop_assert_eq!(pool_tree.bytes(id), pool.bytes(id), "{} {} memory", what, lanes);
                }
            }
        }
    }

    /// The cert table itself is honest: `stats()` counts match the
    /// per-access table.
    #[test]
    fn cert_table_is_consistent(s in subject()) {
        let kernel = parse_kernel(&s.source()).unwrap();
        let launch = LaunchConfig::new(s.blocks, s.threads);
        let (pool, args, _) = s.build();
        let prog = Program::compile(&kernel, launch, &args).unwrap();
        let exts = global_extents(&prog, |b| {
            (b.index() < pool.len()).then(|| pool.size_of(b))
        });
        let ra = analyze_ranges(&prog, &exts);
        let (certified, total) = ra.stats();
        prop_assert!(certified <= total);
        let from_table = ra.certs.iter().filter(|c| c.certified).count();
        prop_assert_eq!(certified, from_table);
    }
}
