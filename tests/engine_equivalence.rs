//! Differential property tests: the compiled engine (`cucc::exec::bytecode`
//! run by `cucc::exec::lane`) must match the tree-walk oracle **bit-for-bit**
//! — identical `BlockStats` counters, identical final memory, identical
//! runtime errors — on randomly generated kernels and launch shapes. Every
//! kernel runs three ways: oracle, engine, and engine with its lane plans
//! detached (`Program::detach_lane_plans`), so the thread-major `run_seg`
//! fallback sees every whole kernel the lane loops see.
//!
//! Five kernel families target the engine's distinct code paths:
//!
//! 1. **General serial kernels** — nested `if`/`for`, assignments, global +
//!    local-array traffic, unmasked `/`/`%` (so `DivByZero` errors must
//!    agree too), global atomics, early `return`, odd launch shapes (tail
//!    blocks), and partial block ranges (the cluster's per-node slices).
//! 2. **Barrier kernels** — shared-memory staging with `__syncthreads()` in
//!    uniform control flow, exercising the precomputed phase tree
//!    (`Seg`/`Barrier`/`UniformFor`/`UniformIf`).
//! 3. **Elementwise kernels** — each block writes a disjoint slice, so the
//!    intra-node parallel path (`run_range_parallel`) must also reproduce
//!    oracle memory and stats exactly, for any worker count.
//! 4. **In-place kernels** — family 3 with `out` read back at the store's
//!    own index, so every segment loads and stores `out` and must still run
//!    on lanes (`seg_batchable`'s in-place rule); near-misses of that rule
//!    must stay thread-major.
//! 5. **Loop kernels** — barrier-free `for`s with load-only bodies, register
//!    accumulation, `if`s and `return`s inside, per-thread trip counts and
//!    nesting, which run on lanes iteration-major; a store in a loop body
//!    must keep the segment thread-major.

use cucc::analysis::{certify_program, global_extents};
use cucc::exec::lane::LANES;
use cucc::exec::{
    execute_block_range, execute_launch, execute_launch_bytecode, run_range, run_range_parallel,
    Arg, BlockStats, BufferId, CertMode, ExecError, MemPool, Program,
};
use cucc::ir::{
    validate, AtomicOp, Axis, Expr, Intrinsic, Kernel, KernelBuilder, LaunchConfig, MemRef, Scalar,
    VarId,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const OUT_LEN: i64 = 128;
const F_LEN: i64 = 32;
const SH_LEN: i64 = 16;

/// Deterministically seeded argument pool: one i64 output buffer and one
/// f32 buffer, plus the scalar params every generated kernel declares.
fn seed_pool() -> (MemPool, Vec<Arg>) {
    let mut pool = MemPool::new();
    let out = pool.alloc_elems(Scalar::I64, OUT_LEN as usize);
    let fbuf = pool.alloc_elems(Scalar::F32, F_LEN as usize);
    let out_bytes: Vec<u8> = (0..OUT_LEN)
        .flat_map(|i| (i * 7 - 40).to_le_bytes())
        .collect();
    let f_bytes: Vec<u8> = (0..F_LEN)
        .flat_map(|i| (i as f32 * 0.5 - 3.0).to_le_bytes())
        .collect();
    pool.write_all(out, &out_bytes);
    pool.write_all(fbuf, &f_bytes);
    let args = vec![
        Arg::Buffer(out),
        Arg::Buffer(fbuf),
        Arg::int(5),
        Arg::float(1.5),
    ];
    (pool, args)
}

type Outcome = Result<BlockStats, ExecError>;

/// The program as the engine runs it, and with its lane plans detached
/// (every segment thread-major).
fn variants(prog: &Program) -> [(&'static str, Program); 2] {
    let mut detached = prog.clone();
    detached.detach_lane_plans();
    [("lane", prog.clone()), ("detached", detached)]
}

/// Stats and memory agree on success; errors agree on failure.
fn assert_same(what: &str, ra: &Outcome, pool_a: &MemPool, rb: &Outcome, pool_b: &MemPool) {
    match (ra, rb) {
        (Ok(sa), Ok(sb)) => {
            assert_eq!(sa, sb, "{what}: BlockStats diverged");
            for id in 0..pool_a.len() {
                let id = BufferId(id as u32);
                assert_eq!(
                    pool_a.bytes(id),
                    pool_b.bytes(id),
                    "{what}: memory diverged"
                );
            }
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{what}: errors diverged"),
        _ => panic!("{what}: result kind diverged: oracle={ra:?} engine={rb:?}"),
    }
}

/// Run the oracle and both engine variants from identical pools and assert
/// stats, memory and errors all agree.
fn assert_equiv(k: &Kernel, launch: LaunchConfig) {
    validate(k).expect("generated kernels are valid");
    let (pool, args) = seed_pool();
    let mut pool_a = pool.clone();
    let ra = execute_launch(k, launch, &args, &mut pool_a);
    // The compile-and-run helper is the engine's `execute_launch`.
    let mut pool_b = pool.clone();
    let rb = execute_launch_bytecode(k, launch, &args, &mut pool_b);
    assert_same("helper", &ra, &pool_a, &rb, &pool_b);
    let Ok(prog) = Program::compile(k, launch, &args) else {
        return;
    };
    let n = launch.num_blocks();
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range(&prog, &mut pool_b, 0..n);
        assert_same(what, &ra, &pool_a, &rb, &pool_b);
    }
    // Partial block ranges (how cluster nodes drive the engine): the serial
    // engine over a sub-range must match the oracle over the same sub-range.
    if ra.is_ok() && n >= 4 {
        let range = (n / 4)..(n - n / 4);
        let mut pa = pool.clone();
        let sa = execute_block_range(k, launch, range.clone(), &args, &mut pa);
        for (what, prog) in variants(&prog) {
            let mut pb = pool.clone();
            let sb = run_range(&prog, &mut pb, range.clone());
            assert_same(&format!("sub-range {what}"), &sa, &pa, &sb, &pb);
        }
    }
}

// ---------------------------------------------------------------------------
// Family 1: general serial kernels (errors, atomics, early return, tails).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ER {
    Const(i64),
    FConst(i32),
    Tid,
    Bid,
    P,
    Q,
    Var(u8),
    LoadOut(Box<ER>),
    LoadF(Box<ER>),
    Add(Box<ER>, Box<ER>),
    Sub(Box<ER>, Box<ER>),
    Mul(Box<ER>, Box<ER>),
    Div(Box<ER>, Box<ER>),
    Rem(Box<ER>, Box<ER>),
    Lt(Box<ER>, Box<ER>),
    And(Box<ER>, Box<ER>),
    Select(Box<ER>, Box<ER>, Box<ER>),
    CastI32(Box<ER>),
    Min(Box<ER>, Box<ER>),
    /// `out[g]`, the element the family 4 store writes (built only by
    /// [`redirect_out_reads`]).
    OwnOut,
}

fn er() -> impl Strategy<Value = ER> {
    let leaf = prop_oneof![
        (-9i64..10).prop_map(ER::Const),
        (-4i32..5).prop_map(ER::FConst),
        Just(ER::Tid),
        Just(ER::Bid),
        Just(ER::P),
        Just(ER::Q),
        (0u8..4).prop_map(ER::Var),
    ];
    leaf.prop_recursive(3, 20, 2, |i| {
        prop_oneof![
            i.clone().prop_map(|a| ER::LoadOut(Box::new(a))),
            i.clone().prop_map(|a| ER::LoadF(Box::new(a))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Add(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Sub(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Mul(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Div(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Rem(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::Lt(Box::new(a), Box::new(b))),
            (i.clone(), i.clone()).prop_map(|(a, b)| ER::And(Box::new(a), Box::new(b))),
            (i.clone(), i.clone(), i.clone()).prop_map(|(c, a, b)| ER::Select(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
            i.clone().prop_map(|a| ER::CastI32(Box::new(a))),
            (i.clone(), i).prop_map(|(a, b)| ER::Min(Box::new(a), Box::new(b))),
        ]
    })
}

#[derive(Debug, Clone)]
enum SR {
    Let(ER),
    Assign(u8, ER),
    StoreOut(ER, ER),
    StoreF(ER, ER),
    StoreLocal(ER, ER),
    LetLocal(ER),
    Atomic(u8, ER, ER),
    If(ER, Vec<SR>),
    IfElse(ER, Vec<SR>, Vec<SR>),
    For(u8, Vec<SR>),
    ForStep(i8, u8, u8, Vec<SR>),
    RetIf(ER),
}

fn sr() -> impl Strategy<Value = SR> {
    let leaf = prop_oneof![
        er().prop_map(SR::Let),
        (0u8..4, er()).prop_map(|(v, e)| SR::Assign(v, e)),
        (er(), er()).prop_map(|(i, v)| SR::StoreOut(i, v)),
        (er(), er()).prop_map(|(i, v)| SR::StoreF(i, v)),
        (er(), er()).prop_map(|(i, v)| SR::StoreLocal(i, v)),
        er().prop_map(SR::LetLocal),
        (0u8..3, er(), er()).prop_map(|(op, i, v)| SR::Atomic(op, i, v)),
        er().prop_map(SR::RetIf),
    ];
    leaf.prop_recursive(2, 14, 3, |i| {
        prop_oneof![
            (er(), prop::collection::vec(i.clone(), 1..3)).prop_map(|(c, b)| SR::If(c, b)),
            (
                er(),
                prop::collection::vec(i.clone(), 1..3),
                prop::collection::vec(i.clone(), 1..3)
            )
                .prop_map(|(c, t, e)| SR::IfElse(c, t, e)),
            (1u8..4, prop::collection::vec(i.clone(), 1..3)).prop_map(|(n, b)| SR::For(n, b)),
            (
                (-2i8..3),
                (1u8..7),
                (1u8..3),
                prop::collection::vec(i, 1..3)
            )
                .prop_map(|(s, e, st, b)| SR::ForStep(s, e, st, b)),
        ]
    })
}

/// Mask an arbitrary expression into `[0, len)`. `%` is int-only in the
/// front-end, so possibly-float inputs are squashed through a cast first.
fn mask(raw: Expr, len: i64) -> Expr {
    Expr::cast(Scalar::I64, raw)
        .rem(Expr::int(len))
        .add(Expr::int(len))
        .rem(Expr::int(len))
}

struct Ctx {
    out: MemRef,
    fbuf: MemRef,
    lcl: MemRef,
    p: Expr,
    q: Expr,
    vars: Vec<VarId>,
}

fn build_expr(r: &ER, c: &Ctx) -> Expr {
    match r {
        ER::Const(v) => Expr::int(*v),
        ER::FConst(v) => Expr::float(*v as f64 * 0.25),
        ER::Tid => Expr::ThreadIdx(Axis::X),
        ER::Bid => Expr::BlockIdx(Axis::X),
        ER::P => c.p.clone(),
        ER::Q => c.q.clone(),
        ER::Var(i) => Expr::Var(c.vars[*i as usize % c.vars.len()]),
        ER::LoadOut(i) => Expr::load(c.out, mask(build_expr(i, c), OUT_LEN)),
        ER::LoadF(i) => Expr::load(c.fbuf, mask(build_expr(i, c), F_LEN)),
        ER::OwnOut => Expr::load(c.out, Expr::Var(c.vars[0])),
        ER::Add(a, b) => build_expr(a, c).add(build_expr(b, c)),
        ER::Sub(a, b) => build_expr(a, c).sub(build_expr(b, c)),
        ER::Mul(a, b) => build_expr(a, c).mul(build_expr(b, c)),
        ER::Div(a, b) => build_expr(a, c).div(build_expr(b, c)),
        ER::Rem(a, b) => {
            Expr::cast(Scalar::I64, build_expr(a, c)).rem(Expr::cast(Scalar::I64, build_expr(b, c)))
        }
        ER::Lt(a, b) => build_expr(a, c).lt(build_expr(b, c)),
        ER::And(a, b) => build_expr(a, c).land(build_expr(b, c)),
        ER::Select(cd, a, b) => Expr::Select {
            cond: Box::new(build_expr(cd, c)),
            then_value: Box::new(build_expr(a, c)),
            else_value: Box::new(build_expr(b, c)),
        },
        ER::CastI32(a) => Expr::cast(Scalar::I32, build_expr(a, c)),
        ER::Min(a, b) => Expr::Call {
            f: Intrinsic::Min,
            args: vec![
                // min/max are int-only; squash possibly-float operands.
                Expr::cast(Scalar::I64, build_expr(a, c)),
                Expr::cast(Scalar::I64, build_expr(b, c)),
            ],
        },
    }
}

fn emit(b: &mut KernelBuilder, stmts: &[SR], c: &Ctx, fresh: &mut u32) {
    for s in stmts {
        match s {
            SR::Let(e) => {
                let name = format!("t{}", *fresh);
                *fresh += 1;
                b.let_(name, build_expr(e, c));
            }
            SR::Assign(v, e) => {
                let var = c.vars[*v as usize % c.vars.len()];
                b.assign(var, Expr::cast(Scalar::I64, build_expr(e, c)));
            }
            SR::StoreOut(i, v) => b.store(
                c.out,
                mask(build_expr(i, c), OUT_LEN),
                Expr::cast(Scalar::I64, build_expr(v, c)),
            ),
            SR::StoreF(i, v) => b.store(
                c.fbuf,
                mask(build_expr(i, c), F_LEN),
                Expr::cast(Scalar::F32, build_expr(v, c)),
            ),
            SR::StoreLocal(i, v) => b.store(
                c.lcl,
                mask(build_expr(i, c), 8),
                Expr::cast(Scalar::I64, build_expr(v, c)),
            ),
            SR::LetLocal(i) => {
                let name = format!("t{}", *fresh);
                *fresh += 1;
                b.let_(name, Expr::load(c.lcl, mask(build_expr(i, c), 8)));
            }
            SR::Atomic(op, i, v) => {
                let op = [AtomicOp::Add, AtomicOp::Min, AtomicOp::Max][*op as usize % 3];
                b.atomic(
                    op,
                    c.out,
                    mask(build_expr(i, c), OUT_LEN),
                    Expr::cast(Scalar::I64, build_expr(v, c)),
                );
            }
            SR::If(cond, body) => {
                let cond = build_expr(cond, c);
                b.if_then(cond, |b| emit(b, body, c, fresh));
            }
            SR::IfElse(cond, t, e) => {
                let cond = build_expr(cond, c);
                let fresh_cell = std::cell::Cell::new(*fresh);
                b.if_else(
                    cond,
                    |b| {
                        let mut f = fresh_cell.get();
                        emit(b, t, c, &mut f);
                        fresh_cell.set(f);
                    },
                    |b| {
                        let mut f = fresh_cell.get();
                        emit(b, e, c, &mut f);
                        fresh_cell.set(f);
                    },
                );
                *fresh = fresh_cell.get();
            }
            SR::For(n, body) => {
                let name = format!("i{}", *fresh);
                *fresh += 1;
                b.for_range(name, Expr::int(*n as i64), |b, _| emit(b, body, c, fresh));
            }
            SR::ForStep(start, end, step, body) => {
                let name = format!("i{}", *fresh);
                *fresh += 1;
                b.for_(
                    name,
                    Expr::int(*start as i64),
                    Expr::int(*end as i64),
                    Expr::int(*step as i64),
                    |b, _| emit(b, body, c, fresh),
                );
            }
            SR::RetIf(cond) => {
                let cond = build_expr(cond, c);
                b.if_then(cond, |b| b.ret());
            }
        }
    }
}

fn build_general(stmts: &[SR], with_return: bool) -> Kernel {
    let mut b = KernelBuilder::new("rnd_general");
    let out = b.buffer("out", Scalar::I64);
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let p = b.scalar("p", Scalar::I32);
    let q = b.scalar("q", Scalar::F32);
    let lcl = b.local_array("scratch", Scalar::I64, 8);
    let vars: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("v{i}"), Expr::int(i as i64 - 1)))
        .collect();
    let c = Ctx {
        out,
        fbuf,
        lcl,
        p,
        q,
        vars,
    };
    let mut fresh = 0;
    if with_return {
        // Odd threads of odd blocks bail out early.
        let cond = Expr::ThreadIdx(Axis::X)
            .add(Expr::BlockIdx(Axis::X))
            .rem(Expr::int(2))
            .eq_(Expr::int(1));
        b.if_then(cond, |b| b.ret());
    }
    emit(&mut b, stmts, &c, &mut fresh);
    b.finish()
}

// ---------------------------------------------------------------------------
// Family 2: barrier kernels (phase tree: Seg / Barrier / UniformFor / If).
// ---------------------------------------------------------------------------

/// Statement inside a barrier-free segment; indices masked to shared len.
#[derive(Debug, Clone)]
enum SegR {
    StoreShared(ER, ER),
    LetShared(ER),
    StoreOut(ER, ER),
}

/// Uniform-control-flow phase structure around the segments.
#[derive(Debug, Clone)]
enum PhR {
    Seg(Vec<SegR>),
    Barrier,
    UniformFor(u8, Vec<PhR>),
    UniformIf(bool, Vec<PhR>),
}

fn seg_r() -> impl Strategy<Value = SegR> {
    prop_oneof![
        (er(), er()).prop_map(|(i, v)| SegR::StoreShared(i, v)),
        er().prop_map(SegR::LetShared),
        (er(), er()).prop_map(|(i, v)| SegR::StoreOut(i, v)),
    ]
}

fn ph_r() -> impl Strategy<Value = PhR> {
    let leaf = prop_oneof![
        prop::collection::vec(seg_r(), 1..3).prop_map(PhR::Seg),
        Just(PhR::Barrier),
    ];
    leaf.prop_recursive(2, 10, 3, |i| {
        prop_oneof![
            (1u8..3, prop::collection::vec(i.clone(), 1..3))
                .prop_map(|(n, b)| PhR::UniformFor(n, b)),
            (any::<bool>(), prop::collection::vec(i, 1..3))
                .prop_map(|(on_p, b)| PhR::UniformIf(on_p, b)),
        ]
    })
}

fn emit_seg(b: &mut KernelBuilder, stmts: &[SegR], sh: MemRef, c: &Ctx, fresh: &mut u32) {
    for s in stmts {
        match s {
            SegR::StoreShared(i, v) => b.store(
                sh,
                mask(build_expr(i, c), SH_LEN),
                Expr::cast(Scalar::I64, build_expr(v, c)),
            ),
            SegR::LetShared(i) => {
                let name = format!("s{}", *fresh);
                *fresh += 1;
                b.let_(name, Expr::load(sh, mask(build_expr(i, c), SH_LEN)));
            }
            SegR::StoreOut(i, v) => b.store(
                c.out,
                mask(build_expr(i, c), OUT_LEN),
                Expr::cast(Scalar::I64, build_expr(v, c)),
            ),
        }
    }
}

fn emit_phases(b: &mut KernelBuilder, phs: &[PhR], sh: MemRef, c: &Ctx, fresh: &mut u32) {
    for ph in phs {
        match ph {
            PhR::Seg(stmts) => emit_seg(b, stmts, sh, c, fresh),
            PhR::Barrier => b.sync_threads(),
            PhR::UniformFor(n, body) => {
                let name = format!("u{}", *fresh);
                *fresh += 1;
                // Thread-invariant bounds (consts + param) keep the loop
                // uniform, so a barrier inside it passes validation.
                b.for_(
                    name,
                    Expr::int(0),
                    Expr::int(*n as i64).add(c.p.clone().rem(Expr::int(2))),
                    Expr::int(1),
                    |b, _| emit_phases(b, body, sh, c, fresh),
                );
            }
            PhR::UniformIf(on_p, body) => {
                let cond = if *on_p {
                    c.p.clone().gt(Expr::int(0))
                } else {
                    Expr::BlockIdx(Axis::X).rem(Expr::int(2)).eq_(Expr::int(0))
                };
                b.if_then(cond, |b| emit_phases(b, body, sh, c, fresh));
            }
        }
    }
}

fn build_barrier(phs: &[PhR]) -> Kernel {
    let mut b = KernelBuilder::new("rnd_barrier");
    let out = b.buffer("out", Scalar::I64);
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let p = b.scalar("p", Scalar::I32);
    let q = b.scalar("q", Scalar::F32);
    let lcl = b.local_array("scratch", Scalar::I64, 8);
    let sh = b.shared("tile", Scalar::I64, SH_LEN as usize);
    let vars: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("v{i}"), Expr::int(i as i64 + 1)))
        .collect();
    let c = Ctx {
        out,
        fbuf,
        lcl,
        p,
        q,
        vars,
    };
    let mut fresh = 0;
    // Stage: every thread seeds the tile, then a guaranteed barrier, then
    // the random phase structure, then a final barrier + drain to out.
    b.store(
        sh,
        Expr::ThreadIdx(Axis::X).rem(Expr::int(SH_LEN)),
        Expr::ThreadIdx(Axis::X)
            .mul(Expr::int(3))
            .add(Expr::BlockIdx(Axis::X)),
    );
    b.sync_threads();
    emit_phases(&mut b, phs, sh, &c, &mut fresh);
    b.sync_threads();
    b.store(
        c.out,
        mask(
            Expr::ThreadIdx(Axis::X).add(Expr::BlockIdx(Axis::X).mul(Expr::int(7))),
            OUT_LEN,
        ),
        Expr::load(sh, Expr::ThreadIdx(Axis::X).rem(Expr::int(SH_LEN))),
    );
    b.finish()
}

// ---------------------------------------------------------------------------
// Family 3: elementwise kernels (disjoint writes → parallel workers legal).
// ---------------------------------------------------------------------------

/// Rewrite every `out` read: into an `fbuf` read, or with `own` into a read
/// of `out[g]`, the element the store writes. Family 3 writes `out` from
/// concurrent workers: a load of `out` at an arbitrary masked index could
/// observe another block's write (or not) depending on scheduling, so the
/// oracle and the parallel path would legitimately diverge. `fbuf` is never
/// written by these families, and `out[g]` only by thread `g`, so both
/// reads are race-free.
fn redirect_out_reads(r: &ER, own: bool) -> ER {
    let re = |e: &ER| Box::new(redirect_out_reads(e, own));
    match r {
        ER::LoadOut(_) if own => ER::OwnOut,
        ER::LoadOut(i) | ER::LoadF(i) => ER::LoadF(re(i)),
        ER::Add(a, b) => ER::Add(re(a), re(b)),
        ER::Sub(a, b) => ER::Sub(re(a), re(b)),
        ER::Mul(a, b) => ER::Mul(re(a), re(b)),
        ER::Div(a, b) => ER::Div(re(a), re(b)),
        ER::Rem(a, b) => ER::Rem(re(a), re(b)),
        ER::Lt(a, b) => ER::Lt(re(a), re(b)),
        ER::And(a, b) => ER::And(re(a), re(b)),
        ER::Select(c, a, b) => ER::Select(re(c), re(a), re(b)),
        ER::CastI32(a) => ER::CastI32(re(a)),
        ER::Min(a, b) => ER::Min(re(a), re(b)),
        other => other.clone(),
    }
}

/// `out[g] = val` (family 3), or with `in_place` `out[g] = out[g] + val`
/// with every `out` read in `val` at `g` too (family 4).
fn build_elementwise(val: &ER, guard: bool, in_place: bool) -> Kernel {
    let val = redirect_out_reads(val, in_place);
    let val = &val;
    let mut b = KernelBuilder::new(if in_place {
        "rnd_in_place"
    } else {
        "rnd_elementwise"
    });
    let out = b.buffer("out", Scalar::I64);
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let p = b.scalar("p", Scalar::I32);
    let q = b.scalar("q", Scalar::F32);
    let lcl = b.local_array("scratch", Scalar::I64, 8);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    let vars = vec![g, g, g, g];
    let c = Ctx {
        out,
        fbuf,
        lcl,
        p,
        q,
        vars,
    };
    let store = |b: &mut KernelBuilder, c: &Ctx| {
        let mut v = Expr::cast(Scalar::I64, build_expr(val, c));
        if in_place {
            v = Expr::load(c.out, Expr::Var(g)).add(v);
        }
        b.store(c.out, Expr::Var(g), v);
    };
    if guard {
        b.if_then(Expr::Var(g).lt(Expr::int(OUT_LEN)), |b| store(b, &c));
    } else {
        store(&mut b, &c);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Family 1: serial engine ≡ oracle on arbitrary control flow,
    /// atomics, unmasked division, early return, odd launch shapes.
    #[test]
    fn general_kernels_match_oracle(
        recipes in prop::collection::vec(sr(), 1..6),
        with_return in any::<bool>(),
        grid in 1u32..6,
        block in 1u32..10,
    ) {
        let k = build_general(&recipes, with_return);
        assert_equiv(&k, LaunchConfig::new(grid, block));
    }

    /// Family 2: barrier kernels exercise the compiled phase tree.
    #[test]
    fn barrier_kernels_match_oracle(
        phases in prop::collection::vec(ph_r(), 1..4),
        grid in 1u32..5,
        block in 1u32..17,
    ) {
        let k = build_barrier(&phases);
        assert_equiv(&k, LaunchConfig::new(grid, block));
    }

    /// Family 3: disjoint-write kernels match the oracle under the
    /// intra-node parallel path for any worker count (memory AND stats).
    #[test]
    fn elementwise_kernels_match_oracle_in_parallel(
        val in er(),
        workers in 2usize..6,
        grid in 2u32..9,
    ) {
        let k = build_elementwise(&val, true, false);
        validate(&k).expect("generated kernels are valid");
        let launch = LaunchConfig::new(grid, 16u32);
        let (pool, args) = seed_pool();
        let mut pool_a = pool.clone();
        let ra = execute_launch(&k, launch, &args, &mut pool_a);
        let prog = Program::compile(&k, launch, &args).unwrap();
        for (what, prog) in variants(&prog) {
            let mut pool_b = pool.clone();
            let rb = run_range_parallel(&prog, &mut pool_b, 0..launch.num_blocks(), workers);
            assert_same(&format!("{what} × {workers} workers"), &ra, &pool_a, &rb, &pool_b);
        }
    }
}

/// Family 4: in-place kernels — `out[g]` loaded and stored in one segment
/// at the thread-injective `g` — run on lanes, never `scalar[`, and match
/// the oracle three ways, serially and under parallel workers. Unguarded
/// launches past `OUT_LEN` fault at the in-place load, so the lowest-thread
/// rule is exercised too. Prints its case counts (`--nocapture`).
#[test]
fn in_place_kernels_batch_and_match_oracle() {
    const CASES: u32 = 160;
    let cases = (
        er(),
        any::<bool>(),
        prop::sample::select(vec![16u32, 40]),
        2u32..9,
        2usize..6,
    );
    let (mut dense, mut pred, mut faulting) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::for_case("in_place_kernels_batch_and_match_oracle", case);
        let (val, guard, block, grid, workers) = cases.generate(&mut rng);
        let k = build_elementwise(&val, guard, true);
        validate(&k).expect("generated kernels are valid");
        let launch = LaunchConfig::new(grid, block);
        let (pool, args) = seed_pool();
        let mut pool_a = pool.clone();
        let ra = execute_launch(&k, launch, &args, &mut pool_a);
        let prog = Program::compile(&k, launch, &args).unwrap();
        let summary = prog.phase_summary();
        assert!(!summary.contains("scalar["), "case {case}: {summary}");
        if summary.contains("dense[") {
            dense += 1;
        } else {
            pred += 1;
        }
        faulting += usize::from(ra.is_err());
        let n = launch.num_blocks();
        for (what, prog) in variants(&prog) {
            let mut pool_b = pool.clone();
            let rb = run_range(&prog, &mut pool_b, 0..n);
            assert_same(&format!("case {case} {what}"), &ra, &pool_a, &rb, &pool_b);
            let mut pool_c = pool.clone();
            let rc = run_range_parallel(&prog, &mut pool_c, 0..n, workers);
            let what = format!("case {case} {what} × {workers} workers");
            assert_same(&what, &ra, &pool_a, &rc, &pool_c);
        }
    }
    println!(
        "in-place family: {CASES} cases, {dense} dense + {pred} pred + 0 scalar, \
         {faulting} faulting (same error in every mode)"
    );
}

/// Near-misses of the in-place rule: each loads and stores `out` in one
/// segment, but not at one thread-injective index held in one register, so
/// the segment stays thread-major — and every mode still matches the
/// oracle, memory included. Most are real hazards: lanes would diverge.
#[test]
fn in_place_near_misses_stay_thread_major() {
    let x = LaunchConfig::new(1u32, 64u32);
    let cases: [(&str, &str, LaunchConfig, usize); 6] = [
        (
            "the store's index is the load's plus one",
            "out[t + 1] = out[t] + 1;",
            x,
            65,
        ),
        (
            "the index is redefined between the load and the store",
            "int i = t; long v = out[i]; i = (i * 5) % 64; out[i] = v + i;",
            x,
            64,
        ),
        (
            "the index is written under a branch",
            "int i = t; if (i % 2 == 0) i = i + 1; out[i] = out[i] + 1;",
            x,
            65,
        ),
        (
            "a narrowing cast on the index",
            "int i = (uchar)t; out[i] = out[i] + 1;",
            LaunchConfig::new(1u32, 300u32),
            256,
        ),
        (
            "a 2-D block indexed by tid.x + tid.y",
            "int i = threadIdx.x + threadIdx.y; out[i] = out[i] + 1;",
            LaunchConfig::new(1u32, (8u32, 8u32)),
            15,
        ),
        (
            "two stores to the object",
            "out[t] = out[t] + 1; out[t] = out[t] * 3;",
            x,
            64,
        ),
    ];
    for (what, body, launch, len) in cases {
        let k = cucc::ir::parse_kernel(&format!(
            "__global__ void k(long* out) {{
                int t = threadIdx.x;
                {body}
            }}"
        ))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I64, len);
        let init: Vec<u8> = (0..len as i64)
            .flat_map(|i| (i * 3 - 7).to_le_bytes())
            .collect();
        pool.write_all(out, &init);
        let args = vec![Arg::Buffer(out)];
        let summary = Program::compile(&k, launch, &args).unwrap().phase_summary();
        assert!(summary.starts_with("scalar["), "{what}: {summary}");
        let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        assert!(ra.is_ok(), "{what}: {ra:?}");
    }
}

/// One buffer bound to both `in` and `out` of `out[i + 1] = in[i] + 1`: the
/// hazard is on the buffer, not on either parameter, so the segment stays
/// thread-major and every thread reads its predecessor's write.
#[test]
fn aliased_buffer_arguments_match_oracle() {
    let k = cucc::ir::parse_kernel(
        "__global__ void shift(float* in, float* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i + 1 < n) out[i + 1] = in[i] + 1.0f;
        }",
    )
    .unwrap();
    let launch = LaunchConfig::cover1(64, 32);
    let mut pool = MemPool::new();
    let buf = pool.alloc_elems(Scalar::F32, 64);
    let args = vec![Arg::Buffer(buf), Arg::Buffer(buf), Arg::int(64)];
    let mut pool_a = pool.clone();
    let ra = execute_launch(&k, launch, &args, &mut pool_a);
    let ramp: Vec<f32> = (0..64).map(|i| i as f32).collect();
    assert_eq!(pool_a.read_f32(buf), ramp);
    let prog = Program::compile(&k, launch, &args).unwrap();
    let summary = prog.phase_summary();
    assert!(summary.starts_with("scalar["), "{summary}");
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range(&prog, &mut pool_b, 0..launch.num_blocks());
        assert_same(what, &ra, &pool_a, &rb, &pool_b);
    }
}

/// The two kernels `JobServer` serves update `y` in place; at the launch
/// shapes it serves (128-thread blocks, exact and tail grids) no segment
/// runs thread-major, and all three ways agree, serially and chunked.
#[test]
fn serve_kernels_run_on_lanes() {
    for src in cucc::core::JobServer::KERNELS {
        let k = cucc::ir::parse_kernel(src).unwrap();
        for elems in [512u32, 1000, 2048] {
            let launch = LaunchConfig::cover1(u64::from(elems), 128);
            let mut pool = MemPool::new();
            let (x, y) = (
                pool.alloc_elems(Scalar::F32, elems as usize),
                pool.alloc_elems(Scalar::F32, elems as usize),
            );
            let ramp = |a: f32| (0..elems).map(|i| i as f32 * a - 3.0).collect::<Vec<_>>();
            pool.write_f32(x, &ramp(0.25));
            pool.write_f32(y, &ramp(-0.5));
            let args = vec![
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(1.5),
                Arg::int(i64::from(elems)),
            ];
            let mut pool_a = pool.clone();
            let ra = execute_launch(&k, launch, &args, &mut pool_a);
            assert!(ra.is_ok(), "{ra:?}");
            let prog = Program::compile(&k, launch, &args).unwrap();
            let summary = prog.phase_summary();
            assert!(!summary.contains("scalar["), "{}: {summary}", k.name);
            for (what, prog) in variants(&prog) {
                let mut pool_b = pool.clone();
                let rb = run_range(&prog, &mut pool_b, 0..launch.num_blocks());
                assert_same(what, &ra, &pool_a, &rb, &pool_b);
                let mut pool_c = pool.clone();
                let rc = run_range_parallel(&prog, &mut pool_c, 0..launch.num_blocks(), 3);
                assert_same(&format!("{what} chunked"), &ra, &pool_a, &rc, &pool_c);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Family 5: loop kernels (a barrier-free `for` runs inside the lane chunk).
// ---------------------------------------------------------------------------

/// The trip shape of one generated loop.
#[derive(Debug, Clone)]
enum Trip {
    /// `for (i = 0; i < n; i++)`: one trip count on every lane.
    Const(u8),
    /// `for (i = 0; i < t % k; i++)`: per-thread trip counts, zero on some
    /// lanes.
    PerThread(u8),
    /// `for (i = n; i > t % 3; i -= 2)`: descending to a per-thread end.
    Down(u8),
    /// `for (i = 0; i < 4; i += (g == 20 * k + 3 ? 0 : 1))`: a zero step,
    /// hence `DivByZero`, on one thread of the launch (if it has that many).
    ZeroStepOn(u8),
}

fn trip() -> impl Strategy<Value = Trip> {
    prop_oneof![
        (0u8..5).prop_map(Trip::Const),
        (1u8..6).prop_map(Trip::PerThread),
        (0u8..7).prop_map(Trip::Down),
        (1u8..5).prop_map(Trip::ZeroStepOn),
    ]
}

/// One statement of a loop kernel. Loop bodies hold only what lanes may run
/// iteration-major: loads, register and local-array traffic, integer
/// `atomicAdd`s, `if`s, nested loops and `return`.
#[derive(Debug, Clone)]
enum LR {
    /// `v = v + e` — register accumulation.
    Acc(u8, ER),
    Set(u8, ER),
    StoreLocal(ER, ER),
    LoadLocal(u8, ER),
    AtomicAdd(ER, ER),
    If(ER, Vec<LR>),
    IfElse(ER, Vec<LR>, Vec<LR>),
    Loop(Trip, Vec<LR>),
    RetIf(ER),
}

fn lr() -> impl Strategy<Value = LR> {
    let leaf = prop_oneof![
        (0u8..6, er()).prop_map(|(v, e)| LR::Acc(v, e)),
        (0u8..6, er()).prop_map(|(v, e)| LR::Set(v, e)),
        (er(), er()).prop_map(|(i, v)| LR::StoreLocal(i, v)),
        (0u8..6, er()).prop_map(|(v, i)| LR::LoadLocal(v, i)),
        (er(), er()).prop_map(|(i, v)| LR::AtomicAdd(i, v)),
        er().prop_map(LR::RetIf),
    ];
    leaf.prop_recursive(2, 12, 3, |i| {
        prop_oneof![
            (er(), prop::collection::vec(i.clone(), 1..3)).prop_map(|(c, b)| LR::If(c, b)),
            (
                er(),
                prop::collection::vec(i.clone(), 1..3),
                prop::collection::vec(i.clone(), 1..3)
            )
                .prop_map(|(c, t, e)| LR::IfElse(c, t, e)),
            (trip(), prop::collection::vec(i, 1..4)).prop_map(|(t, b)| LR::Loop(t, b)),
        ]
    })
}

/// `c` with one more readable (and assignable) variable: a loop's own.
fn with_var(c: &Ctx, v: VarId) -> Ctx {
    let mut vars = c.vars.clone();
    vars.push(v);
    Ctx {
        out: c.out,
        fbuf: c.fbuf,
        lcl: c.lcl,
        p: c.p.clone(),
        q: c.q.clone(),
        vars,
    }
}

/// Divisors `d` become `d * d + 1`, never an integer zero (no square is
/// `-1` mod 2⁶⁴), so the faults a loop kernel takes are mostly its own: zero
/// steps, and a float divisor that casts to zero.
fn tame_division(r: &ER) -> ER {
    let re = |e: &ER| Box::new(tame_division(e));
    let nonzero = |d: &ER| {
        let d = re(d);
        Box::new(ER::Add(
            Box::new(ER::Mul(d.clone(), d)),
            Box::new(ER::Const(1)),
        ))
    };
    match r {
        ER::Div(a, b) => ER::Div(re(a), nonzero(b)),
        ER::Rem(a, b) => ER::Rem(re(a), nonzero(b)),
        ER::LoadOut(i) => ER::LoadOut(re(i)),
        ER::LoadF(i) => ER::LoadF(re(i)),
        ER::Add(a, b) => ER::Add(re(a), re(b)),
        ER::Sub(a, b) => ER::Sub(re(a), re(b)),
        ER::Mul(a, b) => ER::Mul(re(a), re(b)),
        ER::Lt(a, b) => ER::Lt(re(a), re(b)),
        ER::And(a, b) => ER::And(re(a), re(b)),
        ER::Select(c, a, b) => ER::Select(re(c), re(a), re(b)),
        ER::CastI32(a) => ER::CastI32(re(a)),
        ER::Min(a, b) => ER::Min(re(a), re(b)),
        other => other.clone(),
    }
}

/// Emit loop-kernel statements. Every `out` read becomes an `fbuf` read:
/// the kernel stores `out` once, after its loops.
fn emit_lr(b: &mut KernelBuilder, stmts: &[LR], c: &Ctx, hist: MemRef, fresh: &mut u32) {
    let ex = |e: &ER| build_expr(&redirect_out_reads(&tame_division(e), false), c);
    let var = |v: &u8| c.vars[*v as usize % c.vars.len()];
    for s in stmts {
        match s {
            LR::Acc(v, e) => {
                let v = var(v);
                b.assign(v, Expr::cast(Scalar::I64, Expr::Var(v).add(ex(e))));
            }
            LR::Set(v, e) => b.assign(var(v), Expr::cast(Scalar::I64, ex(e))),
            LR::StoreLocal(i, v) => b.store(c.lcl, mask(ex(i), 8), Expr::cast(Scalar::I64, ex(v))),
            LR::LoadLocal(v, i) => b.assign(var(v), Expr::load(c.lcl, mask(ex(i), 8))),
            LR::AtomicAdd(i, v) => b.atomic(
                AtomicOp::Add,
                hist,
                mask(ex(i), HIST_LEN),
                Expr::cast(Scalar::I64, ex(v)),
            ),
            LR::If(cond, body) => b.if_then(ex(cond), |b| emit_lr(b, body, c, hist, fresh)),
            LR::IfElse(cond, t, e) => {
                let fresh_cell = std::cell::Cell::new(*fresh);
                let arm = |b: &mut KernelBuilder, body: &[LR]| {
                    let mut f = fresh_cell.get();
                    emit_lr(b, body, c, hist, &mut f);
                    fresh_cell.set(f);
                };
                b.if_else(ex(cond), |b| arm(b, t), |b| arm(b, e));
                *fresh = fresh_cell.get();
            }
            LR::Loop(trip, body) => {
                let name = format!("i{}", *fresh);
                *fresh += 1;
                let t = || Expr::ThreadIdx(Axis::X);
                let (start, end, step) = match *trip {
                    Trip::Const(n) => (Expr::int(0), Expr::int(n.into()), Expr::int(1)),
                    Trip::PerThread(k) => {
                        (Expr::int(0), t().rem(Expr::int(k.into())), Expr::int(1))
                    }
                    Trip::Down(n) => (Expr::int(n.into()), t().rem(Expr::int(3)), Expr::int(-2)),
                    Trip::ZeroStepOn(k) => (
                        Expr::int(0),
                        Expr::int(4),
                        Expr::Select {
                            cond: Box::new(
                                Expr::BlockIdx(Axis::X)
                                    .mul(Expr::BlockDim(Axis::X))
                                    .add(t())
                                    .eq_(Expr::int(20 * i64::from(k) + 3)),
                            ),
                            then_value: Box::new(Expr::int(0)),
                            else_value: Box::new(Expr::int(1)),
                        },
                    ),
                };
                b.for_(name, start, end, step, |b, i| {
                    emit_lr(b, body, &with_var(c, i), hist, fresh)
                });
            }
            LR::RetIf(cond) => b.if_then(ex(cond), |b| b.ret()),
        }
    }
}

const HIST_LEN: i64 = 8;

/// `pre; for (trip) { body }; if (g < OUT_LEN) out[g] = v0 + v1 + v2 + v3;`
/// — one segment with at least one loop. With `store_in_loop` a second loop
/// stores `out[g]` in its body (the rule's first near-miss), and the segment
/// must run thread-major.
fn build_loop(pre: &[LR], trip: &Trip, body: &[LR], store_in_loop: bool) -> Kernel {
    let mut b = KernelBuilder::new("rnd_loop");
    let out = b.buffer("out", Scalar::I64);
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let hist = b.buffer("hist", Scalar::I64);
    let p = b.scalar("p", Scalar::I32);
    let q = b.scalar("q", Scalar::F32);
    let lcl = b.local_array("scratch", Scalar::I64, 8);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    let vars: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("v{i}"), Expr::int(i as i64 - 1)))
        .collect();
    let sum = vars[1..]
        .iter()
        .fold(Expr::Var(vars[0]), |acc, v| acc.add(Expr::Var(*v)));
    let c = Ctx {
        out,
        fbuf,
        lcl,
        p,
        q,
        vars,
    };
    let mut fresh = 0;
    emit_lr(&mut b, pre, &c, hist, &mut fresh);
    emit_lr(
        &mut b,
        &[LR::Loop(trip.clone(), body.to_vec())],
        &c,
        hist,
        &mut fresh,
    );
    if store_in_loop {
        b.for_range("s", Expr::int(2), |b, _| {
            b.if_then(Expr::Var(g).lt(Expr::int(OUT_LEN)), |b| {
                b.store(out, Expr::Var(g), Expr::Var(c.vars[0]))
            })
        });
    }
    b.if_then(Expr::Var(g).lt(Expr::int(OUT_LEN)), |b| {
        b.store(out, Expr::Var(g), Expr::cast(Scalar::I64, sum))
    });
    b.finish()
}

/// Family 5: loop kernels — load-only bodies, register accumulation, `if`s
/// inside bodies, per-thread trip counts (zero on some lanes), nested loops,
/// `return` in a body and zero steps on some lanes — run on lanes, never
/// `scalar[` unless a body stores to global memory, and match the oracle
/// three ways, serially and under parallel workers. Prints its case counts
/// (`--nocapture`).
#[test]
fn loop_kernels_run_on_lanes_and_match_oracle() {
    const CASES: u32 = 192;
    let cases = (
        prop::collection::vec(lr(), 0..2),
        trip(),
        prop::collection::vec(lr(), 1..4),
        0u8..5,
        prop::sample::select(vec![1u32, 5, 16, 17, 31, 40]),
        1u32..5,
        2usize..5,
    );
    let (mut pred, mut scalar, mut faulting) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::for_case("loop_kernels_run_on_lanes_and_match_oracle", case);
        let (pre, trip, body, near_miss, block, grid, workers) = cases.generate(&mut rng);
        let store_in_loop = near_miss == 0;
        let k = build_loop(&pre, &trip, &body, store_in_loop);
        validate(&k).expect("generated kernels are valid");
        let launch = LaunchConfig::new(grid, block);
        let mut pool = MemPool::new();
        let (out, fbuf, hist) = (
            pool.alloc_elems(Scalar::I64, OUT_LEN as usize),
            pool.alloc_elems(Scalar::F32, F_LEN as usize),
            pool.alloc_elems(Scalar::I64, HIST_LEN as usize),
        );
        pool.write_f32(
            fbuf,
            &(0..F_LEN).map(|i| i as f32 * 0.5 - 3.0).collect::<Vec<_>>(),
        );
        let args = vec![
            Arg::Buffer(out),
            Arg::Buffer(fbuf),
            Arg::Buffer(hist),
            Arg::int(5),
            Arg::float(1.5),
        ];
        let mut pool_a = pool.clone();
        let ra = execute_launch(&k, launch, &args, &mut pool_a);
        let prog = Program::compile(&k, launch, &args).unwrap();
        let summary = prog.phase_summary();
        let want = if store_in_loop { "scalar[" } else { "pred[" };
        assert!(summary.starts_with(want), "case {case}: {summary}");
        pred += usize::from(!store_in_loop);
        scalar += usize::from(store_in_loop);
        faulting += usize::from(ra.is_err());
        let n = launch.num_blocks();
        for (what, prog) in variants(&prog) {
            let mut pool_b = pool.clone();
            let rb = run_range(&prog, &mut pool_b, 0..n);
            assert_same(&format!("case {case} {what}"), &ra, &pool_a, &rb, &pool_b);
            let mut pool_c = pool.clone();
            let rc = run_range_parallel(&prog, &mut pool_c, 0..n, workers);
            let what = format!("case {case} {what} × {workers} workers");
            assert_same(&what, &ra, &pool_a, &rc, &pool_c);
        }
    }
    println!(
        "loop family: {CASES} cases, {pred} pred + {scalar} scalar (each scalar case stores \
         in a loop body), {faulting} faulting (same error in every mode)"
    );
}

/// Kmeans' shape: `if (d < best)` is taken by different lanes in different
/// iterations. A lane that skipped the `if` in one iteration and takes it in
/// a later one must run it there, so every backward jump resets the resume
/// targets of the lanes that go on — also while the chunk is converged.
#[test]
fn loop_branch_taken_in_different_iterations_matches_oracle() {
    let k = cucc::ir::parse_kernel(
        "__global__ void argmin(long* out, long* in) {
            int t = threadIdx.x;
            long best = 1000;
            int bi = -1;
            for (int j = 0; j < 8; j++) {
                long d = in[(t * 5 + j * 3) % 64];
                if (d < best) {
                    best = d;
                    bi = j;
                }
            }
            out[t] = bi * 1000 + best;
        }",
    )
    .unwrap();
    let input: Vec<i64> = (0..64).map(|i| (i * 37 + 11) % 97).collect();
    let want: Vec<i64> = (0..32)
        .map(|t| {
            let (mut best, mut bi) = (1000, -1);
            for j in 0..8 {
                let d = input[(t * 5 + j * 3) % 64];
                if d < best {
                    (best, bi) = (d, j as i64);
                }
            }
            bi * 1000 + best
        })
        .collect();
    let (pool, args) = pool_of(&[Buf::Zero(Scalar::I64, 32), Buf::I64(input)]);
    let launch = LaunchConfig::new(1u32, 32u32);
    let summary = Program::compile(&k, launch, &args).unwrap().phase_summary();
    assert!(summary.starts_with("pred["), "{summary}");
    let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
    assert!(ra.is_ok(), "{ra:?}");
    let mut after = pool.clone();
    execute_launch(&k, launch, &args, &mut after).unwrap();
    let want: Vec<u8> = want.iter().flat_map(|x| x.to_le_bytes()).collect();
    assert_eq!(after.bytes(BufferId(0)), &want[..]);
}

/// Near-misses of the loop rule: each segment loops, but lanes running it
/// iteration-major could be told apart from the oracle, so it stays
/// thread-major — and every mode still matches the oracle, memory included.
/// All but the last are real hazards.
#[test]
fn loop_near_misses_stay_thread_major() {
    let ramp = |n: i64| Buf::I64((0..n).map(|i| i * 3 - 7).collect());
    let cases: [(&str, &str, Vec<Buf>); 5] = [
        (
            "a global store in the loop body (two iterations hit one address)",
            "__global__ void k(long* out, long* in) {
                int t = threadIdx.x;
                for (int j = 0; j < 4; j++) out[(t + j) % 64] = t * 10 + j;
            }",
            vec![Buf::Zero(Scalar::I64, 64), ramp(64)],
        ),
        (
            "a shared store in the loop body",
            "__global__ void k(long* out, long* in) {
                __shared__ long sh[64];
                int t = threadIdx.x;
                for (int j = 0; j < 4; j++) sh[(t + j) % 64] = t * 10 + j;
                __syncthreads();
                out[t] = sh[t];
            }",
            vec![Buf::Zero(Scalar::I64, 64), ramp(64)],
        ),
        (
            "a float atomicAdd in the loop body (float addition does not commute bitwise)",
            "__global__ void k(double* out, double* in) {
                int t = threadIdx.x;
                for (int j = 0; j < 4; j++) atomicAdd(&out[t % 4], in[(t + j) % 64] * 0.1);
            }",
            vec![
                Buf::Zero(Scalar::F64, 4),
                Buf::F64((0..64).map(|i| 1.0 / (i as f64 + 0.3)).collect()),
            ],
        ),
        (
            // The forward scan of the in-place rule would pass it: `idx` is
            // thread-injective at the load and not written from the load to
            // the store in pc order. After the back edge it names the next
            // thread's element, which thread-major order stores before the
            // next thread's first load of it.
            "one object loaded in the loop and stored after it at one register",
            "__global__ void k(long* out, long* in) {
                int t = threadIdx.x;
                long acc = 0;
                int j = t;
                int idx = t;
                for (int i = 0; i < 4; i++) {
                    idx = j;
                    acc = acc + out[idx];
                    j = (t + 1) % 64;
                }
                out[idx] = acc;
            }",
            vec![ramp(64), ramp(64)],
        ),
        (
            "aes_round's shape: a per-thread range stored inside the loop",
            "__global__ void k(uchar* out, uchar* in, uchar* key, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    for (int b = 0; b < 16; b++) {
                        int v = in[id * 16 + b];
                        v = ((v << 1) ^ (v >> 7) ^ key[b]) & 255;
                        out[id * 16 + b] = v;
                    }
                }
            }",
            vec![
                Buf::Zero(Scalar::U8, 64 * 16),
                Buf::U8((0..64 * 16).map(|i| (i * 7 + 3) as u8).collect()),
                Buf::U8((0..16).map(|i| (i * 29 + 5) as u8).collect()),
            ],
        ),
    ];
    for (what, src, bufs) in cases {
        let k = cucc::ir::parse_kernel(src).unwrap_or_else(|e| panic!("{what}: {e}"));
        let (pool, mut args) = pool_of(&bufs);
        if k.params.len() > args.len() {
            args.push(Arg::int(60));
        }
        let launch = LaunchConfig::new(1u32, 64u32);
        let summary = Program::compile(&k, launch, &args).unwrap().phase_summary();
        assert!(summary.starts_with("scalar["), "{what}: {summary}");
        let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        assert!(ra.is_ok(), "{what}: {ra:?}");
    }
}

/// The phase schedule of every builtin kernel at its own launch, pinned.
/// Barrier-free loops run on lanes, so what is left `scalar[` is a store in
/// a loop (`hm_aes_round`), two store sites on one object (`vit_layernorm`)
/// and the load-and-store reduction steps inside uniform loops.
#[test]
fn builtin_phase_summaries_are_pinned() {
    const PINNED: [(&str, &str); 42] = [
        ("Transpose", "dense[0..5] bar dense[5..10]"),
        ("FIR", "pred[0..16]"),
        ("Kmeans", "pred[0..30]"),
        ("BinomialOption", "pred[0..36]"),
        ("EP", "pred[0..18]"),
        ("GA", "pred[0..25] bar pred[25..37]"),
        ("BlackScholes", "pred[0..60]"),
        ("Conv2D", "pred[0..25]"),
        ("bert_embed_sum", "pred[0..12]"),
        (
            "bert_layernorm",
            "dense[0..5] bar for(scalar[8..16] bar) dense[16..19] bar dense[19..25] bar \
             for(scalar[28..36] bar) dense[36..47]",
        ),
        ("bert_qkv_bias", "pred[0..8]"),
        ("bert_attn_scores", "pred[0..18]"),
        (
            "bert_softmax",
            "dense[0..6] bar for(scalar[9..17] bar) dense[17..19] bar dense[19..23] bar \
             for(scalar[26..34] bar) dense[34..38]",
        ),
        ("bert_attn_context", "pred[0..17]"),
        ("bert_dense_gelu", "pred[0..14]"),
        ("bert_residual_add", "pred[0..7]"),
        ("bert_dropout", "pred[0..14]"),
        ("bert_pooler_tanh", "pred[0..8]"),
        ("bert_logits_bias", "pred[0..8]"),
        ("bert_matmul_tile", "pred[0..17]"),
        ("vit_patch_embed", "pred[0..17]"),
        ("vit_pos_embed", "pred[0..7]"),
        ("vit_cls_concat", "pred[0..10]"),
        ("vit_layernorm", "scalar[0..27] bar dense[27..37]"),
        (
            "vit_attn_softmax",
            "dense[0..8] bar for(scalar[11..19] bar) dense[19..23]",
        ),
        ("vit_gelu", "pred[0..16]"),
        ("vit_mlp_fc", "pred[0..17]"),
        ("vit_scale_residual", "pred[0..7]"),
        ("vit_token_pool", "pred[0..16]"),
        ("hm_aes_round", "scalar[0..19]"),
        ("hm_fir", "pred[0..16]"),
        ("hm_kmeans", "pred[0..30]"),
        ("hm_ep", "pred[0..18]"),
        ("hm_ga", "pred[0..25] bar pred[25..37]"),
        ("hm_blackscholes", "pred[0..15]"),
        ("hm_background_extract", "pred[0..18]"),
        ("hm_transpose", "dense[0..5] bar dense[5..10]"),
        ("hm_histogram", "pred[0..5]"),
        ("hm_pagerank_push", "pred[0..6]"),
        ("hm_knn_min", "pred[0..7]"),
        ("hm_sliding_window", "dense[0..2]"),
        ("hm_scatter_bst", "pred[0..6]"),
    ];
    use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
    let mut got = Vec::new();
    let mut summarize = |name: &str, src: &str, launch, sizes: Vec<usize>, scalars: Vec<Arg>| {
        let k = cucc::ir::parse_kernel(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut pool = MemPool::new();
        let mut sizes = sizes.into_iter();
        let mut scalars = scalars.into_iter();
        let args: Vec<Arg> = k
            .params
            .iter()
            .map(|p| match p.is_buffer() {
                true => Arg::Buffer(pool.alloc(sizes.next().expect("a size per buffer"))),
                false => scalars.next().expect("a value per scalar"),
            })
            .collect();
        let prog = Program::compile(&k, launch, &args).unwrap_or_else(|e| panic!("{name}: {e}"));
        got.push((name.to_string(), prog.phase_summary()));
    };
    for b in perf_suite(Scale::Test) {
        let sizes = b.buffers().iter().map(Vec::len).collect();
        let scalars = b.scalars().into_iter().map(Arg::Scalar).collect();
        summarize(b.name(), &b.source(), b.launch(), sizes, scalars);
    }
    for k in triton_kernels().into_iter().chain(heteromark_kernels()) {
        let scalars = k.scalars.iter().copied().map(Arg::Scalar).collect();
        summarize(k.name, &k.source, k.launch, k.buffer_bytes.clone(), scalars);
    }
    let want: Vec<(String, String)> = PINNED
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    assert_eq!(got, want);
}

/// Global atomics force the parallel path into its serial fallback; the
/// result must still match the oracle exactly.
#[test]
fn atomic_kernel_parallel_fallback_matches_oracle() {
    let mut b = KernelBuilder::new("hist");
    let out = b.buffer("out", Scalar::I64);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    b.atomic(
        AtomicOp::Add,
        out,
        Expr::Var(g).rem(Expr::int(8)),
        Expr::Var(g).rem(Expr::int(5)).add(Expr::int(1)),
    );
    let k = b.finish();
    validate(&k).unwrap();
    let launch = LaunchConfig::new(7u32, 32u32);

    let mut pool_a = MemPool::new();
    let out_a = pool_a.alloc_elems(Scalar::I64, 8);
    let args = vec![Arg::Buffer(out_a)];
    let pool = pool_a.clone();

    let ra = execute_launch(&k, launch, &args, &mut pool_a);
    let prog = Program::compile(&k, launch, &args).unwrap();
    assert!(
        prog.serial_only(),
        "global atomics must force serial fallback"
    );
    // With and without lanes the interleaved read-modify-writes must match
    // the oracle exactly.
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range_parallel(&prog, &mut pool_b, 0..launch.num_blocks(), 4);
        assert_same(what, &ra, &pool_a, &rb, &pool_b);
    }
}

/// Divergent per-lane masks: an early `return` retires some lanes and a
/// data-dependent guard predicates the store. The segment must batch as
/// `pred` and the engine must match the oracle bit-for-bit, serially and
/// under parallel workers.
#[test]
fn divergent_mask_kernel_matches_oracle_simd() {
    let mut b = KernelBuilder::new("divergent");
    let out = b.buffer("out", Scalar::I64);
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    b.if_then(Expr::Var(g).rem(Expr::int(4)).eq_(Expr::int(0)), |b| {
        b.ret()
    });
    let v = b.let_("v", Expr::load(fbuf, Expr::Var(g).rem(Expr::int(F_LEN))));
    b.if_then(Expr::Var(v).lt(Expr::float(0.5)), |b| {
        b.store(
            out,
            Expr::Var(g),
            Expr::cast(Scalar::I64, Expr::Var(v).mul(Expr::float(3.0))),
        );
    });
    let k = b.finish();
    validate(&k).unwrap();
    let launch = LaunchConfig::new(6u32, 20u32);

    let mut pool_a = MemPool::new();
    let out_id = pool_a.alloc_elems(Scalar::I64, OUT_LEN as usize);
    let fb = pool_a.alloc_elems(Scalar::F32, F_LEN as usize);
    let f_bytes: Vec<u8> = (0..F_LEN)
        .flat_map(|i| (i as f32 * 0.37 - 2.5).to_le_bytes())
        .collect();
    pool_a.write_all(fb, &f_bytes);
    let args = vec![Arg::Buffer(out_id), Arg::Buffer(fb)];
    let pool = pool_a.clone();

    let ra = execute_launch(&k, launch, &args, &mut pool_a);
    assert!(ra.is_ok(), "{ra:?}");
    let prog = Program::compile(&k, launch, &args).unwrap();
    assert!(
        prog.phase_summary().contains("pred["),
        "divergent kernel should batch predicated: {}",
        prog.phase_summary()
    );
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range(&prog, &mut pool_b, 0..launch.num_blocks());
        assert_same(what, &ra, &pool_a, &rb, &pool_b);
        let mut pool_c = pool.clone();
        let rc = run_range_parallel(&prog, &mut pool_c, 0..launch.num_blocks(), 3);
        assert_same(&format!("parallel {what}"), &ra, &pool_a, &rc, &pool_c);
    }
}

/// Multiple lanes of one chunk fault on an out-of-bounds store: the
/// engine must report the *lowest* faulting thread's error,
/// exactly as the serial oracle does — both in dense full-mode and under a
/// divergent mask.
#[test]
fn faulting_lanes_report_lowest_thread_simd() {
    for guarded in [false, true] {
        let mut b = KernelBuilder::new("oob");
        let out = b.buffer("out", Scalar::I64);
        let idx = Expr::ThreadIdx(Axis::X)
            .mul(Expr::int(17))
            .rem(Expr::int(256));
        let val = Expr::cast(Scalar::I64, Expr::ThreadIdx(Axis::X));
        if guarded {
            let cond = Expr::ThreadIdx(Axis::X).rem(Expr::int(2)).eq_(Expr::int(0));
            let (idx, val) = (idx.clone(), val.clone());
            b.if_then(cond, move |b| b.store(out, idx, val));
        } else {
            b.store(out, idx, val);
        }
        let k = b.finish();
        validate(&k).unwrap();
        let launch = LaunchConfig::new(2u32, 32u32);

        let mut pool_a = MemPool::new();
        let out_id = pool_a.alloc_elems(Scalar::I64, OUT_LEN as usize);
        let args = vec![Arg::Buffer(out_id)];
        let pool = pool_a.clone();

        let ra = execute_launch(&k, launch, &args, &mut pool_a);
        let ea = ra.expect_err("threads with tid*17 % 256 >= OUT_LEN must fault");
        let prog = Program::compile(&k, launch, &args).unwrap();
        let want = if guarded { "pred[" } else { "dense[" };
        assert!(
            prog.phase_summary().contains(want),
            "guarded={guarded}: {}",
            prog.phase_summary()
        );
        for (what, prog) in variants(&prog) {
            let eb = run_range(&prog, &mut pool.clone(), 0..launch.num_blocks())
                .expect_err("the engine must fault too");
            assert_eq!(
                ea, eb,
                "guarded={guarded} {what}: fault diverged from oracle"
            );
            let ec = run_range_parallel(&prog, &mut pool.clone(), 0..launch.num_blocks(), 4)
                .expect_err("the chunked engine must fault too");
            assert_eq!(ea, ec, "guarded={guarded} {what}: parallel fault diverged");
        }
    }
}

/// Intrinsic calls (weighted float ops) must count identically.
#[test]
fn intrinsic_kernel_matches_oracle() {
    let mut b = KernelBuilder::new("mathy");
    let fbuf = b.buffer("fbuf", Scalar::F32);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    let idx = Expr::Var(g).rem(Expr::int(F_LEN));
    let x = b.let_("x", Expr::load(fbuf, idx.clone()));
    let y = b.let_(
        "y",
        Expr::Call {
            f: Intrinsic::Sqrt,
            args: vec![Expr::Call {
                f: Intrinsic::Fabs,
                args: vec![Expr::Var(x)],
            }],
        },
    );
    let z = b.let_(
        "z",
        Expr::Call {
            f: Intrinsic::Fmax,
            args: vec![
                Expr::Call {
                    f: Intrinsic::Sin,
                    args: vec![Expr::Var(y)],
                },
                Expr::Call {
                    f: Intrinsic::Exp,
                    args: vec![Expr::Var(x)],
                },
            ],
        },
    );
    b.store(fbuf, idx, Expr::cast(Scalar::F32, Expr::Var(z)));
    let k = b.finish();
    validate(&k).unwrap();

    let launch = LaunchConfig::new(3u32, 16u32);
    let mut pool_a = MemPool::new();
    let fb = pool_a.alloc_elems(Scalar::F32, F_LEN as usize);
    let f_bytes: Vec<u8> = (0..F_LEN)
        .flat_map(|i| (i as f32 * 0.3 - 2.0).to_le_bytes())
        .collect();
    pool_a.write_all(fb, &f_bytes);
    let args = vec![Arg::Buffer(fb)];
    let mut pool_b = pool_a.clone();

    let sa = execute_launch(&k, launch, &args, &mut pool_a).unwrap();
    let sb = execute_launch_bytecode(&k, launch, &args, &mut pool_b).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(pool_a.bytes(fb), pool_b.bytes(fb));
    assert!(sa.float_ops > 0);
}

/// The zero-iteration / tail-heavy corner: a launch whose guard disables
/// every thread of the last block entirely.
#[test]
fn all_tail_threads_guarded_off() {
    let mut b = KernelBuilder::new("tail");
    let out = b.buffer("out", Scalar::I64);
    let n = b.scalar("n", Scalar::I32);
    let g = b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    );
    b.if_then(Expr::Var(g).lt(n), |b| {
        b.store(out, Expr::Var(g), Expr::Var(g).mul(Expr::int(2)));
    });
    let k = b.finish();
    validate(&k).unwrap();

    // 3 blocks × 8 threads = 24 lanes but n = 9: block 1 is partial, block
    // 2 entirely masked off.
    let launch = LaunchConfig::new(3u32, 8u32);
    let mut pool_a = MemPool::new();
    let out_a = pool_a.alloc_elems(Scalar::I64, 24);
    let args = vec![Arg::Buffer(out_a), Arg::int(9)];
    let mut pool_b = pool_a.clone();

    let sa = execute_launch(&k, launch, &args, &mut pool_a).unwrap();
    let sb = execute_launch_bytecode(&k, launch, &args, &mut pool_b).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(pool_a.bytes(out_a), pool_b.bytes(out_a));
}

// ---------------------------------------------------------------------------
// Registers crossing between lane and thread-major segments. Both paths
// read and write the one register file, the lane rows; a `scalar` segment
// works on each thread's column of them in place.
// ---------------------------------------------------------------------------

/// A variable written in a `scalar` segment and read in a later lane
/// segment, and the reverse, across chunk boundaries and with an early
/// `return` in the middle of every chunk. The two `scalar` segments store
/// inside their loops, which keeps them thread-major. `validate` rejects a `return`
/// beside a barrier, so the front end never produces this kernel; the
/// executors still define it (a returned thread sits out later phases), and
/// it is the only way to enter a segment with some threads retired.
#[test]
fn staging_carries_variables_between_scalar_and_lane_segments() {
    for block in [1u32, 15, 16, 17, 33, 1024] {
        check_staging(block);
    }
}

/// The staging kernel at block sizes around the lane chunk: one lane short
/// of a chunk, exactly one, one lane into a second, one into a third.
#[test]
fn staging_carries_variables_across_the_lane_chunk_boundary() {
    for block in [LANES - 1, LANES, LANES + 1, 2 * LANES + 1] {
        check_staging(block as u32);
    }
}

/// One block size of `staging_carries_variables_between_scalar_and_lane_segments`.
fn check_staging(block: u32) {
    let k = cucc::ir::parse_kernel(
        "__global__ void stage(int* out, int* in, int n) {
            __shared__ int sh[1024];
            int t = threadIdx.x;
            int acc = t;
            for (int j = 0; j < t % 5; j++) {
                acc = acc + in[(t + j) % n];
                out[blockIdx.x * blockDim.x + t] = acc;
            }
            sh[t] = acc;
            __syncthreads();
            int v = acc * 2 + sh[(t + 1) % blockDim.x];
            if (t % 16 == 5) return;
            out[blockIdx.x * blockDim.x + t] = v;
            __syncthreads();
            int w = acc;
            for (int j = 0; j < 3; j++) {
                w = w + v + j;
                out[blockIdx.x * blockDim.x + t] = w;
            }
        }",
    )
    .unwrap();
    let launch = LaunchConfig::new(2u32, block);
    let mut pool = MemPool::new();
    let out = pool.alloc_elems(Scalar::I32, 2 * block as usize);
    let inp = pool.alloc_elems(Scalar::I32, 37);
    pool.write_i32(inp, &(0..37).map(|i| i * 3 - 20).collect::<Vec<i32>>());
    let args = vec![Arg::Buffer(out), Arg::Buffer(inp), Arg::int(37)];
    let mut pool_a = pool.clone();
    let ra = execute_launch(&k, launch, &args, &mut pool_a);
    assert!(ra.is_ok(), "block={block}: {ra:?}");
    let prog = Program::compile(&k, launch, &args).unwrap();
    let summary = prog.phase_summary();
    let tags: Vec<&str> = summary
        .split(' ')
        .map(|s| &s[..s.find('[').unwrap_or(3)])
        .collect();
    assert_eq!(
        tags,
        ["scalar", "bar", "pred", "bar", "scalar"],
        "{summary}"
    );
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range(&prog, &mut pool_b, 0..2);
        assert_same(&format!("block={block} {what}"), &ra, &pool_a, &rb, &pool_b);
    }
}

/// Two threads past the first 16 of a `scalar` segment (a store inside its
/// loop keeps it thread-major) store out of bounds: the engine reports the
/// lower one's fault, as the oracle does.
#[test]
fn scalar_segment_fault_in_second_chunk_reports_oracle_thread() {
    check_scalar_segment_fault(40, 21, 27);
}

/// The same at the lane chunk: the faulting threads are lanes 4 and 10 of
/// the second chunk of a block of two chunks and a lane.
#[test]
fn scalar_segment_fault_past_the_first_lane_chunk_reports_oracle_thread() {
    check_scalar_segment_fault(2 * LANES as u32 + 1, LANES as u32 + 4, LANES as u32 + 10);
}

/// `threads` threads in one block; threads `lo < hi` store out of bounds.
fn check_scalar_segment_fault(threads: u32, lo: u32, hi: u32) {
    let k = cucc::ir::parse_kernel(&format!(
        "__global__ void k(int* out) {{
            int t = threadIdx.x;
            int acc = 0;
            for (int j = 0; j < 2; j++) {{
                acc = acc + j;
                out[t] = acc;
            }}
            int idx = t;
            if (t == {lo}) idx = 1000;
            if (t == {hi}) idx = 2000;
            out[idx] = acc;
        }}"
    ))
    .unwrap();
    validate(&k).unwrap();
    let launch = LaunchConfig::new(1u32, threads);
    let mut pool = MemPool::new();
    let out = pool.alloc_elems(Scalar::I32, (threads as usize).next_power_of_two());
    let args = vec![Arg::Buffer(out)];
    let ea = execute_launch(&k, launch, &args, &mut pool.clone()).unwrap_err();
    assert!(
        matches!(ea, ExecError::OutOfBounds { index: 1000, .. }),
        "{ea:?}"
    );
    let prog = Program::compile(&k, launch, &args).unwrap();
    assert!(
        prog.phase_summary().starts_with("scalar["),
        "{}",
        prog.phase_summary()
    );
    for (what, prog) in variants(&prog) {
        let eb = run_range(&prog, &mut pool.clone(), 0..1).unwrap_err();
        assert_eq!(ea, eb, "{what}");
    }
}

/// A builtin kernel at its own launch: perf-suite kernels with their data,
/// coverage kernels with zeroed buffers.
fn builtin_launch(name: &str) -> (Kernel, LaunchConfig, Vec<Arg>, MemPool) {
    use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
    let (src, launch, bufs, scalars) = match perf_suite(Scale::Test)
        .into_iter()
        .find(|b| b.name() == name)
    {
        Some(b) => (b.source(), b.launch(), b.buffers(), b.scalars()),
        None => {
            let ck = triton_kernels()
                .into_iter()
                .chain(heteromark_kernels())
                .find(|k| k.name == name)
                .unwrap_or_else(|| panic!("{name} is not a builtin kernel"));
            let bufs = ck.buffer_bytes.iter().map(|n| vec![0u8; *n]).collect();
            (ck.source, ck.launch, bufs, ck.scalars)
        }
    };
    let k = cucc::ir::parse_kernel(&src).unwrap();
    let mut pool = MemPool::new();
    let (mut bufs, mut scalars) = (bufs.iter(), scalars.iter());
    let args: Vec<Arg> = k
        .params
        .iter()
        .map(|p| match p {
            cucc::ir::Param::Buffer { .. } => {
                let data = bufs.next().unwrap();
                let id = pool.alloc(data.len());
                pool.write_all(id, data);
                Arg::Buffer(id)
            }
            cucc::ir::Param::Scalar { .. } => Arg::Scalar(*scalars.next().unwrap()),
        })
        .collect();
    (k, launch, args, pool)
}

/// `bert_layernorm` — dense prologue, a block reduction whose steps are
/// `scalar` segments inside a uniform loop, dense epilogue — certified at
/// its real extents and run under `CertMode::Validate`: the thread-major
/// path must see in the lane rows the same indices the analysis saw.
#[test]
fn block_reduce_kernel_validates_its_certificates() {
    let (k, launch, args, pool) = builtin_launch("bert_layernorm");
    let mut prog = Program::compile(&k, launch, &args).unwrap();
    let summary = prog.phase_summary();
    assert!(
        summary.contains("for(scalar[") && summary.contains("dense["),
        "{summary}"
    );
    let exts = global_extents(&prog, |b| Some(pool.size_of(b)));
    let (certified, _) = certify_program(&mut prog, &exts, CertMode::Validate).stats();
    assert!(
        certified > 0,
        "nothing certified: the test would check nothing"
    );
    let mut pool_a = pool.clone();
    let ra = execute_launch(&k, launch, &args, &mut pool_a);
    assert!(ra.is_ok(), "{ra:?}");
    for (what, prog) in variants(&prog) {
        let mut pool_b = pool.clone();
        let rb = run_range(&prog, &mut pool_b, 0..launch.num_blocks());
        assert_same(what, &ra, &pool_a, &rb, &pool_b);
    }
}

/// Loop nests whose every access the range analysis certifies at the
/// kernel's own launch (a constant bound inside a loop, an inner loop
/// re-entered by its outer one), run certified in every mode — `Validate`
/// and `Elide`, lanes and detached: no `CertificateViolation`, and the
/// oracle's memory.
#[test]
fn builtin_loop_nests_validate_their_certificates() {
    for (name, certs) in [("hm_ga", (5, 5)), ("GA", (5, 5)), ("hm_kmeans", (3, 3))] {
        let (k, launch, args, pool) = builtin_launch(name);
        let (ra, stats) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        assert!(ra.is_ok(), "{name}: {ra:?}");
        assert_eq!(stats, certs, "{name}: certified / memory instructions");
    }
}

// ---------------------------------------------------------------------------
// One instruction stream: a load and the store that consumes it are separate
// lane ops, each with its own fault point and its own certificate.
// ---------------------------------------------------------------------------

/// Run `k` on the oracle and on the engine — lanes and plans detached, serial
/// and over 4 worker chunks, with no certificates, `CertMode::Elide` and
/// `CertMode::Validate` — and assert every run reproduces the oracle's result
/// and its memory, *also when the result is an error*. A faulting launch must
/// fault in its last block only: earlier chunks of a parallel run then commit
/// exactly what the oracle committed before it stopped. Returns the oracle's
/// result and the program's `cert_stats()`.
fn assert_exact_in_every_mode(
    k: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
) -> (Outcome, (usize, usize)) {
    validate(k).unwrap();
    let n = launch.num_blocks();
    let mut pool_a = pool.clone();
    let ra = execute_launch(k, launch, args, &mut pool_a);
    let plain = Program::compile(k, launch, args).unwrap();
    let exts = global_extents(&plain, |b| Some(pool.size_of(b)));
    let certified = |mode| {
        let mut p = plain.clone();
        certify_program(&mut p, &exts, mode);
        p
    };
    let (elided, validated) = (certified(CertMode::Elide), certified(CertMode::Validate));
    for (certs, prog) in [
        ("no certs", &plain),
        ("elide", &elided),
        ("validate", &validated),
    ] {
        for (what, prog) in variants(prog) {
            for workers in [1, 4] {
                let mut pool_b = pool.clone();
                let rb = run_range_parallel(&prog, &mut pool_b, 0..n, workers);
                let what = format!("{what}, {certs}, {workers} worker(s)");
                assert_eq!(ra, rb, "{what}: result diverged from the oracle");
                assert!(pool_a == pool_b, "{what}: memory diverged from the oracle");
            }
        }
    }
    (ra, elided.cert_stats())
}

/// `out[g(t)] = in[h(t)]` where, inside one lane chunk, a *higher* lane's
/// load and a *lower* lane's store are both out of bounds. The oracle runs
/// the lower thread to its store fault before the higher thread ever loads,
/// so the store's error wins, and only the lanes below it have stored.
#[test]
fn lower_lane_store_fault_precedes_higher_lane_load_fault() {
    // 8 blocks x 32 threads; threads 244 and 250 are lanes 4 and 10 of the
    // last block's second 16 threads (both even: the guard keeps them).
    check_store_fault_before_load_fault(32, 244, 250);
}

/// The same where the two lanes are lanes 4 and 10 of the last block's
/// second lane chunk.
#[test]
fn lower_lane_store_fault_precedes_higher_lane_load_fault_in_the_second_chunk() {
    let block = 2 * LANES as u32;
    let second = 7 * block + LANES as u32;
    check_store_fault_before_load_fault(block, second + 4, second + 10);
}

/// 8 blocks of `block` threads; thread `store` stores and thread `load`
/// loads out of bounds (`store < load`, both even).
fn check_store_fault_before_load_fault(block: u32, store: u32, load: u32) {
    let n = 8 * block as usize;
    for guarded in [false, true] {
        let body = format!("out[g + (g == {store}) * 100000] = in[g + (g == {load}) * 100000];");
        let body = if guarded {
            format!("if (threadIdx.x % 2 == 0) {{ {body} }}")
        } else {
            body
        };
        let k = cucc::ir::parse_kernel(&format!(
            "__global__ void copy(int* out, int* in) {{
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                {body}
            }}"
        ))
        .unwrap();
        let launch = LaunchConfig::new(8u32, block);
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, n);
        let inp = pool.alloc_elems(Scalar::I32, n);
        pool.write_i32(
            inp,
            &(0..n as i32).map(|i| i * 5 - 300).collect::<Vec<i32>>(),
        );
        let args = vec![Arg::Buffer(out), Arg::Buffer(inp)];
        let prog = Program::compile(&k, launch, &args).unwrap();
        let want = if guarded { "pred[" } else { "dense[" };
        assert!(
            prog.phase_summary().contains(want),
            "{}",
            prog.phase_summary()
        );
        let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        let want = i64::from(store) + 100000;
        assert!(
            matches!(&ra, Err(ExecError::OutOfBounds { mem, index, .. }) if mem == "out" && *index == want),
            "guarded={guarded}: {ra:?}"
        );
    }
}

/// One segment with a certified load and an uncertified store (`g ^ 1` stays
/// below 192, but the interval domain only bounds it by 255). The engine
/// elides exactly the certified access: the counts say one of two, `Elide`
/// equals the checked run, and a store that really is out of bounds faults as
/// `OutOfBounds` in every mode — under `Validate` too, where only a
/// *certified* access may raise `CertificateViolation`.
#[test]
fn certified_load_and_uncertified_store_share_a_segment() {
    let k = cucc::ir::parse_kernel(
        "__global__ void swap_pairs(int* out, int* in, int off) {
            int g = blockIdx.x * blockDim.x + threadIdx.x;
            out[(g ^ 1) + off] = in[g];
        }",
    )
    .unwrap();
    let launch = LaunchConfig::new(6u32, 32u32);
    let mut pool = MemPool::new();
    let out = pool.alloc_elems(Scalar::I32, 192);
    let inp = pool.alloc_elems(Scalar::I32, 192);
    pool.write_i32(inp, &(0..192).map(|i| 1000 - i * 3).collect::<Vec<i32>>());
    for (off, faults) in [(0, false), (1000, true)] {
        let args = vec![Arg::Buffer(out), Arg::Buffer(inp), Arg::int(off)];
        let prog = Program::compile(&k, launch, &args).unwrap();
        assert!(
            prog.phase_summary().starts_with("dense["),
            "{}",
            prog.phase_summary()
        );
        let (ra, certs) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        assert_eq!(certs, (1, 2), "off={off}: the load alone is certified");
        if faults {
            assert!(
                matches!(&ra, Err(ExecError::OutOfBounds { mem, index: 1001, .. }) if mem == "out"),
                "{ra:?}"
            );
        } else {
            assert!(ra.is_ok(), "{ra:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle, written down: one minimal kernel per scalar rule, with the
// memory or the error the rule demands. Each row runs through
// `assert_exact_in_every_mode`, so the tree-walk and every way the engine
// can run the kernel are held to the same written expectation.
// ---------------------------------------------------------------------------

/// Initial contents of one buffer argument.
enum Buf {
    I64(Vec<i64>),
    F64(Vec<f64>),
    U8(Vec<u8>),
    Zero(Scalar, usize),
}

/// A pool holding `bufs`, and one `Arg::Buffer` per buffer, in order.
fn pool_of(bufs: &[Buf]) -> (MemPool, Vec<Arg>) {
    let mut pool = MemPool::new();
    let mut args = Vec::new();
    for b in bufs {
        let (elem, bytes): (Scalar, Vec<u8>) = match b {
            Buf::I64(v) => (
                Scalar::I64,
                v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            ),
            Buf::F64(v) => (
                Scalar::F64,
                v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            ),
            Buf::U8(v) => (Scalar::U8, v.clone()),
            Buf::Zero(elem, n) => (*elem, vec![0; n * elem.size()]),
        };
        let id = pool.alloc_elems(elem, bytes.len() / elem.size());
        pool.write_all(id, &bytes);
        args.push(Arg::Buffer(id));
    }
    (pool, args)
}

/// What buffer 0 must hold after the launch (also after a faulting one: the
/// threads below the fault have committed).
#[derive(Debug)]
enum Out {
    I64(Vec<i64>),
    F64(Vec<f64>),
}

struct Rule {
    rule: &'static str,
    src: String,
    threads: u32,
    bufs: Vec<Buf>,
    scalars: Vec<Arg>,
    result: Result<(), ExecError>,
    out: Out,
    /// A substring `Program::phase_summary()` must contain: the engine path
    /// the row is meant to reach (`dense[`/`pred[` lanes, `scalar[`
    /// thread-major; the detached variants run everything thread-major).
    phases: &'static str,
    /// `cert_stats()` under `CertMode::Elide`, where the row is about it.
    certs: Option<(usize, usize)>,
    /// `(float_ops, global_atomics)` of the launch, where the row is about
    /// charging.
    charged: Option<(u64, u64)>,
}

/// A row with no certificate or charging expectation.
fn rule(
    rule: &'static str,
    src: &str,
    threads: u32,
    bufs: Vec<Buf>,
    result: Result<(), ExecError>,
    out: Out,
    phases: &'static str,
) -> Rule {
    Rule {
        rule,
        src: src.to_string(),
        threads,
        bufs,
        scalars: Vec::new(),
        result,
        out,
        phases,
        certs: None,
        charged: None,
    }
}

fn oob(mem: &str, index: i64, len_elems: usize) -> Result<(), ExecError> {
    Err(ExecError::OutOfBounds {
        mem: mem.to_string(),
        index,
        len_elems,
    })
}

/// Thread ids as the kernels' `t`.
fn tids(n: u32) -> impl Iterator<Item = i64> {
    0..i64::from(n)
}

/// `out[t] = <expr>` over `long* in`, one block of 16 threads.
fn int_expr_rule(rule_: &'static str, expr: &str, input: Vec<i64>, want: Vec<i64>) -> Rule {
    rule(
        rule_,
        &format!(
            "__global__ void k(long* out, long* in) {{
                int t = threadIdx.x;
                out[t] = {expr};
            }}"
        ),
        16,
        vec![Buf::Zero(Scalar::I64, 16), Buf::I64(input)],
        Ok(()),
        Out::I64(want),
        "dense[",
    )
}

fn oracle_rules() -> Vec<Rule> {
    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;
    let ints: Vec<i64> = vec![
        0,
        1,
        -1,
        127,
        128,
        255,
        256,
        -129,
        (1 << 31) - 1,
        1 << 31,
        (1 << 32) - 1,
        1 << 32,
        -(1 << 31) - 1,
        MAX,
        MIN,
        0x1_2345_6789,
    ];
    let floats: Vec<f64> = vec![
        1e30,
        -1e30,
        f64::NAN,
        2147483648.5,
        -0.9,
        3.99,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -1.0,
        9.3e18,
        -9.3e18,
        4294967296.0,
        255.5,
    ];
    let to_f32: Vec<f64> = vec![
        0.1, 1e40, -1e40, 1e-50, 16777217.0, -0.0, 1.5, 3.0e38, 3.5e38, 1e-45, 7e-46, 0.0, -2.5,
        1e10, 65504.0, 1.0000001,
    ];
    // Two factors whose exact product 1 - 2^-54 rounds to 1.0: a fused
    // multiply-add would leave -2^-54 after `+ -1.0`, two roundings leave 0.
    let eps = (2.0f64).powi(-27);
    let wrap_step = MAX / 2 + 2;
    let mut rules =
        vec![
        // Thread 5 divides by zero before thread 9 stores out of bounds:
        // threads 0..5 have stored, the error is the lower thread's.
        rule(
            "integer / by zero faults; the lowest faulting thread wins",
            "__global__ void k(long* out, long* in) {
                int t = threadIdx.x;
                out[t + (t == 9) * 1000] = in[0] / (t - 5);
            }",
            32,
            vec![Buf::Zero(Scalar::I64, 32), Buf::I64(vec![100])],
            Err(ExecError::DivByZero),
            Out::I64(
                tids(32)
                    .map(|t| if t < 5 { 100 / (t - 5) } else { 0 })
                    .collect(),
            ),
            "dense[",
        ),
        // The other order: thread 3's store fault precedes thread 5's `% 0`.
        rule(
            "integer % by zero faults, but not before a lower thread's fault",
            "__global__ void k(long* out, long* in) {
                int t = threadIdx.x;
                out[t + (t == 3) * 1000] = in[0] % (t - 5);
            }",
            32,
            vec![Buf::Zero(Scalar::I64, 32), Buf::I64(vec![100])],
            oob("out", 1003, 32),
            Out::I64(
                tids(32)
                    .map(|t| if t < 3 { 100 % (t - 5) } else { 0 })
                    .collect(),
            ),
            "dense[",
        ),
        int_expr_rule(
            "a << count is taken mod 64, counts >= 64 and negative included",
            "in[0] << (t * 9 - 9)",
            vec![-3],
            tids(16)
                .map(|t| -3i64 << (t * 9 - 9).rem_euclid(64))
                .collect(),
        ),
        int_expr_rule(
            "a >> count likewise, and >> is arithmetic",
            "in[0] >> (t * 9 - 9)",
            vec![-3],
            tids(16)
                .map(|t| -3i64 >> (t * 9 - 9).rem_euclid(64))
                .collect(),
        ),
        int_expr_rule(
            "i64::MIN / -1 wraps to i64::MIN",
            "in[0] / in[1]",
            vec![MIN, -1],
            vec![MIN; 16],
        ),
        int_expr_rule(
            "i64::MIN % -1 is 0",
            "in[0] % in[1]",
            vec![MIN, -1],
            vec![0; 16],
        ),
        int_expr_rule(
            "abs(i64::MIN) wraps to i64::MIN",
            "abs(in[t % 4])",
            vec![MIN, -5, 0, 7],
            [MIN, 5, 0, 7].repeat(4),
        ),
        int_expr_rule(
            "abs of a constant that folds to i64::MIN wraps at compile time too",
            "abs(1 << 63)",
            vec![0],
            vec![MIN; 16],
        ),
        rule(
            "a store to float rounds to f32 (overflow to inf, underflow to 0)",
            "__global__ void k(double* out, double* in, float* a) {
                int t = threadIdx.x;
                a[t] = in[t];
                __syncthreads();
                out[t] = a[t];
            }",
            16,
            vec![
                Buf::Zero(Scalar::F64, 16),
                Buf::F64(to_f32.clone()),
                Buf::Zero(Scalar::F32, 16),
            ],
            Ok(()),
            Out::F64(to_f32.iter().map(|&v| v as f32 as f64).collect()),
            "dense[",
        ),
        // `a * b + c` is one MulAdd instruction. Each `?:` mixes a double
        // and a long arm, so C converts the long arm: every thread
        // multiplies two doubles and adds one (2 float ops), and each even
        // thread also pays its two `(double)` casts. Even threads:
        // `(double)(MAX - t)` is 2^63 (doubles below 2^63 are 1024 apart),
        // times 2 is 2^64, and 2^64 - 1 rounds back to 2^64. Odd threads:
        // (1 + eps)(1 - eps) rounds to 1 before the add — 0, not -eps².
        Rule {
            charged: Some((32 * 2 + 16 * 2, 0)),
            ..rule(
                "mul-add promotes per component, charges per component and rounds twice",
                "__global__ void k(double* out, double* x, long* a, double* c) {
                    int t = threadIdx.x;
                    out[t] = ((t % 2) ? x[t] : a[t]) * ((t % 2) ? x[32 + t] : a[32 + t]) + c[t];
                }",
                32,
                vec![
                    Buf::Zero(Scalar::F64, 32),
                    Buf::F64(
                        (tids(32).map(|_| 1.0 + eps))
                            .chain(tids(32).map(|_| 1.0 - eps))
                            .collect(),
                    ),
                    Buf::I64(
                        tids(32)
                            .map(|t| MAX - t)
                            .chain(tids(32).map(|_| 2))
                            .collect(),
                    ),
                    Buf::F64(vec![-1.0; 32]),
                ],
                Ok(()),
                Out::F64(
                    tids(32)
                        .map(|t| match t % 2 {
                            1 => 0.0,
                            _ => 18446744073709551616.0,
                        })
                        .collect(),
                ),
                // The selects diverge and re-converge before the mul-add.
                "pred[",
            )
        },
        // A statically mixed mul-add: the long product wraps, the add is a
        // double — 1 int op and 1 float op per thread. (MAX - t) * 2 wraps
        // to -2 - 2t, and -2 - 2t - 1 is exact in a double.
        Rule {
            charged: Some((16, 0)),
            ..rule(
                "mul-add of long * long + double promotes per component",
                "__global__ void k(double* out, long* a, double* c) {
                    int t = threadIdx.x;
                    out[t] = a[t] * a[16 + t] + c[t];
                }",
                16,
                vec![
                    Buf::Zero(Scalar::F64, 16),
                    Buf::I64(tids(16).map(|t| MAX - t).chain(tids(16).map(|_| 2)).collect()),
                    Buf::F64(vec![-1.0; 16]),
                ],
                Ok(()),
                Out::F64(tids(16).map(|t| (-3 - 2 * t) as f64).collect()),
                "dense[",
            )
        },
        // C's conversions, each derived from the C standard by hand.
        // Assigning an int to a float variable converts it, so `x / 2` is a
        // float division: t / 2.
        rule(
            "C: an int assigned to a float variable becomes a float",
            "__global__ void k(double* out) {
                int t = threadIdx.x;
                float x = 0.5f;
                x = t;
                out[t] = x / 2;
            }",
            16,
            vec![Buf::Zero(Scalar::F64, 16)],
            Ok(()),
            Out::F64(tids(16).map(|t| t as f64 / 2.0).collect()),
            "dense[",
        ),
        // `t * 1.5f` is a float; initializing an int truncates it toward
        // zero: 0, 1, 3, 4, 6, … = 3t / 2, stored as doubles.
        rule(
            "C: a float initializing an int variable truncates",
            "__global__ void k(double* out) {
                int t = threadIdx.x;
                int j = t * 1.5f;
                out[t] = j;
            }",
            16,
            vec![Buf::Zero(Scalar::F64, 16)],
            Ok(()),
            Out::F64(tids(16).map(|t| (3 * t / 2) as f64).collect()),
            "dense[",
        ),
        // The arms of `?:` meet in their common type, float: 7.0f / 2 is
        // 3.5 on odd threads, 2.5f / 2 is 1.25 on even ones.
        rule(
            "C: a ?: with an int and a float arm is a float",
            "__global__ void k(double* out) {
                int t = threadIdx.x;
                out[t] = ((t & 1) ? 7 : 2.5f) / 2;
            }",
            16,
            vec![Buf::Zero(Scalar::F64, 16)],
            Ok(()),
            Out::F64(tids(16).map(|t| if t & 1 == 1 { 3.5 } else { 1.25 }).collect()),
            "pred[",
        ),
        // `j += 0.5f` is `j = (int)(j + 0.5f)`: t + 0.5 truncates back to
        // t, twice.
        rule(
            "C: a compound float assignment to an int truncates",
            "__global__ void k(long* out) {
                int t = threadIdx.x;
                int j = t;
                j += 0.5f;
                j += 0.5f;
                out[t] = j;
            }",
            16,
            vec![Buf::Zero(Scalar::I64, 16)],
            Ok(()),
            Out::I64(tids(16).collect()),
            "dense[",
        ),
        // A float loop variable initialized from an int holds t, t + 1 and
        // t + 2 as floats, so each `x / 2` is a float division:
        // (3t + 3) / 2, exact in a double.
        rule(
            "C: a float for-init from an int counts in floats",
            "__global__ void k(double* out) {
                int t = threadIdx.x;
                double s = 0.0;
                float x;
                for (x = t; x < t + 3; x++) s = s + x / 2;
                out[t] = s;
            }",
            16,
            vec![Buf::Zero(Scalar::F64, 16)],
            Ok(()),
            Out::F64(tids(16).map(|t| (3 * t + 3) as f64 / 2.0).collect()),
            "pred[",
        ),
        // One store site, so the segment runs on lanes; the `if` makes them
        // diverge. A true value sets bits 0, 2 and 3, a false one bit 1.
        rule(
            "NaN is true, -0.0 and 0.0 are false: ?:, !, && and if agree",
            "__global__ void k(long* out, double* in) {
                int t = threadIdx.x;
                long v = (in[t] ? 1 : 0) + 2 * !in[t] + 4 * (in[t] && 1);
                if (in[t]) v = v + 8;
                out[t] = v;
            }",
            16,
            vec![Buf::Zero(Scalar::I64, 16), Buf::F64(floats.clone())],
            Ok(()),
            Out::I64(
                floats
                    .iter()
                    .map(|v| if v.is_nan() || *v != 0.0 { 13 } else { 2 })
                    .collect(),
            ),
            "pred[",
        ),
        rule(
            "a zero loop step is DivByZero in a per-thread loop",
            "__global__ void k(long* out, long* in) {
                int t = threadIdx.x;
                for (long i = 0; i < 4; i += in[0]) out[t] = i;
            }",
            16,
            vec![Buf::Zero(Scalar::I64, 16), Buf::I64(vec![0])],
            Err(ExecError::DivByZero),
            Out::I64(vec![0; 16]),
            "scalar[",
        ),
        // A barrier needs uniform bounds, so the step is a scalar argument.
        Rule {
            scalars: vec![Arg::int(0)],
            ..rule(
                "a zero loop step is DivergentBarrier in a loop with a barrier",
                "__global__ void k(long* out, long st) {
                    int t = threadIdx.x;
                    for (long i = 0; i < 4; i += st) { out[t] = i; __syncthreads(); }
                }",
                16,
                vec![Buf::Zero(Scalar::I64, 16)],
                Err(ExecError::DivergentBarrier),
                Out::I64(vec![0; 16]),
                "for",
            )
        },
        // Shared and local arrays start zeroed; their atomics are ordinary
        // read-modify-writes and are not counted as global atomics.
        Rule {
            charged: Some((0, 0)),
            ..rule(
                "an atomic on a shared or a local slot updates it and is not a global atomic",
                "__global__ void k(long* out) {
                    __shared__ long acc[4];
                    long mine[2];
                    int t = threadIdx.x;
                    atomicAdd(&acc[t % 4], t);
                    atomicMax(&mine[t % 2], t);
                    atomicAdd(&mine[t % 2], 5);
                    __syncthreads();
                    out[t] = acc[t % 4] + 1000 * mine[t % 2];
                }",
                32,
                vec![Buf::Zero(Scalar::I64, 32)],
                Ok(()),
                Out::I64(
                    tids(32)
                        .map(|t| tids(32).filter(|u| u % 4 == t % 4).sum::<i64>() + 1000 * (t + 5))
                        .collect(),
                ),
                "[",
            )
        },
        // The one behaviour PR 24 changed: lanes masked off by the `if`
        // consume the certificates too. Memory and stats stay the checked
        // run's (that is `assert_exact_in_every_mode`).
        Rule {
            certs: Some((2, 2)),
            ..rule(
                "a certified access under a divergent if is elided in masked lanes, unobservably",
                "__global__ void k(long* out, long* in) {
                    int t = threadIdx.x;
                    if (t % 3 == 0) out[t] = in[t] + 1;
                }",
                32,
                vec![
                    Buf::Zero(Scalar::I64, 32),
                    Buf::I64(tids(32).map(|t| t * t).collect()),
                ],
                Ok(()),
                Out::I64(
                    tids(32)
                        .map(|t| if t % 3 == 0 { t * t + 1 } else { 0 })
                        .collect(),
                ),
                "pred[",
            )
        },
    ];
    // 0, st, then 2 st = -(2^63 - 2) after the wrap: still `< n`, so the loop
    // goes on and the third store lands at index -2. The range analysis must
    // not certify it. With a barrier in the body the loop is the uniform one.
    for (rule_, body, phases) in [
        (
            "a per-thread loop's induction variable wraps like every integer op",
            "out[i % 4] = i;",
            "scalar[",
        ),
        (
            "a uniform loop's induction variable wraps too",
            "{ out[i % 4] = i; __syncthreads(); }",
            "for",
        ),
    ] {
        rules.push(Rule {
            scalars: vec![Arg::int(MAX), Arg::int(wrap_step)],
            certs: Some((0, 1)),
            ..rule(
                rule_,
                &format!(
                    "__global__ void k(long* out, long n, long st) {{
                        for (long i = 0; i < n; i += st) {body}
                    }}"
                ),
                16,
                vec![Buf::Zero(Scalar::I64, 4)],
                oob("out", -2, 4),
                Out::I64(vec![0, wrap_step, 0, 0]),
                phases,
            )
        });
    }
    // Loops on lanes. Every fault below comes before any store of the
    // faulting thread: the threads under it have stored, none above.
    // Thread 9 faults in iteration 0, thread 3 only in iteration 2: the
    // oracle runs thread 3 first, so thread 3's fault is the one reported.
    rules.push(rule(
        "a fault in a later iteration of a lower lane beats an earlier one of a higher lane",
        "__global__ void k(long* out, long* in) {
            int t = threadIdx.x;
            long acc = 0;
            for (int j = 0; j < 4; j++)
                acc = acc + in[t + (t == 3 && j == 2) * 1000 + (t == 9 && j == 0) * 2000];
            out[t] = acc;
        }",
        16,
        vec![
            Buf::Zero(Scalar::I64, 16),
            Buf::I64(tids(16).map(|t| t * 10).collect()),
        ],
        oob("in", 1003, 16),
        Out::I64(tids(16).map(|t| if t < 3 { t * 40 } else { 0 }).collect()),
        "pred[",
    ));
    rules.push(rule(
        "a zero loop step on one lane is DivByZero at that lane",
        "__global__ void k(long* out, long* in) {
            int t = threadIdx.x;
            long acc = 0;
            for (long i = 0; i < 4; i += (t == 6 ? 0 : 1)) acc = acc + in[i];
            out[t] = acc;
        }",
        16,
        vec![Buf::Zero(Scalar::I64, 16), Buf::I64(vec![1, 2, 3, 4])],
        Err(ExecError::DivByZero),
        Out::I64(tids(16).map(|t| if t < 6 { 10 } else { 0 }).collect()),
        "pred[",
    ));
    // 0, st, then 2 st wraps to -(2^63 - 2), then -2^62 + 3 and 4, all `< n`;
    // 5 st = 2^62 + 5 ends the loop. Two of the five values are negative.
    let wrap_n = (1i64 << 62) + 3;
    let wrapped: i64 = (0..5i64)
        .map(|k| k.wrapping_mul(wrap_step))
        .map(|i| (i & 7) + 100 * i64::from(i < 0))
        .sum();
    rules.push(Rule {
        scalars: vec![Arg::int(wrap_n), Arg::int(wrap_step)],
        ..rule(
            "a loop counter on lanes wraps like every integer op",
            "__global__ void k(long* out, long n, long st) {
                int t = threadIdx.x;
                long acc = t;
                for (long i = 0; i < n; i += st) acc = acc + (i & 7) + 100 * (i < 0);
                out[t] = acc;
            }",
            16,
            vec![Buf::Zero(Scalar::I64, 16)],
            Ok(()),
            Out::I64(tids(16).map(|t| t + wrapped).collect()),
            "pred[",
        )
    });
    rules.push(rule(
        "a loop runs zero times on some lanes and waits at its exit",
        "__global__ void k(long* out, long* in) {
            int t = threadIdx.x;
            long acc = 100;
            for (int j = 0; j < t % 4; j++) acc = acc + in[j];
            out[t] = acc;
        }",
        16,
        vec![Buf::Zero(Scalar::I64, 16), Buf::I64(vec![1, 20, 300])],
        Ok(()),
        Out::I64(
            tids(16)
                .map(|t| 100 + [0, 1, 21, 321][t as usize % 4])
                .collect(),
        ),
        "pred[",
    ));
    rules.push(rule(
        "a loop run by one lane alone faults at that lane",
        "__global__ void k(long* out, long* in) {
            int t = threadIdx.x;
            long acc = t;
            if (t == 5)
                for (int j = 0; j < 4; j++) acc = acc + in[j * 5];
            out[t] = acc;
        }",
        16,
        vec![Buf::Zero(Scalar::I64, 16), Buf::I64(vec![1; 12])],
        oob("in", 15, 12),
        Out::I64(tids(16).map(|t| if t < 5 { t } else { 0 }).collect()),
        "pred[",
    ));
    // One site in a loop body counts as two: only the commutative
    // one-op integer rule admits it.
    rules.push(Rule {
        charged: Some((0, 64)),
        ..rule(
            "an integer atomicAdd in a loop body runs on lanes",
            "__global__ void k(long* out) {
                int t = threadIdx.x;
                for (int j = 0; j < 4; j++) atomicAdd(&out[(t + j) % 8], t * j + 1);
            }",
            16,
            vec![Buf::Zero(Scalar::I64, 8)],
            Ok(()),
            Out::I64(
                (0..8)
                    .map(|e| {
                        let pairs = tids(16).flat_map(|t| (0..4).map(move |j| (t, j)));
                        pairs
                            .filter(|(t, j)| (t + j) % 8 == e)
                            .map(|(t, j)| t * j + 1)
                            .sum()
                    })
                    .collect(),
            ),
            "pred[",
        )
    });
    // A store narrows as C does; the load back widens by the element's
    // signedness.
    type Narrow = fn(i64) -> i64;
    let narrowings: [(&'static str, &str, Scalar, Narrow); 4] = [
        (
            "a store to u8 keeps the low 8 bits",
            "uchar",
            Scalar::U8,
            |v| v as u8 as i64,
        ),
        (
            "a store to i8 keeps the low 8 bits, sign-extended",
            "char",
            Scalar::I8,
            |v| v as i8 as i64,
        ),
        (
            "a store to i32 keeps the low 32 bits, sign-extended",
            "int",
            Scalar::I32,
            |v| v as i32 as i64,
        ),
        (
            "a store to u32 keeps the low 32 bits",
            "uint",
            Scalar::U32,
            |v| v as u32 as i64,
        ),
    ];
    for (rule_, ty, elem, narrow) in narrowings {
        rules.push(rule(
            rule_,
            &format!(
                "__global__ void k(long* out, long* in, {ty}* a) {{
                    int t = threadIdx.x;
                    a[t] = in[t];
                    __syncthreads();
                    out[t] = a[t];
                }}"
            ),
            16,
            vec![
                Buf::Zero(Scalar::I64, 16),
                Buf::I64(ints.clone()),
                Buf::Zero(elem, 16),
            ],
            Ok(()),
            Out::I64(ints.iter().map(|&v| narrow(v)).collect()),
            "dense[",
        ));
    }
    // A cast first saturates to i64 (NaN to 0), then narrows like a store; a
    // float stored to an integer buffer converts the same way.
    type Conv = fn(f64) -> i64;
    let conversions: [(&'static str, &str, Conv); 3] = [
        (
            "(long) of a float saturates at the i64 range, NaN is 0",
            "(long)in[t]",
            |v| v as i64,
        ),
        (
            "(int) of a float saturates to i64 first, then keeps the low 32 bits",
            "(int)in[t]",
            |v| v as i64 as i32 as i64,
        ),
        (
            "a float stored to an integer buffer converts like (long)",
            "in[t]",
            |v| v as i64,
        ),
    ];
    for (rule_, expr, conv) in conversions {
        rules.push(rule(
            rule_,
            &format!(
                "__global__ void k(long* out, double* in) {{
                    int t = threadIdx.x;
                    out[t] = {expr};
                }}"
            ),
            16,
            vec![Buf::Zero(Scalar::I64, 16), Buf::F64(floats.clone())],
            Ok(()),
            Out::I64(floats.iter().map(|&v| conv(v)).collect()),
            "dense[",
        ));
    }
    // In place on lanes: thread `t` loads and stores `out[t]` in one dense
    // segment. A load past the end faults at lane 4 of the second chunk:
    // every thread below it has stored, none above.
    rules.push(rule(
        "an out-of-bounds in-place load faults at the lowest thread",
        "__global__ void k(long* out) {
            int t = threadIdx.x;
            out[t] = out[t] + 1;
        }",
        32,
        vec![Buf::I64((0..20).collect())],
        oob("out", 20, 20),
        Out::I64((1..21).collect()),
        "dense[",
    ));
    // A fault between an in-place load and its store: the threads below the
    // faulting one have stored, the faulting one and those above have not.
    let div: Vec<i64> = tids(16).map(|t| if t == 9 { 0 } else { t + 1 }).collect();
    rules.push(rule(
        "a division by zero between an in-place load and its store",
        "__global__ void k(long* out, long* in) {
            int t = threadIdx.x;
            long v = out[t];
            long w = 100 / in[t];
            out[t] = v + w;
        }",
        16,
        vec![Buf::I64(tids(16).map(|t| t * 10).collect()), Buf::I64(div)],
        Err(ExecError::DivByZero),
        Out::I64(
            tids(16)
                .map(|t| {
                    if t < 9 {
                        t * 10 + 100 / (t + 1)
                    } else {
                        t * 10
                    }
                })
                .collect(),
        ),
        "dense[",
    ));
    // Intra-block races (Hathhorn et al.'s cases), at 17 threads: one full
    // lane chunk plus one lane of a second. Threads run ascending, so the
    // last writer wins; in (b) thread 16 reads thread 0's new value.
    rules.push(rule(
        "race: write-write on one shared element, the last thread wins",
        "__global__ void k(long* out) {
            __shared__ long sh[1];
            int t = threadIdx.x;
            sh[0] = t;
            __syncthreads();
            out[t] = sh[0];
        }",
        17,
        vec![Buf::Zero(Scalar::I64, 17)],
        Ok(()),
        Out::I64(vec![16; 17]),
        "dense[0..2] bar dense[2..4]",
    ));
    rules.push(rule(
        "race: read-write in one segment, thread 16 reads thread 0's store",
        "__global__ void k(long* out) {
            __shared__ long sh[17];
            int t = threadIdx.x;
            sh[t] = t;
            __syncthreads();
            sh[t] = sh[(t + 1) % blockDim.x];
            __syncthreads();
            out[t] = sh[t];
        }",
        17,
        vec![Buf::Zero(Scalar::I64, 17)],
        Ok(()),
        Out::I64((1..17).chain([1]).collect()),
        "dense[0..2] bar scalar[2..6] bar dense[6..8]",
    ));
    rules
}

#[test]
fn oracle_table_holds_in_every_mode() {
    check_rules(oracle_rules());
}

/// Each row's kernel in every engine mode: the phases it must reach, the
/// oracle's result and memory, and its certificate and charging counts.
fn check_rules(rules: Vec<Rule>) {
    for r in rules {
        let k = cucc::ir::parse_kernel(&r.src).unwrap_or_else(|e| panic!("{}: {e}", r.rule));
        let launch = LaunchConfig::new(1u32, r.threads);
        let (pool, mut args) = pool_of(&r.bufs);
        args.extend(r.scalars.iter().cloned());
        let got = Program::compile(&k, launch, &args).unwrap().phase_summary();
        assert!(got.contains(r.phases), "{}: phases {got}", r.rule);

        let (ra, certs) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        assert_eq!(ra.clone().map(|_| ()), r.result, "{}", r.rule);
        // Every mode left the oracle's memory; hold that to the table.
        let mut after = pool.clone();
        let _ = execute_launch(&k, launch, &args, &mut after);
        let want: Vec<u8> = match &r.out {
            Out::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Out::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        };
        assert_eq!(after.bytes(BufferId(0)), &want[..], "{}: buffer 0", r.rule);
        if ["C: ", "mul-add", "race: "]
            .iter()
            .any(|p| r.rule.starts_with(p))
        {
            println!("{}: {:?}", r.rule, r.out);
        }
        if let Some(want) = r.certs {
            assert_eq!(certs, want, "{}: certified accesses", r.rule);
        }
        if let Some(want) = r.charged {
            let s = ra.as_ref().unwrap_or_else(|e| panic!("{}: {e:?}", r.rule));
            assert_eq!((s.float_ops, s.global_atomics), want, "{}: charges", r.rule);
        }
    }
}

/// The oracle table's rows written against the lane chunk, at the chunk
/// width itself: the intra-block races at one full chunk plus one lane of a
/// second, and the in-place load fault at lane 4 of the second chunk.
#[test]
fn chunk_boundary_rules_hold_in_every_mode() {
    let n = LANES as i64;
    let t = LANES as u32 + 1;
    check_rules(vec![
        rule(
            "race: write-write on one shared element across the chunk boundary",
            "__global__ void k(long* out) {
                __shared__ long sh[1];
                int t = threadIdx.x;
                sh[0] = t;
                __syncthreads();
                out[t] = sh[0];
            }",
            t,
            vec![Buf::Zero(Scalar::I64, t as usize)],
            Ok(()),
            Out::I64(vec![n; t as usize]),
            "dense[0..2] bar dense[2..4]",
        ),
        rule(
            "race: read-write across the chunk boundary, the last thread reads thread 0's store",
            &format!(
                "__global__ void k(long* out) {{
                    __shared__ long sh[{t}];
                    int t = threadIdx.x;
                    sh[t] = t;
                    __syncthreads();
                    sh[t] = sh[(t + 1) % blockDim.x];
                    __syncthreads();
                    out[t] = sh[t];
                }}"
            ),
            t,
            vec![Buf::Zero(Scalar::I64, t as usize)],
            Ok(()),
            Out::I64((1..=n).chain([1]).collect()),
            "dense[0..2] bar scalar[2..6] bar dense[6..8]",
        ),
        rule(
            "an in-place load past the end at lane 4 of the second chunk faults there",
            "__global__ void k(long* out) {
                int t = threadIdx.x;
                out[t] = out[t] + 1;
            }",
            2 * LANES as u32,
            vec![Buf::I64((0..n + 4).collect())],
            oob("out", n + 4, LANES + 4),
            Out::I64((1..n + 5).collect()),
            "dense[",
        ),
    ]);
}

// ---------------------------------------------------------------------------
// The row loops at their edges: one kernel per (operator, operand kinds)
// loop `op_full` specialises, at `LANES + 3` threads (a full chunk and a
// partial one), on operands that sit at the edges of each definition.
// ---------------------------------------------------------------------------

/// `threads` operand pairs: the `pinned` pairs first, then every value of
/// `edges` against a scattered partner.
fn edge_pairs<T: Copy>(edges: &[T], pinned: &[(T, T)], threads: usize) -> (Vec<T>, Vec<T>) {
    let n = edges.len();
    let rest = (0..).map(|t: usize| (edges[t % n], edges[(t * 11 + t * t / 7) % n]));
    pinned.iter().copied().chain(rest).take(threads).unzip()
}

/// Every specialised row loop against the oracle in every engine mode. The
/// kernel is `out[t] = <expr>` over int operands `ia`, `ib`, `ic`, the
/// nonzero divisors `id`, the divisors `iz` (zero at lane `LANES + 1`), and
/// float operands `fa`, `fb`, `fc`.
#[test]
fn row_loops_match_the_oracle_on_edge_values() {
    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    let threads = LANES + 3;
    let ints = [
        0,
        1,
        -1,
        2,
        -3,
        63,
        64,
        65,
        127,
        -64,
        200,
        MIN,
        MAX,
        MIN + 1,
        1 << 32,
        -(1 << 31),
        7,
    ];
    let int_pins = [
        (MIN, -1),
        (MIN, 1),
        (MAX, -1),
        (-1, 64),
        (1, 65),
        (-3, 127),
        (5, -1),
        (MIN, 63),
        (7, MIN),
        (-1, 200),
    ];
    let floats = [
        0.0,
        -0.0,
        1.5,
        -2.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -2.2e-308,
        1e300,
        3.5e38,
        -1.0,
        9.3e18,
        0.5,
        255.5,
        -0.75,
    ];
    let float_pins = [
        (f64::NAN, f64::NAN),
        (0.0, -0.0),
        (-0.0, 0.0),
        (f64::INFINITY, f64::NEG_INFINITY),
        (f64::INFINITY, f64::INFINITY),
        (f64::NEG_INFINITY, 0.0),
        (5e-324, 5e-324),
        (5e-324, -0.5),
        (1e300, 1e300),
        (f64::NAN, 1.0),
        (-2.2e-308, 1e-10),
    ];
    let (ia, ib) = edge_pairs(&ints, &int_pins, threads);
    let (fa, fb) = edge_pairs(&floats, &float_pins, threads);
    let ic: Vec<i64> = (0..threads)
        .map(|t| ints[(t * 5 + 3) % ints.len()])
        .collect();
    let fc: Vec<f64> = (0..threads)
        .map(|t| floats[(t * 5 + 3) % floats.len()])
        .collect();
    let id: Vec<i64> = ib.iter().map(|&b| if b == 0 { 3 } else { b }).collect();
    let mut iz = id.clone();
    iz[LANES + 1] = 0;

    // (expression, whether its value is a float)
    let mut cases: Vec<(String, bool)> = Vec::new();
    let kinds = [("ia", false), ("fa", true)];
    let pairs = [
        ("ia", "ib", false, false),
        ("fa", "fb", true, true),
        ("ia", "fb", false, true),
        ("fa", "ib", true, false),
    ];
    for (l, r, lf, rf) in pairs {
        for op in ["+", "-", "*", "/"] {
            let r = if r == "ib" && !lf { "id" } else { r };
            cases.push((format!("{l}[t] {op} {r}[t]"), lf || rf));
        }
        for op in ["<", "<=", ">", ">=", "==", "!=", "&&", "||"] {
            cases.push((format!("{l}[t] {op} {r}[t]"), false));
        }
        for f in ["powf", "fminf", "fmaxf", "min", "max"] {
            let float = lf || rf || !matches!(f, "min" | "max");
            cases.push((format!("{f}({l}[t], {r}[t])"), float));
        }
        for (c, cf) in kinds {
            let c = if c == "ia" { "ic" } else { "fc" };
            cases.push((format!("{l}[t] * {r}[t] + {c}[t]"), lf || rf || cf));
        }
    }
    for op in ["%", "&", "|", "^", "<<", ">>"] {
        let r = if op == "%" { "id" } else { "ib" };
        cases.push((format!("ia[t] {op} {r}[t]"), false));
    }
    // The zero divisor sits in the second chunk: the lanes below it commit.
    for op in ["/", "%"] {
        cases.push((format!("ia[t] {op} iz[t]"), false));
    }
    for (x, xf) in kinds {
        cases.push((format!("-{x}[t]"), xf));
        cases.push((format!("!{x}[t]"), false));
        for ty in ["uchar", "char", "int", "uint", "long", "float", "double"] {
            cases.push((format!("({ty}){x}[t]"), matches!(ty, "float" | "double")));
        }
        for f in [
            "expf", "logf", "sqrtf", "rsqrtf", "sinf", "cosf", "tanhf", "erff", "fabsf", "floorf",
            "ceilf", "abs",
        ] {
            cases.push((format!("{f}({x}[t])"), xf || f != "abs"));
        }
    }
    cases.push(("~ia[t]".to_string(), false));

    let bufs = || {
        vec![
            Buf::Zero(Scalar::I64, threads),
            Buf::I64(ia.clone()),
            Buf::I64(ib.clone()),
            Buf::I64(ic.clone()),
            Buf::I64(id.clone()),
            Buf::I64(iz.clone()),
            Buf::F64(fa.clone()),
            Buf::F64(fb.clone()),
            Buf::F64(fc.clone()),
        ]
    };
    for (expr, float) in &cases {
        let out = if *float { "double" } else { "long" };
        let k = cucc::ir::parse_kernel(&format!(
            "__global__ void k({out}* out, long* ia, long* ib, long* ic, long* id, long* iz,
                               double* fa, double* fb, double* fc) {{
                int t = threadIdx.x;
                out[t] = {expr};
            }}"
        ))
        .unwrap_or_else(|e| panic!("{expr}: {e}"));
        let launch = LaunchConfig::new(1u32, threads as u32);
        let (pool, args) = pool_of(&bufs());
        let phases = Program::compile(&k, launch, &args).unwrap().phase_summary();
        // `&&` and `||` short-circuit: they branch, so their lanes diverge.
        let lanes = ["dense[", "pred["].iter().any(|p| phases.starts_with(p));
        assert!(lanes && !phases.contains(' '), "{expr}: {phases}");
        let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
        let faults = expr.contains("iz");
        assert_eq!(ra.is_err(), faults, "{expr}: {ra:?}");
    }
    println!("{} row-loop cases at {threads} threads", cases.len());
}

// ---------------------------------------------------------------------------
// The masked path. Under a partial active set a register op runs its row
// loop on every lane of the chunk and its row store writes the active lanes
// only; the ops that can fault step per active lane; loop control is one
// pass over the loop's rows. Each test runs one block of `LANES + 3` threads
// (a full chunk and a 3-lane one) in every engine mode, and checks that the
// stats charge the lanes that did the work and no other.
// ---------------------------------------------------------------------------

/// `src` over one block of `LANES + 3` threads on `bufs`, held to the oracle
/// in every engine mode. Its phases must contain `phases`. Returns the
/// oracle's stats and the final bytes of each buffer.
fn masked_run(src: &str, bufs: &[Buf], phases: &str) -> (BlockStats, Vec<Vec<u8>>) {
    let k = cucc::ir::parse_kernel(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let launch = LaunchConfig::new(1u32, (LANES + 3) as u32);
    let (pool, args) = pool_of(bufs);
    let prog = Program::compile(&k, launch, &args).unwrap();
    assert!(
        prog.phase_summary().contains(phases),
        "{}",
        prog.phase_summary()
    );
    let (ra, _) = assert_exact_in_every_mode(&k, launch, &args, &pool);
    let mut mem = pool.clone();
    assert_eq!(execute_launch(&k, launch, &args, &mut mem), ra);
    let bytes = args.iter().map(|a| match a {
        Arg::Buffer(b) => mem.bytes(*b).to_vec(),
        Arg::Scalar(_) => unreachable!("`pool_of` binds buffers only"),
    });
    (ra.expect("the kernel does not fault"), bytes.collect())
}

/// Little-endian 8-byte words.
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
}

/// Thread `t` of these runs does `base + Σₖ cₖ(t) · unitₖ` work, for counts
/// `cₖ(t)` (branch entries or loop trips) that are 0 in `none`. A unit is
/// `(run, all, mixed)`: in `run` count `k` sums to `all` over the threads and
/// every other count is 0, and in `mixed` it sums to `mixed`. Every counter
/// of `mixed` must then be `none`'s plus those units: work charged to the
/// lanes that did it, and to no other.
fn assert_charged_per_lane(
    none: &BlockStats,
    units: &[(&BlockStats, u64, u64)],
    mixed: &BlockStats,
) {
    type Counter = (&'static str, fn(&BlockStats) -> u64);
    let counters: [Counter; 12] = [
        ("int_ops", |s| s.int_ops),
        ("float_ops", |s| s.float_ops),
        ("global_read_bytes", |s| s.global_read_bytes),
        ("global_write_bytes", |s| s.global_write_bytes),
        ("global_loads", |s| s.global_loads),
        ("global_stores", |s| s.global_stores),
        ("shared_bytes", |s| s.shared_bytes),
        ("local_bytes", |s| s.local_bytes),
        ("global_atomics", |s| s.global_atomics),
        ("barriers", |s| s.barriers),
        ("active_threads", |s| s.active_threads),
        ("blocks", |s| s.blocks),
    ];
    // Scaled by the product of the `all` sums, so every unit is whole.
    let scale: i128 = units.iter().map(|u| u.1 as i128).product();
    for (name, f) in counters {
        let (n, m) = (f(none) as i128, f(mixed) as i128);
        let added: i128 = units
            .iter()
            .map(|&(a, all, sum)| (f(a) as i128 - n) * sum as i128 * (scale / all as i128))
            .sum();
        assert_eq!(
            m * scale,
            n * scale + added,
            "{name}: none {n}, mixed {m}, units (run, all, mixed) {:?}",
            units
                .iter()
                .map(|&(a, all, sum)| (f(a), all, sum))
                .collect::<Vec<_>>()
        );
    }
}

/// The instruction variants of the first `if` body inside a loop, read from
/// the program's listing: the span from the `JumpIfFalse` that follows the
/// first `ForInit` to that jump's target.
fn if_body_in_loop(prog: &Program) -> Vec<String> {
    let listing = format!("{prog:?}");
    let code = &listing[listing.find("code: [").unwrap() + 7..listing.find("], phases").unwrap()];
    let insts: Vec<&str> = code.split("}, ").collect();
    let name = |s: &str| s.split([' ', '{']).next().unwrap().trim().to_string();
    let init = insts.iter().position(|s| s.starts_with("ForInit")).unwrap();
    let jf = init
        + insts[init..]
            .iter()
            .position(|s| s.starts_with("JumpIfFalse"))
            .unwrap();
    let target: usize = insts[jf]
        .split("target: ")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    insts[jf + 1..target].iter().map(|s| name(s)).collect()
}

/// A data-dependent `if` inside a loop whose body runs every register-op
/// class — `Const`, `Copy`, `Unary`, `Binary`, `Cast`, `Intrin1`,
/// `Intrin2`, `MulAdd`, `Test` — under a partial mask, on operands that
/// include NaN, infinities and signed zeros.
#[test]
fn masked_register_ops_match_the_oracle_and_charge_active_lanes() {
    let src = "__global__ void k(double* out, long* iout, long* sel, double* x) {
        int t = threadIdx.x;
        double acc = 0.0;
        long ia = 0;
        for (int i = 0; i < 3; i++) {
            double v = x[t] + i;
            long s = sel[t * 3 + i];
            if (s > 0) {
                double c = 2.5;
                double d = v;
                double n = -d;
                long b = s ^ i;
                double f = (double)b;
                double r = sqrtf(fabsf(n));
                double p = fminf(r, c);
                acc = d * f + p;
                ia = ia + ((s > 0) && (n < 0.0)) + ((s < 0) || d);
            }
        }
        out[t] = acc;
        iout[t] = ia;
    }";
    let threads = LANES + 3;
    let edges = [
        0.0,
        -0.0,
        1.5,
        -2.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        1e300,
        -7.25,
    ];
    let x: Vec<f64> = (0..threads).map(|t| edges[(t * 7) % edges.len()]).collect();
    let sel = |on: &dyn Fn(usize, usize) -> bool| -> Vec<i64> {
        (0..threads * 3)
            .map(|j| {
                if on(j / 3, j % 3) {
                    (j % 11) as i64 + 1
                } else {
                    -((j % 5) as i64)
                }
            })
            .collect()
    };
    let bufs = |sel: Vec<i64>| {
        vec![
            Buf::Zero(Scalar::F64, threads),
            Buf::Zero(Scalar::I64, threads),
            Buf::I64(sel),
            Buf::F64(x.clone()),
        ]
    };
    // Some lanes in every iteration, in both chunks, and in the third
    // iteration every lane of the first chunk (the converged path).
    let on = |t: usize, i: usize| (t * 5 + i * 3) % 7 < 3 || (i == 2 && t < LANES);
    let mixed_sum = (0..threads)
        .flat_map(|t| (0..3).map(move |i| (t, i)))
        .filter(|&(t, i)| on(t, i))
        .count() as u64;
    let (_, args) = pool_of(&bufs(sel(&on)));
    let k = cucc::ir::parse_kernel(src).unwrap();
    let prog = Program::compile(&k, LaunchConfig::new(1u32, threads as u32), &args).unwrap();
    let body = if_body_in_loop(&prog);
    for class in [
        "Const", "Copy", "Unary", "Binary", "Cast", "Intrin1", "Intrin2", "MulAdd", "Test",
    ] {
        assert!(
            body.iter().any(|b| b == class),
            "no `{class}` in the masked body: {body:?}"
        );
    }

    let (none, _) = masked_run(src, &bufs(sel(&|_, _| false)), "pred[");
    let (all, _) = masked_run(src, &bufs(sel(&|_, _| true)), "pred[");
    let (mixed, _) = masked_run(src, &bufs(sel(&on)), "pred[");
    assert_charged_per_lane(&none, &[(&all, 3 * threads as u64, mixed_sum)], &mixed);
}

/// Inactive lanes whose operands would misbehave if a masked op ran on
/// them — a zero int divisor, a NaN and an out-of-range shift count — raise
/// no fault, and the registers of those lanes keep what they held.
#[test]
fn inactive_lanes_with_faulting_operands_neither_fault_nor_change() {
    let src = "__global__ void k(long* q, long* r, long* s, long* c, double* h,
                                 long* num, long* den, long* sh, double* x) {
        int t = threadIdx.x;
        long qt = 1000 + t;
        long rt = 2000 + t;
        long st = 3000 + t;
        long ct = 4000 + t;
        double ht = 0.5 + t;
        long d = den[t];
        long w = sh[t];
        double v = x[t];
        if (d != 0) {
            qt = num[t] / d;
            rt = num[t] % d;
            st = num[t] << w;
            ct = (long)(v * 2.0);
            ht = v / 3.0;
        }
        q[t] = qt;
        r[t] = rt;
        s[t] = st;
        c[t] = ct;
        h[t] = ht;
    }";
    let threads = LANES + 3;
    let num: Vec<i64> = (0..threads as i64).map(|t| t * 37 - 900).collect();
    let active = |t: usize| (t * 3) % 5 < 2;
    let inputs = |on: &dyn Fn(usize) -> bool| {
        let pick = |t: usize, good: i64, bad: i64| if on(t) { good } else { bad };
        let den = (0..threads).map(|t| pick(t, t as i64 % 9 + 1, 0)).collect();
        let sh = (0..threads)
            .map(|t| pick(t, t as i64 % 13, [64, 70, -1, 1 << 40][t % 4]))
            .collect();
        let x = (0..threads)
            .map(|t| {
                if on(t) {
                    t as f64 * 1.25 - 30.0
                } else {
                    f64::NAN
                }
            })
            .collect();
        vec![
            Buf::Zero(Scalar::I64, threads),
            Buf::Zero(Scalar::I64, threads),
            Buf::Zero(Scalar::I64, threads),
            Buf::Zero(Scalar::I64, threads),
            Buf::Zero(Scalar::F64, threads),
            Buf::I64(num.clone()),
            Buf::I64(den),
            Buf::I64(sh),
            Buf::F64(x),
        ]
    };
    let (mixed, mem) = masked_run(src, &inputs(&active), "pred[");
    let out: Vec<Vec<u64>> = mem.iter().map(|b| words(b).collect()).collect();
    for t in (0..threads).filter(|&t| !active(t)) {
        let kept = [1000, 2000, 3000, 4000].map(|b| (b + t as i64) as u64);
        for (o, want) in out.iter().zip(kept) {
            assert_eq!(o[t], want, "thread {t}");
        }
        assert_eq!(out[4][t], (0.5 + t as f64).to_bits(), "thread {t}");
    }
    let (none, _) = masked_run(src, &inputs(&|_| false), "pred[");
    let (all, _) = masked_run(src, &inputs(&|_| true), "pred[");
    let n_active = (0..threads).filter(|&t| active(t)).count() as u64;
    assert_charged_per_lane(&none, &[(&all, threads as u64, n_active)], &mixed);
}

/// Loops on the lanes' rows: a per-lane trip count with a negative step
/// entered by some lanes only, a `float` loop variable with a per-lane
/// bound, both variables read after their loops, and a loop only one lane
/// enters (the lone-lane path). Thread `t` runs the first loop `gate · c₁`
/// times and the second `c₂` times.
#[test]
fn loops_with_per_lane_trips_negative_steps_and_float_variables() {
    let src = "__global__ void k(double* out, long* lo, long* n, long* gate, long* solo) {
        int t = threadIdx.x;
        double acc = 0.25;
        long i = 100 + t;
        if (gate[t] != 0) {
            for (i = lo[t]; i > -4; i -= 3) {
                acc = acc * 0.5 + i;
            }
        }
        float f = 0.5;
        for (f = 0; f < n[t]; f++) {
            acc = acc + f * 1.5;
        }
        if (solo[t] != 0) {
            for (int j = 0; j < 4; j++) acc = acc - j;
        }
        out[t] = acc + i + f;
    }";
    let threads = LANES + 3;
    type Count<'a> = &'a dyn Fn(usize) -> i64;
    let inputs = |gate: Count, c1: Count, c2: Count| {
        // `lo = 3c - 6` runs `i > -4; i -= 3` exactly `c` times.
        let lo = (0..threads).map(|t| 3 * c1(t) - 6).collect();
        let solo = (0..threads).map(|t| i64::from(t == LANES + 1)).collect();
        vec![
            Buf::Zero(Scalar::F64, threads),
            Buf::I64(lo),
            Buf::I64((0..threads).map(c2).collect()),
            Buf::I64((0..threads).map(gate).collect()),
            Buf::I64(solo),
        ]
    };
    let gate = |t: usize| i64::from(t % 5 != 3);
    let c1 = |t: usize| ((t * 7) % 6) as i64;
    let c2 = |t: usize| ((t * 5 + 2) % 7) as i64;
    let (zero, three) = (|_| 0, |_| 3);
    let (none, _) = masked_run(src, &inputs(&gate, &zero, &zero), "pred[");
    let (all1, _) = masked_run(src, &inputs(&gate, &three, &zero), "pred[");
    let (all2, _) = masked_run(src, &inputs(&gate, &zero, &three), "pred[");
    let (mixed, mem) = masked_run(src, &inputs(&gate, &c1, &c2), "pred[");
    let gated = (0..threads).map(|t| gate(t) as u64).sum::<u64>();
    let sum1 = (0..threads).map(|t| (gate(t) * c1(t)) as u64).sum();
    let sum2 = (0..threads).map(|t| c2(t) as u64).sum();
    let units = [(&all1, 3 * gated, sum1), (&all2, 3 * threads as u64, sum2)];
    assert_charged_per_lane(&none, &units, &mixed);
    // A lane that skipped the first loop kept its `i`; every lane's `f`
    // took each count converted to `float`.
    for (t, got) in words(&mem[0]).enumerate() {
        let mut acc = 0.25f64;
        let mut i = 100 + t as i64;
        if gate(t) != 0 {
            i = 3 * c1(t) - 6;
            while i > -4 {
                acc = acc * 0.5 + i as f64;
                i -= 3;
            }
        }
        let mut f = 0i64;
        while f < c2(t) {
            acc += (f as f32 as f64) * 1.5;
            f += 1;
        }
        if t == LANES + 1 {
            acc -= 6.0;
        }
        let want = acc + i as f64 + f as f32 as f64;
        assert_eq!(got, want.to_bits(), "thread {t}");
    }
}

// ---------------------------------------------------------------------------
// Pooled subtrees. A subtree that reads no variable and no memory and cannot
// fault is computed outside the chunk loop — a launch constant once per run,
// one of `blockIdx` and launch values once per block, one of `threadIdx` and
// launch values once per thread — and the instruction that reads its
// register charges its ops each time it runs. Each kernel runs 3 blocks of
// `LANES + 3` threads, so every block splats a different `blockIdx` and the
// second chunk is 3 lanes wide.
// ---------------------------------------------------------------------------

/// `src` (`long* out, long* in, int n` first, `n` = 5) over 3 blocks of
/// `LANES + 3` threads, held to the oracle in every engine mode; its phases
/// must contain `phases`, and it must pool a block- and a thread-invariant
/// subtree. Returns the oracle's result.
fn pooled_run(src: &str, phases: &str) -> Outcome {
    let k = cucc::ir::parse_kernel(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let threads = LANES + 3;
    let launch = LaunchConfig::new(3u32, threads as u32);
    let ins: Vec<i64> = (0..3 * threads as i64).map(|i| (i * 37) % 11 - 3).collect();
    let (pool, mut args) = pool_of(&[Buf::Zero(Scalar::I64, 9 * threads), Buf::I64(ins)]);
    args.push(Arg::int(5));
    let prog = Program::compile(&k, launch, &args).unwrap();
    let summary = prog.phase_summary();
    assert!(summary.contains(phases), "{summary}\n{src}");
    assert!(
        !prog.block_pool().is_empty() && !prog.thread_pool().is_empty(),
        "nothing pooled: {src}"
    );
    assert_exact_in_every_mode(&k, launch, &args, &pool).0
}

#[test]
fn pooled_subtrees_match_the_oracle_where_they_are_read() {
    let cases = [
        // Under a divergent `if`.
        (
            "pred[",
            "__global__ void k(long* out, long* in, int n) {
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                if (in[g] % 3 == 1) {
                    out[g] = (blockIdx.x * 5 + 3) * 100 + (threadIdx.x * 3 + 1)
                        + (long)(sqrtf((float)threadIdx.x) * 8.0f + (float)blockIdx.x * 0.5f);
                }
            }",
        ),
        // In a `for` body: charged once per iteration.
        (
            "pred[",
            "__global__ void k(long* out, long* in, int n) {
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                long acc = 0;
                for (int j = 0; j < in[g] + 4; j++) {
                    acc = acc + j * (blockIdx.x * 5 + 3) + (threadIdx.x ^ 5);
                }
                out[g] = acc;
            }",
        ),
        // After an early `return`.
        (
            "pred[",
            "__global__ void k(long* out, long* in, int n) {
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                if (in[g] % 4 == 0) return;
                out[g] = (blockIdx.x * 7 - 2) * (threadIdx.x * 2 + 1) - (blockIdx.x << 3);
            }",
        ),
        // In a thread-major segment (a store in a loop body).
        (
            "scalar[",
            "__global__ void k(long* out, long* in, int n) {
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                for (int j = 0; j < 3; j++) {
                    out[g * 3 + j] = j + (blockIdx.x * 5 + 1) * 1000 + threadIdx.x * 3 + in[g];
                }
            }",
        ),
        // On both sides of `__syncthreads()`.
        (
            " bar ",
            "__global__ void k(long* out, long* in, int n) {
                __shared__ long tile[67];
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                tile[threadIdx.x] = in[g] + blockIdx.x * 11 + (threadIdx.x * 2 - 1);
                __syncthreads();
                out[g] = tile[(threadIdx.x + 1) % 67] * (blockIdx.x * 3 + 1) + (threadIdx.x * 2 - 1);
            }",
        ),
        // A charged launch constant beside block- and thread-invariant ones.
        (
            "pred[",
            "__global__ void k(long* out, long* in, int n) {
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                if (g < n * 40) out[g] = in[g] * (n * 4) + (n * 4 > 10 ? 1 : 2)
                    + (blockIdx.x + 1) * (threadIdx.x + 1);
            }",
        ),
    ];
    for (phases, src) in cases {
        let ra = pooled_run(src, phases);
        assert!(ra.is_ok(), "{ra:?}\n{src}");
    }
}

/// `in[g] / blockIdx.x` faults in block 0, at its first thread's division,
/// after every thread of the block stored before the barrier; `n /
/// blockIdx.x` reads no variable, yet a division is never pooled, so it
/// faults at thread 5, the first to take its arm, after threads 0..4 stored.
/// The error and the memory are the oracle's. (Block 0 faults, so a chunked
/// run's later blocks commit stores the oracle never makes; only its error
/// is held.)
#[test]
fn pooled_divisor_faults_where_the_oracle_does() {
    for tail in [
        "in[g] / blockIdx.x",
        "threadIdx.x < 5 ? in[g] : n / blockIdx.x",
    ] {
        let src = format!(
            "__global__ void k(long* out, long* in, int n) {{
                int g = blockIdx.x * blockDim.x + threadIdx.x;
                out[g] = in[g] + blockIdx.x * 7 + threadIdx.x * 2;
                __syncthreads();
                out[g] = {tail};
            }}"
        );
        let k = cucc::ir::parse_kernel(&src).unwrap();
        validate(&k).unwrap();
        let threads = LANES + 3;
        let launch = LaunchConfig::new(3u32, threads as u32);
        let (pool, mut args) = pool_of(&[
            Buf::Zero(Scalar::I64, 3 * threads),
            Buf::I64((1..=3 * threads as i64).collect()),
        ]);
        args.push(Arg::int(5));
        let mut pool_a = pool.clone();
        let ra = execute_launch(&k, launch, &args, &mut pool_a);
        assert_eq!(ra, Err(ExecError::DivByZero), "{tail}");
        let plain = Program::compile(&k, launch, &args).unwrap();
        let exts = global_extents(&plain, |b| Some(pool.size_of(b)));
        for mode in [None, Some(CertMode::Elide), Some(CertMode::Validate)] {
            let mut prog = plain.clone();
            if let Some(mode) = mode {
                certify_program(&mut prog, &exts, mode);
            }
            for (what, prog) in variants(&prog) {
                let what = format!("{tail}: {what}, {mode:?}");
                let mut pool_b = pool.clone();
                let rb = run_range(&prog, &mut pool_b, 0..launch.num_blocks());
                assert_eq!(ra, rb, "{what}");
                assert!(pool_a == pool_b, "{what}: memory diverged");
                let par = run_range_parallel(&prog, &mut pool.clone(), 0..launch.num_blocks(), 4);
                assert_eq!(ra, par, "{what}, 4 workers");
            }
        }
    }
}
