//! Round-trip property tests for the mini-CUDA front-end: for randomly
//! *constructed* kernels, `parse(print(k))` must execute identically to
//! `k`, and printing must be idempotent (`print(parse(print(k))) ==
//! print(k)`).

use cucc::exec::{execute_launch, Arg, MemPool};
use cucc::ir::printer::print_kernel;
use cucc::ir::{parse_kernel, validate, Expr, KernelBuilder, LaunchConfig, MemRef, Scalar, VarId};
use proptest::prelude::*;

/// Recipe for one random statement.
#[derive(Debug, Clone)]
enum StmtRecipe {
    Let(ExprRecipe),
    Store(ExprRecipe, ExprRecipe),
    If(ExprRecipe, Vec<StmtRecipe>),
    For(u8, Vec<StmtRecipe>),
}

/// Recipe for one random integer expression over the ambient context.
#[derive(Debug, Clone)]
enum ExprRecipe {
    Const(i64),
    Tid,
    Bid,
    Param,
    Var(u8),
    Add(Box<ExprRecipe>, Box<ExprRecipe>),
    Sub(Box<ExprRecipe>, Box<ExprRecipe>),
    Mul(Box<ExprRecipe>, Box<ExprRecipe>),
    Lt(Box<ExprRecipe>, Box<ExprRecipe>),
    Select(Box<ExprRecipe>, Box<ExprRecipe>, Box<ExprRecipe>),
}

fn expr_recipe() -> impl Strategy<Value = ExprRecipe> {
    let leaf = prop_oneof![
        (-9i64..10).prop_map(ExprRecipe::Const),
        Just(ExprRecipe::Tid),
        Just(ExprRecipe::Bid),
        Just(ExprRecipe::Param),
        (0u8..4).prop_map(ExprRecipe::Var),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprRecipe::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprRecipe::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprRecipe::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprRecipe::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| ExprRecipe::Select(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn stmt_recipe() -> impl Strategy<Value = StmtRecipe> {
    let leaf = prop_oneof![
        expr_recipe().prop_map(StmtRecipe::Let),
        (expr_recipe(), expr_recipe()).prop_map(|(i, v)| StmtRecipe::Store(i, v)),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            (expr_recipe(), prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(c, b)| StmtRecipe::If(c, b)),
            (1u8..4, prop::collection::vec(inner, 1..3)).prop_map(|(n, b)| StmtRecipe::For(n, b)),
        ]
    })
}

/// Materialize recipes into a real kernel. All stores are masked into the
/// output buffer with a final `% LEN` guard... but `%` breaks nothing here
/// since we only check round-trip + execution equivalence.
fn build_kernel(stmts: &[StmtRecipe]) -> cucc::ir::Kernel {
    const LEN: i64 = 256;
    let mut b = KernelBuilder::new("rnd");
    let out = b.buffer("out", Scalar::I64);
    let p = b.scalar("p", Scalar::I32);
    // A pool of pre-defined variables the recipes may read.
    let vars: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("v{i}"), Expr::int(i as i64 + 1)))
        .collect();

    fn expr(r: &ExprRecipe, p: &Expr, vars: &[VarId]) -> Expr {
        match r {
            ExprRecipe::Const(v) => Expr::int(*v),
            ExprRecipe::Tid => Expr::ThreadIdx(cucc::ir::Axis::X),
            ExprRecipe::Bid => Expr::BlockIdx(cucc::ir::Axis::X),
            ExprRecipe::Param => p.clone(),
            ExprRecipe::Var(i) => Expr::Var(vars[*i as usize % vars.len()]),
            ExprRecipe::Add(a, c) => expr(a, p, vars).add(expr(c, p, vars)),
            ExprRecipe::Sub(a, c) => expr(a, p, vars).sub(expr(c, p, vars)),
            ExprRecipe::Mul(a, c) => expr(a, p, vars).mul(expr(c, p, vars)),
            ExprRecipe::Lt(a, c) => expr(a, p, vars).lt(expr(c, p, vars)),
            ExprRecipe::Select(c, a, d) => Expr::Select {
                cond: Box::new(expr(c, p, vars)),
                then_value: Box::new(expr(a, p, vars)),
                else_value: Box::new(expr(d, p, vars)),
            },
        }
    }

    fn emit(
        b: &mut KernelBuilder,
        stmts: &[StmtRecipe],
        out: MemRef,
        p: &Expr,
        vars: &[VarId],
        fresh: &mut u32,
    ) {
        for s in stmts {
            match s {
                StmtRecipe::Let(e) => {
                    let name = format!("t{}", *fresh);
                    *fresh += 1;
                    b.let_(name, expr(e, p, vars));
                }
                StmtRecipe::Store(i, v) => {
                    // Mask the index into range with a (non-affine) modulo:
                    // index = ((i % LEN) + LEN) % LEN.
                    let raw = expr(i, p, vars);
                    let idx = raw
                        .rem(Expr::int(LEN))
                        .add(Expr::int(LEN))
                        .rem(Expr::int(LEN));
                    b.store(out, idx, expr(v, p, vars));
                }
                StmtRecipe::If(c, body) => {
                    let cond = expr(c, p, vars);
                    // Borrow-friendly: build nested statements directly.
                    b.if_then(cond, |b| emit(b, body, out, p, vars, fresh));
                }
                StmtRecipe::For(n, body) => {
                    let name = format!("i{}", *fresh);
                    *fresh += 1;
                    b.for_range(name, Expr::int(*n as i64), |b, _i| {
                        emit(b, body, out, p, vars, fresh)
                    });
                }
            }
        }
    }

    let mut fresh = 0;
    let stmts_vec = stmts.to_vec();
    emit(&mut b, &stmts_vec, out, &p, &vars, &mut fresh);
    b.finish()
}

fn run(k: &cucc::ir::Kernel) -> Vec<u8> {
    let mut pool = MemPool::new();
    let out = pool.alloc_elems(Scalar::I64, 256);
    execute_launch(
        k,
        LaunchConfig::new(3u32, 8u32),
        &[Arg::Buffer(out), Arg::int(5)],
        &mut pool,
    )
    .expect("random kernels are total (no div, masked indices)");
    pool.bytes(out).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// parse(print(k)) executes identically to k.
    #[test]
    fn print_parse_execution_equivalence(recipes in prop::collection::vec(stmt_recipe(), 1..6)) {
        let k = build_kernel(&recipes);
        validate(&k).expect("generated kernels are valid");
        let printed = print_kernel(&k);
        let reparsed = parse_kernel(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        validate(&reparsed).unwrap();
        prop_assert_eq!(run(&k), run(&reparsed), "printed form:\n{}", printed);
    }

    /// Printing is idempotent across one parse round trip.
    #[test]
    fn print_is_idempotent(recipes in prop::collection::vec(stmt_recipe(), 1..6)) {
        let k = build_kernel(&recipes);
        let p1 = print_kernel(&k);
        let k2 = parse_kernel(&p1).unwrap();
        let p2 = print_kernel(&k2);
        prop_assert_eq!(&k.var_types, &k2.var_types);
        prop_assert_eq!(p1, p2);
    }
}

/// Declared types and C's conversions survive the printer: a cross-kind
/// assignment, a compound one and a mixed `?:`, built both ways. Print →
/// parse → print is a fixed point, the declared types are equal, and the
/// reparsed kernel computes the same values.
#[test]
fn conversions_round_trip() {
    let src = "__global__ void k(double* out) {
        int t = threadIdx.x;
        float x = 0.5f;
        x = t;
        int j = t * 1.5f;
        j += 0.5f;
        out[t] = ((t & 1) ? 7 : 2.5f) / 2 + x / 2 + j;
    }";
    let mut b = KernelBuilder::new("k");
    let out = b.buffer("out", Scalar::F64);
    let t = b.var("t", Scalar::I32);
    b.assign(t, Expr::ThreadIdx(cucc::ir::Axis::X));
    let x = b.var("x", Scalar::F32);
    b.assign(x, Expr::Var(t));
    let j = b.var("j", Scalar::I32);
    b.assign(j, Expr::Var(t).mul(Expr::float(1.5)));
    let sel = Expr::Select {
        cond: Box::new(Expr::bin(cucc::ir::BinOp::And, Expr::Var(t), Expr::int(1))),
        then_value: Box::new(Expr::int(7)),
        else_value: Box::new(Expr::float(2.5)),
    };
    let value = sel
        .div(Expr::int(2))
        .add(Expr::Var(x).div(Expr::int(2)))
        .add(Expr::Var(j));
    b.store(out, Expr::Var(t), value);
    let run = |k: &cucc::ir::Kernel| {
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::F64, 8);
        execute_launch(
            k,
            LaunchConfig::new(1u32, 8u32),
            &[Arg::Buffer(out)],
            &mut pool,
        )
        .unwrap();
        pool.read_f64(out)
    };
    for k in [parse_kernel(src).unwrap(), b.finish()] {
        validate(&k).unwrap();
        assert_eq!(k.var_types, [Scalar::I32, Scalar::F32, Scalar::I32]);
        let p1 = print_kernel(&k);
        let k2 = parse_kernel(&p1).unwrap_or_else(|e| panic!("{e}\n{p1}"));
        validate(&k2).unwrap();
        assert_eq!(k2.var_types, k.var_types, "{p1}");
        assert_eq!(print_kernel(&k2), p1);
        assert_eq!(run(&k2), run(&k), "{p1}");
    }
}
