//! Property tests of the elastic cluster state (ISSUE 8): checkpoint →
//! restore → continue is bit-identical to the uninterrupted run, kill +
//! join sequences recover memory bit-identical to the fault-free run, and
//! a checkpoint restores into a *different* node count with the same
//! bytes a fresh run at that shape produces.

use cucc::cluster::ClusterSpec;
use cucc::core::{
    compile_source, Checkpoint, CompiledKernel, CuccCluster, FaultPlan, GraphCapture, RunOptions,
    RuntimeConfig,
};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use proptest::prelude::*;

const SAXPY: &str = "__global__ void f(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

fn seeded(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
    let ys = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
    (xs, ys)
}

fn cluster(nodes: u32, faults: FaultPlan) -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    )
}

fn saxpy_args(x: cucc::exec::BufferId, y: cucc::exec::BufferId, n: usize) -> Vec<Arg> {
    vec![
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(1.5),
        Arg::int(n as i64),
    ]
}

/// Upload `xs`/`ys` into a fresh cluster and return it with the handles.
fn loaded(
    nodes: u32,
    faults: FaultPlan,
    xs: &[f32],
    ys: &[f32],
) -> (CuccCluster, cucc::exec::BufferId, cucc::exec::BufferId) {
    let mut cl = cluster(nodes, faults);
    let x = cl.alloc(xs.len() * 4);
    let y = cl.alloc(ys.len() * 4);
    cl.upload::<f32>(x, xs).unwrap();
    cl.upload::<f32>(y, ys).unwrap();
    (cl, x, y)
}

fn launch_twice_reference(
    ck: &CompiledKernel,
    nodes: u32,
    launch: LaunchConfig,
    xs: &[f32],
    ys: &[f32],
    n: usize,
) -> (Vec<u8>, f64) {
    let (mut cl, x, y) = loaded(nodes, FaultPlan::none(), xs, ys);
    let args = saxpy_args(x, y, n);
    cl.launch(ck, launch, &args).unwrap();
    // Mirror the checkpointed run's quiesce barrier so the clocks of the
    // two histories stay comparable bit-for-bit.
    cl.synchronize().unwrap();
    cl.launch(ck, launch, &args).unwrap();
    (cl.download::<u8>(y).unwrap(), cl.clock())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpoint → serialize → decode → restore → continue reproduces the
    /// uninterrupted run bit-for-bit: same memory, same simulated clock.
    #[test]
    fn checkpoint_restore_continue_is_bit_identical(
        n in 256usize..4000,
        nodes in 1u32..6,
        block in prop::sample::select(vec![64u32, 128, 256]),
        seed in any::<u64>(),
    ) {
        let ck = compile_source(SAXPY).unwrap();
        let (xs, ys) = seeded(seed, n);
        let launch = LaunchConfig::cover1(n as u64, block);
        let (reference, ref_clock) =
            launch_twice_reference(&ck, nodes, launch, &xs, &ys, n);

        let (mut cl, x, y) = loaded(nodes, FaultPlan::none(), &xs, &ys);
        let args = saxpy_args(x, y, n);
        cl.launch(&ck, launch, &args).unwrap();
        // Round-trip through the on-disk byte format, not just the struct.
        let image = cl.checkpoint().unwrap().encode();
        drop(cl); // the original process is gone
        let ckpt = Checkpoint::decode(&image).unwrap();
        let mut restored = CuccCluster::restore(
            ClusterSpec::simd_focused().with_nodes(nodes),
            RuntimeConfig::default(),
            &ckpt,
        ).unwrap();
        restored.launch(&ck, launch, &args).unwrap();
        prop_assert_eq!(restored.download::<u8>(y).unwrap(), reference,
            "restored continuation diverged from the uninterrupted run");
        prop_assert_eq!(restored.clock().to_bits(), ref_clock.to_bits(),
            "restored clock diverged from the uninterrupted run");
    }

    /// A kill followed by a rejoin of the same node recovers memory
    /// bit-identical to the fault-free run, and the cluster returns to its
    /// original shape (every node alive, epoch advanced twice).
    #[test]
    fn kill_then_join_recovers_bit_identical_memory(
        n in 256usize..4000,
        nodes in 2u32..6,
        block in prop::sample::select(vec![64u32, 128, 256]),
        victim in 0u32..8,
        kill_t in prop::sample::select(vec![0.0f64, 1e-7, 1e-5]),
        seed in any::<u64>(),
    ) {
        let victim = victim % nodes;
        let ck = compile_source(SAXPY).unwrap();
        let (xs, ys) = seeded(seed, n);
        let launch = LaunchConfig::cover1(n as u64, block);

        let (mut clean, cx, cy) = loaded(nodes, FaultPlan::none(), &xs, &ys);
        let clean_args = saxpy_args(cx, cy, n);
        clean.launch(&ck, launch, &clean_args).unwrap();
        clean.launch(&ck, launch, &clean_args).unwrap();
        let reference = clean.download::<u8>(cy).unwrap();

        let plan = FaultPlan::none().kill(victim, kill_t).join(victim, kill_t);
        let (mut cl, x, y) = loaded(nodes, plan, &xs, &ys);
        let args = saxpy_args(x, y, n);
        cl.launch(&ck, launch, &args).unwrap();
        // The second launch boundary readmits the victim (a node that died
        // mid-launch rejoins at the next boundary).
        cl.launch(&ck, launch, &args).unwrap();
        prop_assert!(cl.is_alive(victim as usize), "join must revive the victim");
        prop_assert_eq!(cl.active_nodes(), nodes as usize);
        prop_assert_eq!(cl.download::<u8>(y).unwrap(), reference,
            "kill+join run diverged from the fault-free run");
    }

    /// A checkpoint restores into a *different* node count and the
    /// continued run matches a fresh run at that shape bit-for-bit.
    #[test]
    fn restore_into_different_shape_matches_fresh_run(
        n in 256usize..4000,
        from in 1u32..6,
        to in 1u32..6,
        block in prop::sample::select(vec![64u32, 128, 256]),
        seed in any::<u64>(),
    ) {
        let ck = compile_source(SAXPY).unwrap();
        let (xs, ys) = seeded(seed, n);
        let launch = LaunchConfig::cover1(n as u64, block);

        // Fresh reference at the target shape: the paper's bit-identity
        // guarantee makes results shape-independent, so launch 1 runs at
        // `to` nodes here and at `from` nodes below.
        let (mut fresh, fx, fy) = loaded(to, FaultPlan::none(), &xs, &ys);
        let fresh_args = saxpy_args(fx, fy, n);
        fresh.launch(&ck, launch, &fresh_args).unwrap();
        fresh.launch(&ck, launch, &fresh_args).unwrap();
        let reference = fresh.download::<u8>(fy).unwrap();

        let (mut cl, x, y) = loaded(from, FaultPlan::none(), &xs, &ys);
        let args = saxpy_args(x, y, n);
        cl.launch(&ck, launch, &args).unwrap();
        let ckpt = cl.checkpoint().unwrap();
        let mut migrated = CuccCluster::restore(
            ClusterSpec::simd_focused().with_nodes(to),
            RuntimeConfig::default(),
            &ckpt,
        ).unwrap();
        prop_assert_eq!(migrated.num_nodes(), to as usize);
        prop_assert_eq!(migrated.active_nodes(), to as usize,
            "a cross-shape restore starts every node alive");
        migrated.launch(&ck, launch, &args).unwrap();
        prop_assert_eq!(migrated.download::<u8>(y).unwrap(), reference,
            "migrated run diverged from the fresh run at the target shape");
    }
}

/// Images of this file's shapes, each after one SAXPY launch: 1–5 nodes
/// without a fault plan and with an armed one that never fires (so with a
/// fault cursor), plus the kill + growth-join image (a dead node, 5 slots).
fn decode_corpus() -> &'static [Vec<u8>] {
    static CORPUS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let ck = compile_source(SAXPY).unwrap();
        let image = |nodes: u32, plan: FaultPlan| {
            let n = 64 * nodes as usize + 13;
            let (xs, ys) = seeded(u64::from(nodes), n);
            let (mut cl, x, y) = loaded(nodes, plan, &xs, &ys);
            let launch = LaunchConfig::cover1(n as u64, 64);
            cl.launch(&ck, launch, &saxpy_args(x, y, n)).unwrap();
            cl.checkpoint().unwrap().encode()
        };
        let mut images = Vec::new();
        for nodes in 1u32..6 {
            images.push(image(nodes, FaultPlan::none()));
            let armed = FaultPlan::none().kill(nodes - 1, 1e9).drop_step(1e9);
            images.push(image(nodes, armed));
        }
        images.push(image(4, FaultPlan::none().kill(3, 0.0).join(4, 0.0)));
        images
    })
}

/// Byte offset of the node count (after the magic and the version).
const NODE_COUNT_AT: usize = 12;

/// Byte offsets of the other fields a decode trusts for sizes, read off a
/// clean image: the cursor's flag count (when there is a cursor), the
/// buffer count and each buffer's length.
fn size_fields(image: &[u8]) -> (Option<usize>, usize, Vec<usize>) {
    let ck = Checkpoint::decode(image).unwrap();
    let cursor_byte = 33 + ck.alive.len();
    let flags = ck.fault_cursor.as_ref().map(|_| cursor_byte + 9);
    let mut at = match &ck.fault_cursor {
        None => cursor_byte + 1,
        Some((_, f)) => cursor_byte + 13 + f.len(),
    };
    let nbufs = at;
    at += 4;
    let mut lens = Vec::new();
    for b in &ck.buffers {
        lens.push(at);
        at += 8 + b.len();
    }
    (flags, nbufs, lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Checkpoint::decode` of a mutated image never panics: it returns
    /// the typed checkpoint error or a checkpoint whose buffers lie inside
    /// the input, whose vectors reserve no more elements than the input
    /// has bytes, and whose own image decodes again.
    #[test]
    fn decode_never_panics_on_mutated_images(
        pick in any::<usize>(),
        mutation in 0u8..6,
        at in any::<usize>(),
        mask in 1u8..=255,
        value in any::<u64>(),
        inflate in 0u8..4,
    ) {
        let corpus = decode_corpus();
        let clean = &corpus[pick % corpus.len()];
        let (flags, nbufs, lens) = size_fields(clean);
        let mut bytes = clean.clone();
        // An inflated size: one more, a little more, the largest, or any.
        let grow = |old: u64, max: u64| match inflate {
            0 => old.saturating_add(1).min(max),
            1 => old.saturating_add(1 + value % 4096).min(max),
            2 => max,
            _ => value & max,
        };
        let set_u32 = |bytes: &mut Vec<u8>, off: usize| {
            let old = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let new = grow(u64::from(old), u64::from(u32::MAX)) as u32;
            bytes[off..off + 4].copy_from_slice(&new.to_le_bytes());
        };
        match mutation {
            0 => bytes[at % clean.len()] ^= mask,
            1 => bytes.truncate(at % clean.len()),
            2 => set_u32(&mut bytes, NODE_COUNT_AT),
            3 => set_u32(&mut bytes, flags.unwrap_or(nbufs)),
            4 => set_u32(&mut bytes, nbufs),
            _ => {
                let off = lens[at % lens.len()];
                let old = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                let new = grow(old, u64::MAX);
                bytes[off..off + 8].copy_from_slice(&new.to_le_bytes());
            }
        }
        match Checkpoint::decode(&bytes) {
            Ok(ck) => {
                let input = bytes.as_ptr_range();
                for b in &ck.buffers {
                    let inner = b.as_ptr_range();
                    prop_assert!(input.start <= inner.start && inner.end <= input.end,
                        "a decoded buffer is not a slice of the image");
                }
                prop_assert!(ck.buffers.capacity() <= bytes.len());
                prop_assert!(ck.alive.capacity() <= bytes.len());
                if let Some((_, f)) = &ck.fault_cursor {
                    prop_assert!(f.capacity() <= bytes.len());
                }
                let again = ck.encode();
                prop_assert_eq!(Checkpoint::decode(&again).unwrap().encode(), again);
            }
            Err(cucc::core::MigrateError::Checkpoint(_)) => {}
            Err(e) => prop_assert!(false, "untyped decode error: {e}"),
        }
    }
}

/// The ISSUE's acceptance scenario, end to end: a workload is killed at
/// node 3, a fresh node joins (cluster growth 4 → 5), the job is
/// checkpointed to disk, restored into a new process, and run to
/// completion — memory must be bit-identical to the uninterrupted healthy
/// run.
#[test]
fn kill_join_checkpoint_restore_completes_bit_identical() {
    let n = 13 * 128;
    let ck = compile_source(SAXPY).unwrap();
    let (xs, ys) = seeded(42, n);
    let launch = LaunchConfig::cover1(n as u64, 128);

    // Uninterrupted healthy reference at the original shape.
    let (mut clean, cx, cy) = loaded(4, FaultPlan::none(), &xs, &ys);
    let clean_args = saxpy_args(cx, cy, n);
    clean.launch(&ck, launch, &clean_args).unwrap();
    clean.launch(&ck, launch, &clean_args).unwrap();
    let reference = clean.download::<u8>(cy).unwrap();

    // Faulty run: node 3 dies during the first launch; a fresh node (id 4
    // — one past the current size, so the cluster grows) joins at the next
    // boundary, reached by the checkpoint's quiesce barrier.
    let plan = FaultPlan::none()
        .with_spec("kill:node=3@t=0")
        .unwrap()
        .with_spec("join:node=4@t=0")
        .unwrap();
    let (mut cl, x, y) = loaded(4, plan.clone(), &xs, &ys);
    let args = saxpy_args(x, y, n);
    let report = cl.launch(&ck, launch, &args).unwrap();
    assert_eq!(report.faults.failures, 1, "the kill must fire");
    assert!(!cl.is_alive(3));

    let path = std::env::temp_dir().join(format!("cucc-elastic-{}.ckpt", std::process::id()));
    let size = cl.checkpoint_to(&path).unwrap();
    assert!(size > 0);
    assert_eq!(cl.num_nodes(), 5, "the growth join lands at the barrier");
    assert!(cl.is_alive(4));
    let epoch = cl.epoch();
    drop(cl); // the original process is gone

    // New process: restore from disk into the grown 5-node shape (same
    // count as the image, so liveness and epoch survive).
    let mut restored = CuccCluster::restore_from(
        ClusterSpec::simd_focused().with_nodes(5),
        RunOptions::builder().faults(plan).build(),
        &path,
    )
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.epoch(), epoch);
    assert!(!restored.is_alive(3), "liveness must survive the restore");
    assert_eq!(restored.active_nodes(), 4);
    restored.launch(&ck, launch, &args).unwrap();
    assert_eq!(
        restored.download::<u8>(y).unwrap(),
        reference,
        "the killed+joined+restored run diverged from the healthy run"
    );
}

/// Satellite 2: a checkpoint taken while a replayed graph left gathers
/// pending must flush them first — the image holds globally consistent
/// bytes, never per-node slices.
#[test]
fn checkpoint_flushes_pending_gathers() {
    const ELEMS: usize = 1024;
    let prod = compile_source(
        "__global__ void prod(float* x) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            x[id] = x[id] * 3.0f + 1.0f;
        }",
    )
    .unwrap();
    let launch = LaunchConfig::cover1(ELEMS as u64, 64);
    let (xs, _) = seeded(7, ELEMS);

    let mut cl = cluster(4, FaultPlan::none());
    let x = cl.alloc(ELEMS * 4);
    let mut cap = GraphCapture::new();
    cap.upload(x, <f32 as cucc::core::HostScalar>::encode(&xs).into_owned());
    cap.launch(&prod, launch, &[Arg::Buffer(x)]);
    cap.launch(&prod, launch, &[Arg::Buffer(x)]);
    let graph = cap.finish();
    cl.graph_replay(&graph).unwrap();
    assert_eq!(
        cl.pending_gathers(),
        vec![x],
        "the replay must leave x pending for this test to bite"
    );

    // The checkpoint borrows the cluster; its image outlives the borrow.
    let image = cl.checkpoint().unwrap().encode();
    let ckpt = Checkpoint::decode(&image).unwrap();
    assert!(
        cl.pending_gathers().is_empty(),
        "checkpoint must flush pending gathers"
    );

    // The image's bytes must match the uncaptured run, proving the flush
    // gathered every node's slice before serializing.
    let mut restored = CuccCluster::restore(
        ClusterSpec::simd_focused().with_nodes(4),
        RuntimeConfig::default(),
        &ckpt,
    )
    .unwrap();
    let mut b = cluster(4, FaultPlan::none());
    let xb = b.alloc(ELEMS * 4);
    b.upload::<f32>(xb, &xs).unwrap();
    b.launch(&prod, launch, &[Arg::Buffer(xb)]).unwrap();
    b.launch(&prod, launch, &[Arg::Buffer(xb)]).unwrap();
    assert_eq!(
        restored.download::<u8>(x).unwrap(),
        b.download::<u8>(xb).unwrap(),
        "checkpointed pending buffer diverged from the uncaptured run"
    );
}

/// Restore rejects images whose execution fidelity or fault session does
/// not match the target configuration.
#[test]
fn restore_rejects_mismatched_configurations() {
    let mut cl = cluster(3, FaultPlan::none().kill(1, 1e9));
    let x = cl.alloc(64);
    cl.upload::<f32>(x, &[1.0; 16]).unwrap();
    let ckpt = cl.checkpoint().unwrap();
    assert!(ckpt.fault_cursor.is_some());

    // The image carries a fault cursor; restoring without a plan fails.
    let err = CuccCluster::restore(
        ClusterSpec::simd_focused().with_nodes(3),
        RuntimeConfig::default(),
        &ckpt,
    )
    .unwrap_err();
    assert!(err.to_string().contains("fault"), "unexpected error: {err}");

    // Fidelity must match the image.
    let err = CuccCluster::restore(
        ClusterSpec::simd_focused().with_nodes(3),
        RunOptions::builder()
            .fidelity(cucc::core::ExecutionFidelity::Modeled)
            .build(),
        &ckpt,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("fidelity"),
        "unexpected error: {err}"
    );
}

/// The fault-session cursor belongs to an armed plan only. A session with
/// the empty plan writes a cursor-free image (the always-present injector
/// must not leak into the `CUCCCKPT` v1 bytes); an armed session still
/// carries its cursor, and restore validates it against the target plan
/// with the typed checkpoint error.
#[test]
fn fault_cursor_is_written_only_under_a_plan_and_validated_on_restore() {
    use cucc::core::MigrateError;
    // A checkpoint borrows its cluster, so each outlives the cluster as
    // its encoded image.
    let image_of = |faults: FaultPlan| {
        let mut cl = cluster(3, faults);
        let x = cl.alloc(64);
        cl.upload::<f32>(x, &[1.0; 16]).unwrap();
        cl.checkpoint().unwrap().encode()
    };
    let restore = |options: RunOptions, ckpt: &Checkpoint| {
        CuccCluster::restore(ClusterSpec::simd_focused().with_nodes(3), options, ckpt)
    };

    let plain_image = image_of(FaultPlan::none());
    let plain = Checkpoint::decode(&plain_image).unwrap();
    assert_eq!(plain.fault_cursor, None);
    // magic 8 + version 4 + nodes 4 + epoch 8 + clock 8 + modeled 1 + alive 3.
    assert_eq!(plain.encode()[36], 0, "cursor byte of an empty-plan image");
    restore(RunOptions::default(), &plain).unwrap();

    let plan = FaultPlan::none().kill(1, 1e9).drop_step(1e9);
    let armed_image = image_of(plan.clone());
    let armed = Checkpoint::decode(&armed_image).unwrap();
    let (_, flags) = armed.fault_cursor.as_ref().expect("armed plan → cursor");
    assert_eq!(flags.len(), 2);
    assert_eq!(armed.encode()[36], 1);
    restore(RunOptions::builder().faults(plan).build(), &armed).unwrap();

    // A cursor with no plan to apply it to, and a cursor whose flag count
    // does not match the plan's event count.
    for options in [
        RunOptions::default(),
        RunOptions::builder()
            .faults(FaultPlan::none().kill(1, 1e9))
            .build(),
    ] {
        let err = restore(options, &armed).unwrap_err();
        assert!(
            matches!(err, MigrateError::Checkpoint(_)),
            "unexpected error: {err}"
        );
    }
}

/// One launch that loses a node, readmits a slot that was already dead at
/// launch entry, then loses two more: 6 distributed chunks re-partition
/// 3 → 2 → 3 → 2 → 1 ways, and only the mid-launch joiner survives. No
/// node takes part in all four re-execution rounds, yet the report's
/// `reexec` is their sum; the report must also agree with the timeline
/// (`derive_report`'s asserts).
#[test]
fn kill_join_kill_kill_in_one_launch_recovers_on_the_joiner() {
    let n = 6 * 128 + 50; // 6 full blocks + a tail callback block
    let ck = compile_source(SAXPY).unwrap();
    let (xs, ys) = seeded(11, n);
    let launch = LaunchConfig::cover1(n as u64, 128);

    let (mut clean, cx, cy) = loaded(4, FaultPlan::none(), &xs, &ys);
    let clean_args = saxpy_args(cx, cy, n);
    clean.launch(&ck, launch, &clean_args).unwrap();
    clean.launch(&ck, launch, &clean_args).unwrap();
    let reference = clean.download::<u8>(cy).unwrap();

    // Launch 1 loses node 3, so launch 2 enters with slots {0, 1, 2}. The
    // simulation is deterministic: dry runs give the clock at the second
    // launch's entry and the moment its first death is confirmed.
    let two_launches = |plan: FaultPlan| {
        let (mut cl, x, y) = loaded(4, plan, &xs, &ys);
        let args = saxpy_args(x, y, n);
        cl.launch(&ck, launch, &args).unwrap();
        let entry = cl.clock();
        let report = cl.launch(&ck, launch, &args).unwrap();
        (cl, y, entry, report)
    };
    let base = FaultPlan::none().kill(3, 0.0);
    let (_, _, entry, _) = two_launches(base.clone());
    let base = base.kill(0, entry);
    let (_, _, _, first) = two_launches(base.clone());
    assert_eq!(first.faults.failures, 1);
    let confirmed = entry + first.times.partial + first.times.retry;

    let plan = base
        .join(3, confirmed)
        .kill(1, confirmed)
        .kill(2, confirmed);
    let (mut cl, y, _, report) = two_launches(plan);
    assert!(report.mode.is_three_phase());
    assert_eq!(report.faults.failures, 3);
    assert!(!report.faults.degraded);
    assert_eq!(cl.active_nodes(), 1);
    assert!(cl.is_alive(3), "only the mid-launch joiner survives");
    assert_eq!(
        cl.download::<u8>(y).unwrap(),
        reference,
        "the joiner's memory diverged from the fault-free run"
    );

    // Four rounds (death, join, death, death), one span per node in the
    // communicator at the time: distinct start times are distinct rounds.
    let mut rounds: Vec<(f64, f64)> = Vec::new();
    for s in cl.timeline().spans() {
        let this_launch = s.start >= entry && s.category == cucc::trace::Category::Reexec;
        if this_launch && !rounds.iter().any(|&(t, _)| t == s.start) {
            rounds.push((s.start, s.dur));
        }
    }
    assert_eq!(rounds.len(), 4);
    // No track took part in every round; the phase time is their sum.
    let sum: f64 = rounds.iter().map(|&(_, d)| d).sum();
    assert_eq!(report.times.reexec, sum);
}
