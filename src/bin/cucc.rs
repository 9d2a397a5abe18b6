//! `cucc` — command-line front-end to the CuCC migration framework.
//!
//! ```text
//! cucc analyze  <kernel.cu>                     # compiler analysis report
//! cucc codegen  <kernel.cu>                     # Figure-6 CPU modules
//! cucc run      <kernel.cu> [options]           # migrate & execute
//! cucc serve    [options]                       # multi-tenant serving front-end
//! cucc check    <kernel.cu|file.rs>             # static race/bounds/barrier verifier
//! cucc check    --builtin                       # verify every built-in suite kernel
//! cucc lint     <kernel.cu|file.rs>             # range-analysis lints (dead stores, …)
//! cucc lint     --builtin                       # lint every built-in suite kernel
//! cucc coverage                                 # Figure-7 suites
//!
//! run options:
//!   --cluster simd|thread    target cluster class   (default simd)
//!   --nodes N                cluster size           (default 4)
//!   --grid X[,Y[,Z]]         grid dimensions        (default 64)
//!   --block X[,Y[,Z]]        block dimensions       (default 256)
//!   --arg buf:<elems>f32     buffer argument, random f32 data
//!   --arg buf:<elems>i32     buffer argument, random i32 data
//!   --arg buf:<bytes>        buffer argument, random bytes
//!   --arg int:<v>            integer scalar
//!   --arg float:<v>          float scalar
//!   --seed S                 RNG seed for buffer data (default 42)
//!   --engine tree|lane       functional executor       (default lane;
//!                            bytecode and simd are accepted as lane)
//!   -v, --verbose            per-phase batch/vector report: which phases
//!                            ran dense/pred/scalar
//!   --node-threads N         intra-node worker threads (default 0 = auto)
//!   --modeled                timing-only (skip functional execution)
//!   --streams N              after the verified run, replay the kernel as
//!                            an N-stream pipeline (async h2d + launch per
//!                            replica) and report overlap vs serial
//!   --graph N                after the verified run, capture the upload +
//!                            launch sequence into a launch graph and replay
//!                            it N times; report schedule-cache hit rate,
//!                            elided/narrowed Allgathers and wire bytes saved
//!   --trace out.json         export the simulated-clock timeline as
//!                            Chrome trace-event JSON (open in Perfetto)
//!   --sanitize               run the dynamic write-race / OOB sanitizer
//!                            before execution and cross-check it against
//!                            the static verifier verdicts
//!   --fault SPEC             inject a scripted fault; repeatable. SPECs:
//!                            kill:node=N@t=T, delay:node=N@t=T[,factor=F],
//!                            drop:step@t=T, join:node=N@t=T (revive a dead
//!                            slot, or grow the cluster when N == size)
//!   --checkpoint PATH        after the verified run, serialize the full
//!                            cluster state (buffers, membership epoch,
//!                            fault cursor, clock) to PATH
//!   --restore PATH           resume from a checkpoint instead of fresh
//!                            uploads; buffer args bind to the restored
//!                            allocations in order (GPU byte-comparison is
//!                            skipped — the state is mid-job)
//!
//! serve options:
//!   --synthetic jobs=N,tenants=M
//!                            synthetic arrival stream shape (default 200, 8)
//!   --policy fifo|fair       queue discipline          (default fair)
//!   --queue-depth N          per-tenant admission limit (default 0 = unbounded)
//!   --nodes N                cluster size              (default 8)
//!   --cluster simd|thread    target cluster class      (default simd)
//!   --gap-us USEC            mean interarrival gap     (default 200)
//!   --seed S                 stream RNG seed           (default 42)
//!   --modeled / --engine / --node-threads / --fault / --trace
//!                            as for `run`
//! ```
//!
//! `run` executes the kernel on the simulated GPU (reference) and on the
//! CuCC cluster, compares the results byte-for-byte, and prints the
//! distribution decision and simulated-time breakdown.

use cucc::analysis::Verdict;
use cucc::cluster::ClusterSpec;
use cucc::core::codegen::{generate_host_module, generate_kernel_module};
use cucc::core::{
    compile_source, synthetic_stream, CuccCluster, EngineKind, ExecMode, ExecutionFidelity,
    FaultKind, FaultPlan, JobServer, RunOptions, ServeConfig, ServePolicy,
};
use cucc::exec::{Arg, BufferId};
use cucc::gpu_model::{GpuDevice, GpuSpec};
use cucc::ir::{Dim3, LaunchConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cucc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let path = args.get(1).ok_or("usage: cucc analyze <kernel.cu>")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            cmd_analyze(&src)
        }
        Some("codegen") => {
            let path = args.get(1).ok_or("usage: cucc codegen <kernel.cu>")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            cmd_codegen(&src)
        }
        Some("run") => {
            let path = args.get(1).ok_or("usage: cucc run <kernel.cu> [options]")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let opts = RunOpts::parse(&args[2..])?;
            cmd_run(&src, &opts)
        }
        Some("serve") => {
            let opts = ServeOpts::parse(&args[1..])?;
            cmd_serve(&opts)
        }
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("coverage") => cmd_coverage(),
        Some("--help") | Some("-h") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: cucc <analyze|codegen|run|serve|check|lint|coverage> [args]\n\
     \n\
     analyze  <kernel.cu>         run the Allgather-distributable & SIMD analyses\n\
     codegen  <kernel.cu>         print the generated CPU host/kernel modules\n\
     run      <kernel.cu> [opts]  migrate and execute on a simulated cluster\n\
     serve    [opts]              drive a multi-tenant synthetic job stream through\n\
                                  the admission-controlled serving front-end\n\
     check    <kernel.cu|.rs>     static race / bounds / barrier-divergence verifier\n\
     check    --builtin           verify all built-in suite kernels at real launches\n\
     lint     <kernel.cu|.rs>     range-analysis lints: dead stores, redundant\n\
                                  barriers, constant conditions, unreachable code\n\
     lint     --builtin           lint all built-in suite kernels at real launches\n\
     coverage                     classify the built-in Figure-7 kernel suites"
        .to_string()
}

// -------------------------------------------------------------- analyze --

fn cmd_analyze(src: &str) -> Result<String, String> {
    let ck = compile_source(src).map_err(|e| e.to_string())?;
    let mut out = format!("kernel `{}`\n", ck.name());
    match &ck.analysis.verdict {
        Verdict::Distributable(meta) => {
            out += "  verdict       : Allgather distributable (three-phase workflow)\n";
            out += &format!("  tail_divergent: {}\n", meta.tail_divergent());
            for b in &meta.buffers {
                out += &format!(
                    "  mem_ptr       : `{}` ({} B/elem)\n",
                    ck.kernel.params[b.param.index()].name(),
                    b.elem_size
                );
            }
            out += &format!("  write sites   : {}\n", meta.accesses.writes().count());
        }
        Verdict::Trivial(reasons) => {
            out += "  verdict       : trivially distributable (replicated execution)\n";
            for d in cucc::analysis::reason_diagnostics(reasons) {
                out += &format!("    {d}\n");
            }
        }
    }
    out += &format!(
        "  SIMD class    : {:?} (efficiency {:.2})\n",
        ck.analysis.simd.class, ck.analysis.simd.efficiency
    );
    for r in &ck.analysis.simd.reasons {
        out += &format!("    simd: {r}\n");
    }
    // Kernel verifier at the canonical launch (`cucc check` runs the same
    // rules; real geometry and extents come from `cucc check --builtin`).
    let map = cucc::ir::parse_kernel_with_map(src).ok().map(|(_, m)| m);
    let (vlaunch, vargs, vextents) = cucc::analysis::canonical_check_input(&ck.kernel);
    let acc = &ck.analysis.accesses;
    let vr = cucc::analysis::verify_accesses(
        &ck.kernel,
        acc,
        vlaunch,
        &vargs,
        &vextents,
        true,
        map.as_ref(),
    );
    out += &format!("  verifier      : {vlaunch}\n");
    out += &vr.render();
    Ok(out)
}

// ---------------------------------------------------------------- check --

/// Pull every `__global__ … { … }` kernel out of a text file (balanced
/// braces). Lets `cucc check` run over the mini-CUDA sources embedded in
/// the Rust examples as well as plain `.cu` files.
fn extract_cuda_kernels(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(pos) = text[at..].find("__global__") {
        let start = at + pos;
        let Some(open) = text[start..].find('{') else {
            break;
        };
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in text[start + open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(start + open + i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { break };
        out.push(text[start..end].to_string());
        at = end;
    }
    out
}

/// Parse + verify one kernel source. With `real = Some((launch, bytes,
/// scalars))` the rules run at that geometry with exact allocation-derived
/// extents; otherwise at the canonical launch with assumed extents.
/// Build the `(args, extents)` a real launch binds: buffers in declaration
/// order with allocation-derived element extents, scalars from `scalars`.
fn real_args(
    kernel: &cucc::ir::Kernel,
    buffer_bytes: &[usize],
    scalars: &[cucc::ir::Value],
) -> (Vec<Arg>, Vec<Option<u64>>) {
    use cucc::ir::Param;
    let mut args = Vec::new();
    let mut extents = Vec::new();
    let (mut bi, mut si) = (0usize, 0usize);
    for (i, p) in kernel.params.iter().enumerate() {
        match p {
            Param::Buffer { elem, .. } => {
                args.push(Arg::Buffer(BufferId(i as u32)));
                extents.push(Some((buffer_bytes[bi] / elem.size()) as u64));
                bi += 1;
            }
            Param::Scalar { .. } => {
                args.push(Arg::Scalar(scalars[si]));
                extents.push(None);
                si += 1;
            }
        }
    }
    (args, extents)
}

fn verify_source(
    src: &str,
    real: Option<(LaunchConfig, &[usize], &[cucc::ir::Value])>,
) -> Result<(String, cucc::analysis::VerifyReport), String> {
    let (kernel, map) = cucc::ir::parse_kernel_with_map(src).map_err(|e| e.to_string())?;
    cucc::ir::validate(&kernel).map_err(|e| format!("{}: {e}", kernel.name))?;
    let report = match real {
        Some((launch, buffer_bytes, scalars)) => {
            let (args, extents) = real_args(&kernel, buffer_bytes, scalars);
            cucc::analysis::verify_launch(&kernel, launch, &args, &extents, false, Some(&map))
        }
        None => {
            let (launch, args, extents) = cucc::analysis::canonical_check_input(&kernel);
            cucc::analysis::verify_launch(&kernel, launch, &args, &extents, true, Some(&map))
        }
    };
    Ok((kernel.name.clone(), report))
}

/// Parse + lint one kernel source, at the real launch when given, otherwise
/// at the canonical check launch.
fn lint_source(
    src: &str,
    real: Option<(LaunchConfig, &[usize], &[cucc::ir::Value])>,
) -> Result<(String, cucc::analysis::LintReport), String> {
    let (kernel, map) = cucc::ir::parse_kernel_with_map(src).map_err(|e| e.to_string())?;
    cucc::ir::validate(&kernel).map_err(|e| format!("{}: {e}", kernel.name))?;
    let (launch, args, extents) = match real {
        Some((launch, buffer_bytes, scalars)) => {
            let (args, extents) = real_args(&kernel, buffer_bytes, scalars);
            (launch, args, extents)
        }
        None => cucc::analysis::canonical_check_input(&kernel),
    };
    let report = cucc::analysis::lint_kernel(&kernel, launch, &args, &extents, Some(&map))
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    Ok((kernel.name.clone(), report))
}

fn cmd_check(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        None => Err("usage: cucc check <kernel.cu|file.rs> | cucc check --builtin".into()),
        Some("--builtin") => cmd_check_builtin(),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let sources = if path.ends_with(".rs") {
                extract_cuda_kernels(&text)
            } else {
                vec![text]
            };
            if sources.is_empty() {
                return Err(format!("{path}: no `__global__` kernels found"));
            }
            let mut out = String::new();
            let mut musts = 0usize;
            for src in &sources {
                let (name, report) = verify_source(src, None)?;
                out += &format!("kernel `{name}` at canonical grid 64 × block 256:\n");
                out += &report.render();
                if report.has_must() {
                    musts += 1;
                }
            }
            if musts > 0 {
                Err(format!(
                    "{out}{musts} kernel(s) with MUST-level diagnostics"
                ))
            } else {
                Ok(out)
            }
        }
    }
}

// ----------------------------------------------------------------- lint --

fn cmd_lint(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        None => Err("usage: cucc lint <kernel.cu|file.rs> | cucc lint --builtin".into()),
        Some("--builtin") => cmd_lint_builtin(),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let sources = if path.ends_with(".rs") {
                extract_cuda_kernels(&text)
            } else {
                vec![text]
            };
            if sources.is_empty() {
                return Err(format!("{path}: no `__global__` kernels found"));
            }
            let mut out = String::new();
            for src in &sources {
                let (name, report) = lint_source(src, None)?;
                out += &format!("kernel `{name}` at canonical grid 64 × block 256:\n");
                out += &report.render();
            }
            Ok(out)
        }
    }
}

/// Lint every built-in suite kernel at its real launch. Lints are advisory
/// (all `Info`), so this never fails — findings are printed for review.
fn cmd_lint_builtin() -> Result<String, String> {
    use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
    let mut out = String::from("range-analysis lints over the built-in suites (real launches):\n");
    let mut findings = 0usize;
    let mut checked = 0usize;
    let mut emit =
        |out: &mut String, suite: &str, name: &str, report: &cucc::analysis::LintReport| {
            *out += &format!("  {suite:18} {name:22} {}\n", report.summary());
            for d in &report.diagnostics {
                *out += &format!("    {d}\n");
            }
            findings += report.diagnostics.len();
            checked += 1;
        };
    for (suite, kernels) in [
        ("Triton (BERT+ViT)", triton_kernels()),
        ("Hetero-Mark", heteromark_kernels()),
    ] {
        for k in &kernels {
            let (_, report) =
                lint_source(&k.source, Some((k.launch, &k.buffer_bytes, &k.scalars)))?;
            emit(&mut out, suite, k.name, &report);
        }
    }
    for b in perf_suite(Scale::Test) {
        let bufs = b.buffers();
        let bytes: Vec<usize> = bufs.iter().map(Vec::len).collect();
        let scalars = b.scalars();
        let (_, report) = lint_source(&b.source(), Some((b.launch(), &bytes, &scalars)))?;
        emit(&mut out, "perf (Fig. 9)", b.name(), &report);
    }
    out += &format!("{checked} kernels linted, {findings} finding(s)\n");
    Ok(out)
}

/// Compact range/lint column for the `check --builtin` table.
fn range_summary(r: &cucc::analysis::LintReport) -> String {
    format!(
        "certs {}/{} lint {}",
        r.cert_stats.0,
        r.cert_stats.1,
        r.diagnostics.len()
    )
}

/// Verify every coverage kernel and perf benchmark at its real launch
/// geometry and allocation sizes. MUST-level findings are only tolerated on
/// kernels already annotated as overlapping (`Expected::Overlap/Indirect`) —
/// anywhere else they fail the command, which is what CI runs.
fn cmd_check_builtin() -> Result<String, String> {
    use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Expected, Scale};
    let mut out = String::from("kernel verifier over the built-in suites (real launches):\n");
    let mut unexpected: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for (suite, kernels) in [
        ("Triton (BERT+ViT)", triton_kernels()),
        ("Hetero-Mark", heteromark_kernels()),
    ] {
        for k in &kernels {
            let real = Some((k.launch, &k.buffer_bytes[..], &k.scalars[..]));
            let (_, report) = verify_source(&k.source, real)?;
            let (_, lint) = lint_source(&k.source, real)?;
            let annotated = k.expected != Expected::Distributable;
            out += &format!(
                "  {suite:18} {:22} race {:<12} bounds {:<12} barrier {:<12} {}{}\n",
                k.name,
                report.race.to_string(),
                report.bounds.to_string(),
                report.barrier.to_string(),
                range_summary(&lint),
                if annotated && report.has_must() {
                    "  (expected: overlapping writes)"
                } else {
                    ""
                }
            );
            if report.has_must() && !annotated {
                unexpected.push(format!("{suite}/{}", k.name));
            }
            checked += 1;
        }
    }
    for b in perf_suite(Scale::Test) {
        let bufs = b.buffers();
        let bytes: Vec<usize> = bufs.iter().map(Vec::len).collect();
        let scalars = b.scalars();
        let (_, report) = verify_source(&b.source(), Some((b.launch(), &bytes, &scalars)))?;
        let (_, lint) = lint_source(&b.source(), Some((b.launch(), &bytes, &scalars)))?;
        out += &format!(
            "  {:18} {:22} race {:<12} bounds {:<12} barrier {:<12} {}\n",
            "perf (Fig. 9)",
            b.name(),
            report.race.to_string(),
            report.bounds.to_string(),
            report.barrier.to_string(),
            range_summary(&lint),
        );
        if report.has_must() {
            unexpected.push(format!("perf/{}", b.name()));
        }
        checked += 1;
    }
    if unexpected.is_empty() {
        out += &format!(
            "{checked} kernels checked; MUST findings confined to annotated overlapping kernels\n"
        );
        Ok(out)
    } else {
        Err(format!(
            "{out}unexpected MUST-level diagnostics on: {}",
            unexpected.join(", ")
        ))
    }
}

fn cmd_codegen(src: &str) -> Result<String, String> {
    let ck = compile_source(src).map_err(|e| e.to_string())?;
    Ok(format!(
        "{}\n{}",
        generate_host_module(&ck),
        generate_kernel_module(&ck)
    ))
}

// ------------------------------------------------------------------ run --

#[derive(Debug, Clone)]
enum CliArg {
    BufBytes(usize),
    BufF32(usize),
    BufI32(usize),
    Int(i64),
    Float(f64),
}

/// The value following `flag` in a subcommand's argument list.
fn value<'a>(rest: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    rest.next()
        .ok_or_else(|| format!("missing value after `{flag}`"))
}

/// The eight flags `run` and `serve` share, parsed once: the runtime knobs
/// go straight into the [`RunOptions`] builder, the rest are plain fields.
#[derive(Debug)]
struct CommonOpts {
    cluster: String,
    nodes: u32,
    seed: u64,
    modeled: bool,
    trace: Option<String>,
    run: RunOptions,
}

impl CommonOpts {
    fn new(nodes: u32) -> CommonOpts {
        CommonOpts {
            cluster: "simd".into(),
            nodes,
            seed: 42,
            modeled: false,
            trace: None,
            run: RunOptions::builder(),
        }
    }

    /// Consume `flag` (and its value) when it is one of the shared flags;
    /// `Ok(false)` leaves it to the subcommand.
    fn take(&mut self, flag: &str, rest: &mut std::slice::Iter<String>) -> Result<bool, String> {
        match flag {
            "--cluster" => self.cluster = value(rest, flag)?.clone(),
            "--nodes" => {
                self.nodes = value(rest, flag)?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--seed" => {
                self.seed = value(rest, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--modeled" => {
                self.modeled = true;
                let run = self.run.clone().fidelity(ExecutionFidelity::Modeled);
                self.run = run.verify_consistency(false);
            }
            "--engine" => {
                let v = value(rest, flag)?;
                let engine = EngineKind::parse(v).ok_or_else(|| {
                    format!(
                        "--engine: unknown engine `{v}` (tree|lane; bytecode and simd are \
                         accepted as lane)"
                    )
                })?;
                self.run = self.run.clone().engine(engine);
            }
            "--node-threads" => {
                let threads = value(rest, flag)?
                    .parse()
                    .map_err(|e| format!("--node-threads: {e}"))?;
                self.run = self.run.clone().node_threads(threads);
            }
            "--fault" => self.run = self.run.clone().fault(value(rest, flag)?)?,
            "--trace" => self.trace = Some(value(rest, flag)?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The simulated cluster the `--cluster`/`--nodes` pair names.
    fn spec(&self) -> Result<ClusterSpec, String> {
        if self.nodes == 0 {
            return Err("--nodes: a cluster needs at least one node".into());
        }
        match self.cluster.as_str() {
            "simd" => Ok(ClusterSpec::simd_focused().with_nodes(self.nodes)),
            "thread" => Ok(ClusterSpec::thread_focused().with_nodes(self.nodes)),
            other => Err(format!("unknown cluster `{other}` (simd|thread)")),
        }
    }
}

#[derive(Debug)]
struct RunOpts {
    common: CommonOpts,
    grid: Dim3,
    block: Dim3,
    args: Vec<CliArg>,
    streams: usize,
    graph: usize,
    sanitize: bool,
    checkpoint: Option<String>,
    restore: Option<String>,
    verbose: bool,
}

impl std::ops::Deref for RunOpts {
    type Target = CommonOpts;
    fn deref(&self) -> &CommonOpts {
        &self.common
    }
}

/// A `--grid`/`--block` value, `X[,Y[,Z]]`; every extent is at least 1 (a
/// grid without blocks or a block without threads launches nothing).
fn parse_dim(flag: &str, s: &str) -> Result<Dim3, String> {
    let parts: Vec<u32> = s
        .split(',')
        .map(|p| p.parse().map_err(|_| format!("bad dimension `{s}`")))
        .collect::<Result<_, _>>()?;
    let dim = match parts.as_slice() {
        [x] => Dim3::new1(*x),
        [x, y] => Dim3::new2(*x, *y),
        [x, y, z] => Dim3::new3(*x, *y, *z),
        _ => return Err(format!("bad dimension `{s}` (use X[,Y[,Z]])")),
    };
    if dim.count() == 0 {
        return Err(format!("{flag}: `{s}` has a zero extent"));
    }
    Ok(dim)
}

impl RunOpts {
    fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut o = RunOpts {
            common: CommonOpts::new(4),
            grid: Dim3::new1(64),
            block: Dim3::new1(256),
            args: Vec::new(),
            streams: 0,
            graph: 0,
            sanitize: false,
            checkpoint: None,
            restore: None,
            verbose: false,
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if o.common.take(flag, &mut rest)? {
                continue;
            }
            match flag.as_str() {
                "--grid" => o.grid = parse_dim(flag, value(&mut rest, flag)?)?,
                "--block" => o.block = parse_dim(flag, value(&mut rest, flag)?)?,
                "--streams" => {
                    o.streams = value(&mut rest, flag)?
                        .parse()
                        .map_err(|e| format!("--streams: {e}"))?;
                }
                "--graph" => {
                    o.graph = value(&mut rest, flag)?
                        .parse()
                        .map_err(|e| format!("--graph: {e}"))?;
                }
                "--sanitize" => o.sanitize = true,
                "--arg" => o.args.push(parse_arg(value(&mut rest, flag)?)?),
                "--checkpoint" => o.checkpoint = Some(value(&mut rest, flag)?.clone()),
                "--restore" => o.restore = Some(value(&mut rest, flag)?.clone()),
                "-v" | "--verbose" => o.verbose = true,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(o)
    }

    /// The shared runtime knobs plus `--sanitize`, as the one typed value
    /// the cluster consumes. The session flags (`--streams`, `--graph`,
    /// `--checkpoint`, `--restore`) stay here: `cmd_run` drives them itself.
    fn to_run_options(&self) -> RunOptions {
        self.run.clone().sanitize(self.sanitize).build()
    }
}

fn parse_arg(spec: &str) -> Result<CliArg, String> {
    if let Some(rest) = spec.strip_prefix("buf:") {
        if let Some(n) = rest.strip_suffix("f32") {
            return Ok(CliArg::BufF32(
                n.parse().map_err(|_| format!("bad buffer size `{spec}`"))?,
            ));
        }
        if let Some(n) = rest.strip_suffix("i32") {
            return Ok(CliArg::BufI32(
                n.parse().map_err(|_| format!("bad buffer size `{spec}`"))?,
            ));
        }
        return Ok(CliArg::BufBytes(
            rest.parse()
                .map_err(|_| format!("bad buffer size `{spec}`"))?,
        ));
    }
    if let Some(v) = spec.strip_prefix("int:") {
        return Ok(CliArg::Int(
            v.parse().map_err(|_| format!("bad int `{spec}`"))?,
        ));
    }
    if let Some(v) = spec.strip_prefix("float:") {
        return Ok(CliArg::Float(
            v.parse().map_err(|_| format!("bad float `{spec}`"))?,
        ));
    }
    Err(format!(
        "bad --arg `{spec}` (use buf:<n>[f32|i32], int:<v>, float:<v>)"
    ))
}

/// One `--arg` with its host data materialized: a scalar as given, a
/// buffer as the random bytes every device sees.
enum HostArg {
    Scalar(Arg),
    Buffer(Vec<u8>),
}

fn host_arg(a: &CliArg, rng: &mut StdRng) -> HostArg {
    match a {
        CliArg::Int(v) => HostArg::Scalar(Arg::int(*v)),
        CliArg::Float(v) => HostArg::Scalar(Arg::float(*v)),
        CliArg::BufBytes(n) => HostArg::Buffer((0..*n).map(|_| rng.gen()).collect()),
        CliArg::BufF32(n) => {
            let mut v = Vec::with_capacity(n * 4);
            for _ in 0..*n {
                v.extend_from_slice(&rng.gen_range(-1.0f32..1.0).to_le_bytes());
            }
            HostArg::Buffer(v)
        }
        CliArg::BufI32(n) => {
            let mut v = Vec::with_capacity(n * 4);
            for _ in 0..*n {
                v.extend_from_slice(&rng.gen_range(-100i32..100).to_le_bytes());
            }
            HostArg::Buffer(v)
        }
    }
}

/// Bind a kernel's arguments on one device: scalars as given, each buffer
/// through `alloc`, which makes the device buffer for its host bytes.
fn bind_args(host: &[HostArg], mut alloc: impl FnMut(&[u8]) -> BufferId) -> Vec<Arg> {
    host.iter()
        .map(|h| match h {
            HostArg::Scalar(a) => *a,
            HostArg::Buffer(bytes) => Arg::Buffer(alloc(bytes)),
        })
        .collect()
}

/// The buffers among bound arguments, in declaration order.
fn buffers_of(args: &[Arg]) -> Vec<BufferId> {
    args.iter()
        .filter_map(|a| match a {
            Arg::Buffer(id) => Some(*id),
            Arg::Scalar(_) => None,
        })
        .collect()
}

// ------------------------------------------------------------------ serve --

struct ServeOpts {
    common: CommonOpts,
    jobs: usize,
    tenants: u32,
    policy: ServePolicy,
    queue_depth: usize,
    gap_us: f64,
}

impl std::ops::Deref for ServeOpts {
    type Target = CommonOpts;
    fn deref(&self) -> &CommonOpts {
        &self.common
    }
}

impl ServeOpts {
    fn parse(args: &[String]) -> Result<ServeOpts, String> {
        let mut o = ServeOpts {
            common: CommonOpts::new(8),
            jobs: 200,
            tenants: 8,
            policy: ServePolicy::Fair,
            queue_depth: 0,
            gap_us: 200.0,
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if o.common.take(flag, &mut rest)? {
                continue;
            }
            match flag.as_str() {
                "--synthetic" => {
                    for part in value(&mut rest, flag)?.split(',') {
                        if let Some(v) = part.strip_prefix("jobs=") {
                            o.jobs = v.parse().map_err(|e| format!("--synthetic jobs: {e}"))?;
                        } else if let Some(v) = part.strip_prefix("tenants=") {
                            o.tenants =
                                v.parse().map_err(|e| format!("--synthetic tenants: {e}"))?;
                        } else {
                            return Err(format!(
                                "bad --synthetic part `{part}` (use jobs=N,tenants=M)"
                            ));
                        }
                    }
                }
                "--policy" => {
                    let v = value(&mut rest, flag)?;
                    o.policy = ServePolicy::parse(v)
                        .ok_or_else(|| format!("--policy: unknown policy `{v}` (fifo|fair)"))?;
                }
                "--queue-depth" => {
                    o.queue_depth = value(&mut rest, flag)?
                        .parse()
                        .map_err(|e| format!("--queue-depth: {e}"))?;
                }
                "--gap-us" => {
                    let v = value(&mut rest, flag)?;
                    o.gap_us = v.parse().map_err(|e| format!("--gap-us: {e}"))?;
                    if !o.gap_us.is_finite() || o.gap_us < 0.0 {
                        return Err(format!("--gap-us: `{v}` is not a finite, non-negative gap"));
                    }
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if o.jobs == 0 || o.tenants == 0 {
            return Err("--synthetic needs jobs >= 1 and tenants >= 1".into());
        }
        Ok(o)
    }
}

fn cmd_serve(opts: &ServeOpts) -> Result<String, String> {
    let spec = opts.spec()?;
    let config = ServeConfig {
        policy: opts.policy,
        queue_depth: opts.queue_depth,
        options: opts.run.clone().build(),
    };
    let mut srv = JobServer::new(spec.clone(), config).map_err(|e| e.to_string())?;
    check_fault_nodes(&opts.run.faults, srv.cluster().num_nodes())?;
    let stream = synthetic_stream(opts.jobs, opts.tenants, opts.seed, opts.gap_us * 1e-6);
    let report = srv.run(&stream).map_err(|e| e.to_string())?;

    let mut out = format!(
        "serving {} job(s) from {} tenant(s) on {} × {} (policy {}, queue depth {})\n",
        opts.jobs,
        opts.tenants,
        opts.nodes,
        spec.cpu.name,
        opts.policy.label(),
        if opts.queue_depth == 0 {
            "unbounded".to_string()
        } else {
            opts.queue_depth.to_string()
        },
    );
    out += &format!("  {}\n", report.summary_line());
    for c in &report.per_class {
        out += &format!(
            "  class {:<11}: {:4} job(s)  queue p50 {:.3} ms p99 {:.3} ms  total p50 {:.3} ms p99 {:.3} ms\n",
            c.class.label(),
            c.jobs,
            c.p50_queue * 1e3,
            c.p99_queue * 1e3,
            c.p50_total * 1e3,
            c.p99_total * 1e3,
        );
    }
    for t in &report.per_tenant {
        out += &format!(
            "  tenant {:2}: {:4} admitted, {:3} rejected, {:4} completed, \
             cache hit rate {:.1}% ({} hit / {} miss)\n",
            t.tenant,
            t.admitted,
            t.rejected,
            t.completed,
            t.cache_hit_rate() * 100.0,
            t.cache_hits,
            t.cache_misses,
        );
    }
    if report.node_failures > 0 {
        out += &format!(
            "  faults: {} node failure(s) absorbed mid-stream\n",
            report.node_failures
        );
    }
    if let Some(path) = &opts.trace {
        std::fs::write(path, srv.timeline().to_chrome_json())
            .map_err(|e| format!("{path}: {e}"))?;
        out += &format!(
            "  trace: {} span(s) written to {path} (load in https://ui.perfetto.dev)\n",
            srv.timeline().spans().len()
        );
    }
    Ok(out)
}

/// Refuse a `kill`/`delay` naming a node the cluster can never have: ids
/// below its `num_nodes` slots (a restored image's grown slots included)
/// plus one per `join` in the plan. A `join` is checked when it fires.
fn check_fault_nodes(plan: &FaultPlan, num_nodes: usize) -> Result<(), String> {
    let joins = plan
        .events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Join { .. }))
        .count();
    let bound = num_nodes + joins;
    for e in &plan.events {
        if let FaultKind::Kill { node } | FaultKind::Straggle { node, .. } = e.kind {
            if node as usize >= bound {
                return Err(format!(
                    "--fault {e}: node {node} never exists (node ids stay below {bound}: \
                     {num_nodes} node(s) + {joins} join(s))"
                ));
            }
        }
    }
    Ok(())
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn cmd_run(src: &str, opts: &RunOpts) -> Result<String, String> {
    let ck = compile_source(src).map_err(|e| e.to_string())?;
    let launch = LaunchConfig {
        grid: opts.grid,
        block: opts.block,
    };
    let spec = opts.spec()?;
    let n_buffers = ck.kernel.buffer_params().count();
    let n_buf_args = opts
        .args
        .iter()
        .filter(|a| {
            matches!(
                a,
                CliArg::BufBytes(_) | CliArg::BufF32(_) | CliArg::BufI32(_)
            )
        })
        .count();
    if opts.args.len() != ck.kernel.params.len() || n_buf_args != n_buffers {
        return Err(format!(
            "kernel `{}` takes {} parameter(s) ({} buffer(s)); got {} --arg ({} buffer(s))",
            ck.name(),
            ck.kernel.params.len(),
            n_buffers,
            opts.args.len(),
            n_buf_args
        ));
    }

    // Materialize data once so the GPU and cluster see identical inputs.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let host: Vec<HostArg> = opts.args.iter().map(|a| host_arg(a, &mut rng)).collect();

    let mut out = format!(
        "kernel `{}` {}  on {} × {}\n",
        ck.name(),
        launch,
        opts.nodes,
        spec.cpu.name
    );

    // GPU reference (functional mode only).
    let mut gpu = GpuDevice::new(GpuSpec::a100());
    let gargs = bind_args(&host, |bytes| {
        let id = gpu.alloc(bytes.len());
        gpu.h2d(id, bytes);
        id
    });
    let gpu_handles = buffers_of(&gargs);
    let gpu_time = if opts.modeled {
        gpu.time_only(&ck.kernel, launch, &gargs)
            .map_err(|e| e.to_string())?
    } else {
        gpu.launch(&ck.kernel, launch, &gargs)
            .map_err(|e| e.to_string())?
            .time
    };
    out += &format!("  A100 (roofline reference): {:.3} ms\n", gpu_time * 1e3);

    // CuCC cluster: every flag lands in one typed RunOptions.
    let options = opts.to_run_options();
    let (mut cl, cargs) = if let Some(path) = &opts.restore {
        // Resume mid-job: buffers already live in the image, in the same
        // allocation order the fresh run would have created them.
        let cl = CuccCluster::restore_from(spec.clone(), options.clone(), path)
            .map_err(|e| e.to_string())?;
        out += &format!(
            "  restore: resumed from {path} (epoch {}, {}/{} node(s) alive, clock {:.3} ms)\n",
            cl.epoch(),
            cl.active_nodes(),
            cl.num_nodes(),
            cl.clock() * 1e3,
        );
        let mut next = 0u32;
        let cargs = bind_args(&host, |_| {
            next += 1;
            BufferId(next - 1)
        });
        (cl, cargs)
    } else {
        let mut cl = CuccCluster::with_options(spec.clone(), options.clone());
        let cargs = bind_args(&host, |bytes| {
            let id = cl.alloc(bytes.len());
            cl.upload(id, bytes).unwrap();
            id
        });
        (cl, cargs)
    };
    check_fault_nodes(&options.faults, cl.num_nodes())?;
    let cl_handles = buffers_of(&cargs);
    let wall0 = std::time::Instant::now();
    let report = cl.launch(&ck, launch, &cargs).map_err(|e| e.to_string())?;
    let wall = wall0.elapsed().as_secs_f64();
    match &report.mode {
        ExecMode::ThreePhase {
            partial_blocks_per_node,
            callback_blocks,
            ..
        } => {
            out += &format!(
                "  mode: three-phase ({partial_blocks_per_node} partial blocks/node, {callback_blocks} callbacks)\n"
            );
        }
        ExecMode::Replicated { cause } => {
            out += &format!(
                "  mode: replicated ({})\n",
                cucc::analysis::cause_diagnostic(cause)
            );
        }
    }
    if let Some(r) = cl.sanitize_report() {
        out += &format!("  {}\n", r.summary());
    }
    if !report.faults.is_clean() {
        out += &format!(
            "  faults: {} node failure(s), {} collective retry(s), {} block(s) re-executed{}\n",
            report.faults.failures,
            report.faults.retries,
            report.faults.reexecuted_blocks,
            if report.faults.degraded {
                " (degraded to replicated)"
            } else {
                ""
            }
        );
    }
    out += &format!(
        "  cluster time: {:.3} ms (partial {:.3} + allgather {:.3} + callback {:.3}), {} B on the wire\n",
        report.time() * 1e3,
        report.times.partial * 1e3,
        report.times.allgather * 1e3,
        report.times.callback * 1e3,
        report.wire_bytes
    );
    out += &format!(
        "  vs A100: {:.2}x {}\n",
        if report.time() > gpu_time {
            report.time() / gpu_time
        } else {
            gpu_time / report.time()
        },
        if report.time() > gpu_time {
            "slower"
        } else {
            "faster"
        }
    );

    if let Some(path) = &opts.checkpoint {
        let size = cl.checkpoint_to(path).map_err(|e| e.to_string())?;
        out += &format!(
            "  checkpoint: wrote {path} ({size} B, epoch {}, {}/{} node(s) alive)\n",
            cl.epoch(),
            cl.active_nodes(),
            cl.num_nodes(),
        );
    }

    if !opts.modeled && opts.restore.is_none() {
        // Verify buffers byte-for-byte against the GPU reference. A
        // restored run starts from mid-job state, so the single-launch GPU
        // reference does not apply there.
        for (i, (g, c)) in gpu_handles.iter().zip(&cl_handles).enumerate() {
            let gb = gpu.d2h(*g);
            let cb = cl.download::<u8>(*c).unwrap();
            if gb != cb {
                return Err(format!("buffer {i} diverges from the GPU reference"));
            }
            out += &format!(
                "  buffer {i}: {} B, checksum {:016x} ✓ matches GPU\n",
                cb.len(),
                fnv1a(&cb)
            );
        }
    }

    if opts.modeled {
        out += &format!(
            "  engine: {} (modeled run, blocks not executed)\n",
            options.engine
        );
    } else {
        // Blocks node 0 really executed (partial slice + callbacks).
        let blocks = report.node_stats.blocks;
        out += &format!(
            "  engine: {} ({}): {} blocks/node in {:.3} ms wall, {:.0} blocks/s\n",
            options.engine,
            if options.node_threads == 0 {
                "auto node-threads".to_string()
            } else {
                format!("{} node-threads", options.node_threads)
            },
            blocks,
            wall * 1e3,
            blocks as f64 / wall.max(1e-9)
        );
    }

    if opts.verbose {
        // Per-phase batch/vector report: which phases ran dense,
        // predicated, or scalar.
        match cucc::exec::Program::compile(&ck.kernel, launch, &cargs) {
            Ok(prog) => {
                out += "  vectorization (per phase):\n";
                for line in prog.phase_summary().lines() {
                    out += &format!("    {line}\n");
                }
                // Range-analysis certification at the real allocation sizes:
                // certified accesses run bounds-check-free in the engine.
                let extents: Vec<Option<u64>> = ck
                    .kernel
                    .params
                    .iter()
                    .zip(&host)
                    .map(|(p, data)| match (p, data) {
                        (cucc::ir::Param::Buffer { elem, .. }, HostArg::Buffer(bytes)) => {
                            Some((bytes.len() / elem.size()) as u64)
                        }
                        _ => None,
                    })
                    .collect();
                let slot_exts = cucc::analysis::param_slot_extents(&prog, &cargs, &extents);
                let (c, t) = cucc::analysis::analyze_ranges(&prog, &slot_exts).stats();
                out += &format!(
                    "  range certs: {c}/{t} accesses certified in-bounds (unchecked fast path)\n"
                );
            }
            Err(e) => out += &format!("  vectorization: unavailable ({e})\n"),
        }
        out += &format!(
            "  simd analysis: {}\n",
            cucc::analysis::analyze_simd(&ck.kernel).summary()
        );
    }

    if opts.streams > 0 {
        // Replay the kernel as a pipeline of independent replicas — fresh
        // buffers, async h2d + launch per replica, round-robin over the
        // streams — and compare the simulated elapsed time against the
        // same pipeline on the default stream.
        let replicas = opts.streams * 3;
        let run_pipe = |nstreams: usize| -> Result<f64, String> {
            let mut cl = CuccCluster::with_options(spec.clone(), options.clone());
            let streams: Vec<_> = (0..nstreams).map(|_| cl.stream_create()).collect();
            for r in 0..replicas {
                let cargs = bind_args(&host, |bytes| {
                    let id = cl.alloc(bytes.len());
                    if let Some(s) = streams.get(r % nstreams.max(1)) {
                        cl.upload_on(id, bytes, *s).unwrap();
                    } else {
                        cl.upload(id, bytes).unwrap();
                    }
                    id
                });
                if let Some(s) = streams.get(r % nstreams.max(1)) {
                    cl.launch_on(&ck, launch, &cargs, *s)
                        .map_err(|e| e.to_string())?;
                } else {
                    cl.launch(&ck, launch, &cargs).map_err(|e| e.to_string())?;
                }
            }
            cl.synchronize().map_err(|e| e.to_string())
        };
        let serial = run_pipe(0)?;
        let overlapped = run_pipe(opts.streams)?;
        out += &format!(
            "  streams: {}-way pipeline, {} replicas: serial {:.3} ms → overlapped {:.3} ms ({:.2}x)\n",
            opts.streams,
            replicas,
            serial * 1e3,
            overlapped * 1e3,
            serial / overlapped.max(1e-12)
        );
    }

    if opts.graph > 0 {
        // Capture the workload's sequence (buffer uploads + the launch)
        // into a launch graph, replay it N times, and report what the
        // schedule cache and the communication optimizer saved.
        use cucc::core::{GraphCapture, ReplayStats};
        let mut gcl = CuccCluster::with_options(spec.clone(), options.clone());
        let mut cap = GraphCapture::new();
        let gr_args = bind_args(&host, |bytes| {
            let id = gcl.alloc(bytes.len());
            cap.upload(id, bytes.to_vec());
            id
        });
        let graph_handles = buffers_of(&gr_args);
        cap.launch(&ck, launch, &gr_args);
        let graph = cap.finish();
        let mut total = ReplayStats::default();
        for _ in 0..opts.graph {
            let s = gcl.graph_replay(&graph).map_err(|e| e.to_string())?;
            total.accumulate(&s);
        }
        out += &format!(
            "  graph: {} op(s) captured, replayed {}x: cache hit rate {:.1}% ({} hit / {} miss)\n",
            graph.len(),
            opts.graph,
            total.cache_hit_rate() * 100.0,
            total.cache_hits,
            total.cache_misses,
        );
        out += &format!(
            "  graph: allgathers: {} elided, {} narrowed, {} full, {} materialized\n",
            total.gathers_elided,
            total.gathers_narrowed,
            total.gathers_full,
            total.materializations,
        );
        out += &format!(
            "  graph: wire bytes saved: {} B ({} B moved vs {} B planned)\n",
            total.wire_bytes_saved,
            total.wire_bytes,
            total.wire_bytes + total.wire_bytes_saved,
        );
        if !opts.modeled {
            // Each iteration re-uploads, so the replayed end state must
            // match the verified single launch bit-for-bit.
            for (i, (g, c)) in graph_handles.iter().zip(&cl_handles).enumerate() {
                if gcl.download::<u8>(*g).unwrap() != cl.download::<u8>(*c).unwrap() {
                    return Err(format!("buffer {i} diverges after graph replay"));
                }
            }
            out += "  graph: replayed memory matches the uncaptured run ✓\n";
        }
    }

    out += "\n";
    out += &cl.timeline().summary();
    if let Some(path) = &opts.trace {
        std::fs::write(path, cl.timeline().to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        out += &format!(
            "\ntrace: {} span(s) written to {path} (load in https://ui.perfetto.dev)\n",
            cl.timeline().spans().len()
        );
    }
    Ok(out)
}

// ------------------------------------------------------------- coverage --

fn cmd_coverage() -> Result<String, String> {
    let [vit, bert, hetero] = cucc::workloads::coverage_table()?;
    let mut out = String::from("Figure-7 coverage classification:\n");
    for (suite, distributable, kernels) in [
        (
            "Triton (BERT+ViT)",
            vit.distributable + bert.distributable,
            vit.kernels + bert.kernels,
        ),
        ("Hetero-Mark", hetero.distributable, hetero.kernels),
    ] {
        out += &format!("  {suite:20}: {distributable}/{kernels} Allgather distributable\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        if (id < n) y[id] = a * x[id] + y[id];
    }";

    #[test]
    fn analyze_reports_verdict() {
        let out = cmd_analyze(SAXPY).unwrap();
        assert!(out.contains("Allgather distributable"));
        assert!(out.contains("tail_divergent: true"));
        assert!(out.contains("SIMD class"));
    }

    #[test]
    fn codegen_emits_modules() {
        let out = cmd_codegen(SAXPY).unwrap();
        assert!(out.contains("MPI_Allgather"));
        assert!(out.contains("#pragma omp simd"));
    }

    #[test]
    fn run_executes_and_verifies() {
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "3",
                "--grid",
                "8",
                "--block",
                "128",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("three-phase"), "{out}");
        assert!(out.contains("matches GPU"), "{out}");
    }

    #[test]
    fn run_writes_chrome_trace() {
        let path = std::env::temp_dir().join("cucc_cli_trace_test.json");
        let path_str = path.to_str().unwrap().to_string();
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "3",
                "--grid",
                "8",
                "--block",
                "128",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
                "--trace",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("timeline"), "{out}");
        assert!(out.contains("written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let v = cucc::trace::json::parse(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // One partial + one callback span per node, at least one allgather
        // span on the network track, and wire-byte counter samples.
        for (name, want) in [("partial", 3), ("callback", 3), ("allgather", 1)] {
            let got = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("name")
                            .and_then(|n| n.as_str())
                            .is_some_and(|n| n.contains(name))
                })
                .count();
            assert!(got >= want, "{name}: {got} < {want}");
        }
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")
                && e.get("name").and_then(|n| n.as_str()) == Some("wire_bytes")));
    }

    #[test]
    fn run_with_engine_flags() {
        for (engine, reported) in [
            ("tree", "tree"),
            ("lane", "lane"),
            ("bytecode", "lane"),
            ("simd", "lane"),
        ] {
            let opts = RunOpts::parse(
                &[
                    "--nodes",
                    "2",
                    "--grid",
                    "8",
                    "--block",
                    "128",
                    "--engine",
                    engine,
                    "--node-threads",
                    "2",
                    "--arg",
                    "buf:1024f32",
                    "--arg",
                    "buf:1024f32",
                    "--arg",
                    "float:2.0",
                    "--arg",
                    "int:1024",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            )
            .unwrap();
            let out = cmd_run(SAXPY, &opts).unwrap();
            assert!(out.contains(&format!("engine: {reported}")), "{out}");
            assert!(out.contains("blocks/s"), "{out}");
            assert!(out.contains("matches GPU"), "{out}");
        }
        assert!(RunOpts::parse(&["--engine".into(), "jit".into()]).is_err());
    }

    #[test]
    fn run_with_join_checkpoint_restore_round_trip() {
        let path = std::env::temp_dir().join("cucc_cli_ckpt_test.bin");
        let path_str = path.to_str().unwrap().to_string();
        let common = [
            "--nodes",
            "4",
            "--grid",
            "13",
            "--block",
            "128",
            "--arg",
            "buf:1664f32",
            "--arg",
            "buf:1664f32",
            "--arg",
            "float:2.0",
            "--arg",
            "int:1664",
        ];
        // Kill node 3 mid-launch, grow by a fresh node at the checkpoint's
        // quiesce barrier, and write the image.
        let mut first: Vec<String> = common.iter().map(|s| s.to_string()).collect();
        for extra in [
            "--fault",
            "kill:node=3@t=0",
            "--fault",
            "join:node=4@t=0",
            "--checkpoint",
            &path_str,
        ] {
            first.push(extra.to_string());
        }
        let opts = RunOpts::parse(&first).unwrap();
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("faults: 1 node failure"), "{out}");
        assert!(out.contains("checkpoint: wrote"), "{out}");
        assert!(out.contains("4/5 node(s) alive"), "{out}");

        // Restore into a new process at the grown shape and resume. The
        // same fault plan rides along; the image's cursor marks both
        // events consumed, so neither refires.
        let mut second: Vec<String> = common.iter().map(|s| s.to_string()).collect();
        second[1] = "5".to_string(); // --nodes 5: the image's grown shape
        for extra in [
            "--fault",
            "kill:node=3@t=0",
            "--fault",
            "join:node=4@t=0",
            "--restore",
            &path_str,
        ] {
            second.push(extra.to_string());
        }
        let opts = RunOpts::parse(&second).unwrap();
        let out = cmd_run(SAXPY, &opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("restore: resumed from"), "{out}");
        assert!(out.contains("4/5 node(s) alive"), "{out}");
        assert!(out.contains("cluster time"), "{out}");
    }

    #[test]
    fn run_verbose_reports_vector_mode() {
        // Three-address saxpy: the output buffer is distinct from both
        // inputs, so the guarded body batches under a per-lane mask.
        let src = "__global__ void saxpy3(float* x, float* y, float* out, float a, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) out[id] = a * x[id] + y[id];
        }";
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "2",
                "--grid",
                "8",
                "--block",
                "128",
                "--engine",
                "lane",
                "-v",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(opts.verbose);
        let out = cmd_run(src, &opts).unwrap();
        // The guarded body vectorizes under a mask (pred); the report
        // should say so and include the simd analysis verdict.
        assert!(out.contains("vectorization (per phase):"), "{out}");
        assert!(
            out.contains("pred[") || out.contains("dense["),
            "no vectorized segment in {out}"
        );
        assert!(out.contains("simd analysis:"), "{out}");
        assert!(out.contains("lane efficiency"), "{out}");

        // In-place SAXPY loads and stores `y`, but each thread only its own
        // element, so it batches too.
        let in_place = cmd_run(SAXPY, &opts_for_saxpy()).unwrap();
        assert!(in_place.contains("pred["), "{in_place}");
        assert!(!in_place.contains("scalar["), "{in_place}");
        // A thread that reads the element its neighbour in the block wrote
        // is a real load/store hazard on `y`: thread-major.
        let shifted = "__global__ void shift(float* x, float* y, float a, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id + 1 < n && threadIdx.x + 1 < blockDim.x) y[id + 1] = a * x[id] + y[id];
        }";
        let hazard = cmd_run(shifted, &opts_for_saxpy()).unwrap();
        assert!(hazard.contains("scalar["), "{hazard}");
    }

    fn opts_for_saxpy() -> RunOpts {
        RunOpts::parse(
            &[
                "--grid",
                "8",
                "--block",
                "128",
                "--engine",
                "lane",
                "-v",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn run_with_streams_reports_overlap() {
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "4",
                "--grid",
                "64",
                "--block",
                "256",
                "--streams",
                "2",
                "--arg",
                "buf:16384f32",
                "--arg",
                "buf:16384f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:16384",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(opts.streams, 2);
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("2-way pipeline"), "{out}");
        // Overlapped elapsed must not exceed the serial replay.
        let line = out
            .lines()
            .find(|l| l.contains("streams:"))
            .unwrap()
            .to_string();
        let ratio: f64 = line
            .split('(')
            .nth(1)
            .and_then(|s| s.strip_suffix("x)"))
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio >= 1.0, "{line}");
    }

    #[test]
    fn run_with_graph_reports_cache_and_elision() {
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "4",
                "--grid",
                "64",
                "--block",
                "256",
                "--graph",
                "3",
                "--arg",
                "buf:16384f32",
                "--arg",
                "buf:16384f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:16384",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(opts.graph, 3);
        let out = cmd_run(SAXPY, &opts).unwrap();
        // Iteration 1 plans (1 miss), iterations 2–3 hit.
        assert!(
            out.contains("cache hit rate 66.7% (2 hit / 1 miss)"),
            "{out}"
        );
        // SAXPY's only gathered region (y) elides on every iteration: its
        // callback reads lie beyond the distributed span.
        assert!(out.contains("allgathers: 3 elided"), "{out}");
        let saved = out
            .lines()
            .find(|l| l.contains("wire bytes saved"))
            .unwrap()
            .to_string();
        let n: u64 = saved
            .split("saved: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(n > 0, "{saved}");
        assert!(out.contains("matches the uncaptured run"), "{out}");
    }

    #[test]
    fn run_rejects_bad_arg_count() {
        let opts = RunOpts::parse(
            &["--arg", "buf:64f32"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let err = cmd_run(SAXPY, &opts).unwrap_err();
        assert!(err.contains("takes 4 parameter"), "{err}");
    }

    #[test]
    fn option_parsing() {
        let o = RunOpts::parse(
            &[
                "--cluster",
                "thread",
                "--grid",
                "4,4",
                "--block",
                "16,16",
                "--modeled",
                "--seed",
                "7",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(o.cluster, "thread");
        assert_eq!(o.grid, Dim3::new2(4, 4));
        assert_eq!(o.block, Dim3::new2(16, 16));
        assert!(o.modeled);
        assert_eq!(o.seed, 7);
        assert!(RunOpts::parse(&["--bogus".to_string()]).is_err());
        assert!(parse_arg("buf:xyz").is_err());
        assert!(parse_arg("frob:1").is_err());
    }

    #[test]
    fn dispatch_help_and_errors() {
        assert!(dispatch(&[]).unwrap().contains("usage"));
        assert!(dispatch(&["bogus".to_string()]).is_err());
        assert!(dispatch(&["analyze".to_string()]).is_err());
        let cov = dispatch(&["coverage".to_string()]).unwrap();
        assert!(cov.contains("21/21") || cov.contains("8/13"), "{cov}");
        // Degenerate shapes are refused by name, not by a panic in the
        // simulator or an `infx faster` report.
        let path = std::env::temp_dir().join("cucc_dispatch_errors.cu");
        std::fs::write(&path, SAXPY).unwrap();
        let run = |flag: &str| {
            let args = ["run", path.to_str().unwrap(), flag, "0"];
            dispatch(&args.map(String::from)).unwrap_err()
        };
        for flag in ["--nodes", "--grid", "--block"] {
            assert!(run(flag).contains(flag), "{flag}");
        }
        std::fs::remove_file(&path).ok();
        let serve = ["serve", "--nodes", "0"].map(String::from);
        assert!(dispatch(&serve).unwrap_err().contains("--nodes"));
    }

    #[test]
    fn analyze_includes_verifier_section() {
        let out = cmd_analyze(SAXPY).unwrap();
        assert!(out.contains("verifier"), "{out}");
        assert!(out.contains("race    : safe"), "{out}");
        assert!(out.contains("all checks pass"), "{out}");
    }

    #[test]
    fn check_passes_clean_kernel_and_fails_racy_one() {
        let dir = std::env::temp_dir();
        let clean = dir.join("cucc_check_clean.cu");
        std::fs::write(&clean, SAXPY).unwrap();
        let out = cmd_check(&[clean.to_str().unwrap().to_string()]).unwrap();
        std::fs::remove_file(&clean).ok();
        assert!(out.contains("all checks pass"), "{out}");

        let racy = dir.join("cucc_check_racy.cu");
        std::fs::write(
            &racy,
            "__global__ void k(int* out) { out[threadIdx.x] = 1; }",
        )
        .unwrap();
        let err = cmd_check(&[racy.to_str().unwrap().to_string()]).unwrap_err();
        std::fs::remove_file(&racy).ok();
        assert!(err.contains("MUST"), "{err}");
        assert!(err.contains("race"), "{err}");
    }

    #[test]
    fn check_extracts_kernels_from_rust_sources() {
        let text = r#"
            fn main() {
                let a = "__global__ void one(int* x) { x[threadIdx.x + blockIdx.x * blockDim.x] = 0; }";
                let b = "__global__ void two(float* y, int n) {
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id < n) { y[id] = 1.0f; }
                }";
            }
        "#;
        let kernels = extract_cuda_kernels(text);
        assert_eq!(kernels.len(), 2);
        assert!(kernels[0].contains("void one"));
        assert!(kernels[1].trim_end().ends_with('}'));
        for k in &kernels {
            let (_, report) = verify_source(k, None).unwrap();
            assert!(!report.has_must(), "{report:?}");
        }
    }

    #[test]
    fn check_builtin_suites_have_no_unexpected_musts() {
        let out = cmd_check_builtin().unwrap();
        assert!(out.contains("kernels checked"), "{out}");
    }

    #[test]
    fn run_with_sanitizer_reports_clean() {
        let opts = RunOpts::parse(
            &[
                "--nodes",
                "2",
                "--grid",
                "8",
                "--block",
                "128",
                "--sanitize",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(opts.sanitize);
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("sanitizer: clean"), "{out}");
        assert!(out.contains("matches GPU"), "{out}");
    }

    #[test]
    fn serve_opts_parse_synthetic_and_policy() {
        let opts = ServeOpts::parse(
            &[
                "--synthetic",
                "jobs=50,tenants=5",
                "--policy",
                "fifo",
                "--queue-depth",
                "8",
                "--nodes",
                "6",
                "--gap-us",
                "50",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(opts.jobs, 50);
        assert_eq!(opts.tenants, 5);
        assert_eq!(opts.policy, ServePolicy::Fifo);
        assert_eq!(opts.queue_depth, 8);
        assert_eq!(opts.nodes, 6);
        assert!((opts.gap_us - 50.0).abs() < 1e-12);
        assert!(ServeOpts::parse(&["--policy".into(), "lifo".into()]).is_err());
        assert!(ServeOpts::parse(&["--synthetic".into(), "depth=2".into()]).is_err());
        for gap in ["nan", "inf", "-5"] {
            let err = ServeOpts::parse(&["--gap-us".into(), gap.into()]).err();
            assert!(err.is_some_and(|e| e.contains("--gap-us")), "{gap}");
        }
    }

    #[test]
    fn serve_reports_latency_summary_per_tenant() {
        let opts = ServeOpts::parse(
            &[
                "--synthetic",
                "jobs=80",
                "--queue-depth",
                "32",
                "--nodes",
                "4",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let out = cmd_serve(&opts).unwrap();
        assert!(out.contains("launches/sec"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("class interactive"), "{out}");
        assert!(out.contains("tenant  0"), "{out}");
        assert!(out.contains("cache hit rate"), "{out}");
    }

    #[test]
    fn run_refuses_a_fault_on_a_node_that_never_exists() {
        let run = |nodes: &str, faults: &[&str]| {
            let mut argv = vec![
                "--nodes",
                nodes,
                "--grid",
                "8",
                "--block",
                "128",
                "--arg",
                "buf:1024f32",
                "--arg",
                "buf:1024f32",
                "--arg",
                "float:2.0",
                "--arg",
                "int:1024",
            ];
            for f in faults {
                argv.extend(["--fault", f]);
            }
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            cmd_run(SAXPY, &RunOpts::parse(&argv).unwrap())
        };
        let err = run("4", &["kill:node=99@t=0"]).unwrap_err();
        assert!(err.contains("node 99 never exists"), "{err}");
        assert!(err.contains("below 4: 4 node(s) + 0 join(s)"), "{err}");
        // One join makes room for one more id, and no more.
        let err = run("4", &["join:node=4@t=0", "delay:node=5@t=0,factor=2"]).unwrap_err();
        assert!(
            err.contains("delay:node=5") && err.contains("below 5"),
            "{err}"
        );
        // The specs README and CI run are still accepted.
        let out = run("3", &["kill:node=2@t=0"]).unwrap();
        assert!(out.contains("faults: 1 node failure"), "{out}");
        let out = run("4", &["kill:node=3@t=0", "join:node=4@t=0"]).unwrap();
        assert!(out.contains("faults: 1 node failure"), "{out}");
    }

    #[test]
    fn serve_refuses_a_fault_on_a_node_that_never_exists() {
        let serve = |fault: &str| {
            let argv = ["--synthetic", "jobs=20,tenants=2", "--fault", fault];
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            cmd_serve(&ServeOpts::parse(&argv).unwrap())
        };
        let err = serve("kill:node=50@t=0").unwrap_err();
        assert!(err.contains("node 50 never exists"), "{err}");
        assert!(err.contains("below 8: 8 node(s) + 0 join(s)"), "{err}");
        serve("kill:node=7@t=0").unwrap();
    }

    #[test]
    fn run_opts_fold_into_run_options() {
        let opts = RunOpts::parse(
            &[
                "--modeled",
                "--streams",
                "3",
                "--graph",
                "5",
                "--node-threads",
                "2",
                "--fault",
                "kill:node=1@t=0.5",
                "--checkpoint",
                "/tmp/cucc_opts.ckpt",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        // The runtime knobs fold into the cluster's options; the session
        // flags stay on `RunOpts`, where `cmd_run` reads them.
        let ro = opts.to_run_options();
        assert_eq!(ro.fidelity, ExecutionFidelity::Modeled);
        assert_eq!(ro.node_threads, 2);
        assert!(!ro.faults.is_empty());
        assert_eq!((opts.streams, opts.graph), (3, 5));
        assert!(opts.checkpoint.is_some());
        assert!(opts.restore.is_none());
    }
}
