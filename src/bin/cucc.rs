//! `cucc` — command-line front-end to the CuCC migration framework.
//!
//! `cucc --help` lists the subcommands and `cucc <cmd> --help` one
//! subcommand's options. Both are generated from [`CMDS`] and the flag
//! tables below, the one place a subcommand or a flag is declared; the
//! one parser reads every command line through the same rows before any
//! file is opened.
//!
//! `run` executes the kernel on the simulated GPU (reference) and on the
//! CuCC cluster, compares the results byte-for-byte, and prints the
//! distribution decision and simulated-time breakdown.

use cucc::analysis::{LaunchFacts, LintReport, Verdict, VerifyReport};
use cucc::cluster::ClusterSpec;
use cucc::core::codegen::{generate_host_module, generate_kernel_module};
use cucc::core::{
    compile, compile_source, synthetic_stream, CuccCluster, EngineKind, ExecMode,
    ExecutionFidelity, FaultKind, FaultPlan, JobServer, MigrateError, RunOptions, ServeConfig,
    ServePolicy,
};
use cucc::exec::{Arg, BufferId};
use cucc::gpu_model::{GpuDevice, GpuSpec};
use cucc::ir::{Dim3, Kernel, LaunchConfig, Param, SourceMap, Value};
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
    let first = args.first().map_or(HELP.name, String::as_str);
    if first == HELP.name || HELP.short == Some(first) {
        return Ok(usage());
    }
    let o = parse(args)?;
    if o.help {
        return Ok(o.cmd.usage());
    }
    (o.cmd.run)(&o)
}

// ------------------------------------------------------------------ CLI --

/// One subcommand: what it takes and what runs it.
struct Cmd {
    name: &'static str,
    /// Synopsis of the positional operands, for the usage lines.
    operands: &'static str,
    /// Positional operands accepted; one more is a usage error.
    arity: usize,
    /// The flag groups it accepts (every subcommand also takes [`HELP`]).
    flags: &'static [&'static [Flag]],
    help: &'static str,
    /// Default cluster size, for the subcommands that build a cluster.
    nodes: u32,
    run: fn(&Opts) -> Result<String, String>,
}

/// One flag: its spellings, the name of its value (`None` for a switch),
/// its help line, and the setter that writes the value into [`Opts`]. The
/// setter gets the flag's spelling, so each error names the flag.
struct Flag {
    name: &'static str,
    short: Option<&'static str>,
    value: Option<&'static str>,
    help: &'static str,
    set: fn(&mut Opts, &str, &str) -> Result<(), String>,
}

/// Everything one command line sets: every flag's target and the operands.
struct Opts {
    cmd: &'static Cmd,
    operands: Vec<String>,
    help: bool,
    builtin: bool,
    /// The simulated cluster, `--nodes` included.
    cluster: ClusterSpec,
    seed: u64,
    trace: Option<String>,
    /// The runtime knobs, in the one typed value the cluster consumes.
    run: RunOptions,
    launch: LaunchConfig,
    args: Vec<CliArg>,
    streams: usize,
    graph: usize,
    checkpoint: Option<String>,
    restore: Option<String>,
    verbose: bool,
    jobs: usize,
    tenants: u32,
    policy: ServePolicy,
    queue_depth: usize,
    gap_us: f64,
}

const FAULT: &str = "--fault";
const ARG: &str = "--arg";

/// The flags `run` and `serve` share: the cluster and the runtime knobs.
#[rustfmt::skip]
const SHARED: &[Flag] = &[
    Flag { name: "--cluster", short: None, value: Some("simd|thread"), help: "target cluster class (default simd)",
        set: |o, _, v| {
            let spec = match v {
                "simd" => ClusterSpec::simd_focused(),
                "thread" => ClusterSpec::thread_focused(),
                other => return Err(format!("unknown cluster `{other}` (simd|thread)")),
            };
            o.cluster = spec.with_nodes(o.cluster.nodes);
            Ok(())
        } },
    Flag { name: "--nodes", short: None, value: Some("N"), help: "cluster size (default 4; serve: 8)",
        set: |o, f, v| Some(num(f, v)?).filter(|&n| n > 0).map(|n| o.cluster.nodes = n)
            .ok_or_else(|| format!("{f}: a cluster needs at least one node")) },
    Flag { name: "--seed", short: None, value: Some("S"), help: "RNG seed for buffer data or the job stream (default 42)",
        set: |o, f, v| num(f, v).map(|s| o.seed = s) },
    Flag { name: "--modeled", short: None, value: None, help: "timing-only: skip functional execution",
        set: |o, _, _| { o.run.fidelity = ExecutionFidelity::Modeled; Ok(()) } },
    Flag { name: "--engine", short: None, value: Some("tree|lane"),
        help: "functional executor (default lane; bytecode and simd are accepted as lane)",
        set: |o, f, v| EngineKind::parse(v).map(|e| o.run.engine = e)
            .ok_or_else(|| format!("{f}: unknown engine `{v}` (tree|lane; bytecode and simd are accepted as lane)")) },
    Flag { name: "--node-threads", short: None, value: Some("N"), help: "intra-node worker threads (default 0 = auto)",
        set: |o, f, v| num(f, v).map(|n| o.run.node_threads = n) },
    Flag { name: FAULT, short: None, value: Some("SPEC"),
        help: "inject a scripted fault, repeatable: kill:node=N@t=T, delay:node=N@t=T[,factor=F], \
               drop:step@t=T, join:node=N@t=T (revive a dead slot, or grow the cluster when N == size)",
        set: |o, _, v| std::mem::take(&mut o.run).fault(v).map(|r| o.run = r) },
    Flag { name: "--trace", short: None, value: Some("PATH"),
        help: "export the simulated-clock timeline as Chrome trace-event JSON (Perfetto)",
        set: |o, _, v| { o.trace = Some(v.into()); Ok(()) } },
];

/// The flags of `run` alone: the launch, its arguments and the session
/// around it.
#[rustfmt::skip]
const RUN: &[Flag] = &[
    Flag { name: "--grid", short: None, value: Some("X[,Y[,Z]]"), help: "grid dimensions (default 64)",
        set: |o, f, v| parse_dim(f, v).map(|d| o.launch.grid = d) },
    Flag { name: "--block", short: None, value: Some("X[,Y[,Z]]"), help: "block dimensions (default 256)",
        set: |o, f, v| parse_dim(f, v).map(|d| o.launch.block = d) },
    Flag { name: ARG, short: None, value: Some("SPEC"),
        help: "the next kernel argument, repeatable: buf:<elems>f32 | buf:<elems>i32 | buf:<bytes> \
               (random data), int:<v> | float:<v> (scalars)",
        set: |o, f, v| parse_arg(f, v).map(|a| o.args.push(a)) },
    Flag { name: "--verbose", short: Some("-v"), value: None,
        help: "per-phase report: which segments ran dense/pred/scalar, range certificates",
        set: |o, _, _| { o.verbose = true; Ok(()) } },
    Flag { name: "--sanitize", short: None, value: None,
        help: "run the dynamic write-race / OOB sanitizer and cross-check the static verifier",
        set: |o, _, _| { o.run.sanitize = true; Ok(()) } },
    Flag { name: "--streams", short: None, value: Some("N"),
        help: "after the verified run, replay the kernel as an N-stream pipeline and report overlap vs serial",
        set: |o, f, v| num(f, v).map(|n| o.streams = n) },
    Flag { name: "--graph", short: None, value: Some("N"),
        help: "after the verified run, capture upload + launch as a launch graph, replay it N times and \
               report cache hits, elided gathers and wire bytes saved",
        set: |o, f, v| num(f, v).map(|n| o.graph = n) },
    Flag { name: "--checkpoint", short: None, value: Some("PATH"),
        help: "after the verified run, write the cluster state (buffers, membership, fault cursor, clock) to PATH",
        set: |o, _, v| { o.checkpoint = Some(v.into()); Ok(()) } },
    Flag { name: "--restore", short: None, value: Some("PATH"),
        help: "resume from a checkpoint instead of fresh uploads; buffer arguments bind to the restored \
               allocations in order (no GPU comparison)",
        set: |o, _, v| { o.restore = Some(v.into()); Ok(()) } },
];

/// The flags of `serve` alone: the synthetic stream and its admission.
#[rustfmt::skip]
const SERVE: &[Flag] = &[
    Flag { name: "--synthetic", short: None, value: Some("jobs=N,tenants=M"),
        help: "synthetic arrival stream shape (default 200, 8)", set: set_synthetic },
    Flag { name: "--policy", short: None, value: Some("fifo|fair"), help: "queue discipline (default fair)",
        set: |o, f, v| ServePolicy::parse(v).map(|p| o.policy = p)
            .ok_or_else(|| format!("{f}: unknown policy `{v}` (fifo|fair)")) },
    Flag { name: "--queue-depth", short: None, value: Some("N"),
        help: "per-tenant admission limit (default 0 = unbounded)",
        set: |o, f, v| num(f, v).map(|n| o.queue_depth = n) },
    Flag { name: "--gap-us", short: None, value: Some("USEC"), help: "mean interarrival gap (default 200)",
        set: |o, f, v| Some(num(f, v)?).filter(|g: &f64| g.is_finite() && *g >= 0.0).map(|g| o.gap_us = g)
            .ok_or_else(|| format!("{f}: `{v}` is not a finite, non-negative gap")) },
];

/// The flag `check` and `lint` share.
#[rustfmt::skip]
const SUITES: &[Flag] = &[
    Flag { name: "--builtin", short: None, value: None,
        help: "every built-in suite kernel at its real launch, instead of a file",
        set: |o, _, _| { o.builtin = true; Ok(()) } },
];

#[rustfmt::skip]
static HELP: Flag = Flag { name: "--help", short: Some("-h"), value: None, help: "print this help",
    set: |o, _, _| { o.help = true; Ok(()) } };

#[rustfmt::skip]
static CMDS: &[Cmd] = &[
    Cmd { name: "analyze", operands: "<kernel.cu>", arity: 1, flags: &[], nodes: 0,
        help: "run the Allgather-distributable & SIMD analyses", run: |o| cmd_analyze(&o.source()?) },
    Cmd { name: "codegen", operands: "<kernel.cu>", arity: 1, flags: &[], nodes: 0,
        help: "print the generated CPU host/kernel modules", run: |o| cmd_codegen(&o.source()?) },
    Cmd { name: "run", operands: "<kernel.cu>", arity: 1, flags: &[SHARED, RUN], nodes: 4,
        help: "migrate and execute on a simulated cluster", run: |o| cmd_run(&o.source()?, o) },
    Cmd { name: "serve", operands: "", arity: 0, flags: &[SHARED, SERVE], nodes: 8,
        help: "drive a synthetic multi-tenant job stream through the admission-controlled serving front-end",
        run: cmd_serve },
    Cmd { name: "check", operands: "<kernel.cu|file.rs>", arity: 1, flags: &[SUITES], nodes: 0,
        help: "static race / bounds / barrier-divergence verifier", run: cmd_check },
    Cmd { name: "lint", operands: "<kernel.cu|file.rs>", arity: 1, flags: &[SUITES], nodes: 0,
        help: "range-analysis lints: dead stores, redundant barriers, constant conditions, unreachable code",
        run: cmd_lint },
    Cmd { name: "coverage", operands: "", arity: 0, flags: &[], nodes: 0,
        help: "classify the built-in Figure-7 kernel suites", run: |_| cmd_coverage() },
];

fn set_synthetic(o: &mut Opts, flag: &str, v: &str) -> Result<(), String> {
    for part in v.split(',') {
        if let Some(n) = part.strip_prefix("jobs=") {
            o.jobs = num(&format!("{flag} jobs"), n)?;
        } else if let Some(n) = part.strip_prefix("tenants=") {
            o.tenants = num(&format!("{flag} tenants"), n)?;
        } else {
            return Err(format!("bad {flag} part `{part}` (use jobs=N,tenants=M)"));
        }
    }
    if o.jobs == 0 || o.tenants == 0 {
        return Err(format!("{flag} needs jobs >= 1 and tenants >= 1"));
    }
    Ok(())
}

fn usage() -> String {
    let names: Vec<&str> = CMDS.iter().map(|c| c.name).collect();
    let mut out = format!("usage: cucc <{}> [args]\n", names.join("|"));
    for c in CMDS {
        out += &format!("\n{:8} {:20} {}", c.name, c.operands, c.help);
    }
    let help = HELP.name;
    out + &format!("\n\n`cucc <command> {help}` lists a command's options")
}

impl Cmd {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten().chain([&HELP])
    }

    /// The subcommand's usage: synopsis, help line and one row per flag.
    fn usage(&self) -> String {
        let synopsis = format!("cucc {} {}", self.name, self.operands);
        let mut out = format!("usage: {} [options]\n{}\n", synopsis.trim_end(), self.help);
        for f in self.flags() {
            let short = f.short.map_or(String::new(), |s| format!("{s}, "));
            let left = format!("  {short}{} {}", f.name, f.value.unwrap_or_default());
            out += &format!("\n{left:30} {}", f.help);
        }
        out
    }
}

/// Read a command line (`args[0]` names the subcommand) through the
/// tables, before any file is opened: a token that spells one of the
/// subcommand's flags sets it, any other `-…` token is an unknown option,
/// and the rest are operands, at most the subcommand's arity.
fn parse(args: &[String]) -> Result<Opts, String> {
    let name = args.first().map_or("", String::as_str);
    let cmd = CMDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n{}", usage()))?;
    let mut o = Opts::new(cmd);
    let mut rest = args[1..].iter();
    while let Some(tok) = rest.next() {
        if tok.len() > 1 && tok.starts_with('-') {
            let flag = cmd
                .flags()
                .find(|f| f.name == tok || f.short == Some(tok))
                .ok_or_else(|| format!("unknown option `{tok}`\n{}", cmd.usage()))?;
            let value = flag
                .value
                .map_or(Some(""), |_| rest.next().map(String::as_str));
            let value = value.ok_or_else(|| format!("missing value after `{tok}`"))?;
            (flag.set)(&mut o, flag.name, value)?;
        } else if o.operands.len() < cmd.arity {
            o.operands.push(tok.clone());
        } else {
            return Err(format!("unexpected argument `{tok}`\n{}", cmd.usage()));
        }
    }
    Ok(o)
}

/// A flag's numeric value; the error names the flag.
fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

impl Opts {
    fn new(cmd: &'static Cmd) -> Opts {
        Opts {
            cmd,
            operands: Vec::new(),
            help: false,
            builtin: false,
            cluster: ClusterSpec::simd_focused().with_nodes(cmd.nodes),
            seed: 42,
            trace: None,
            run: RunOptions::builder(),
            launch: LaunchConfig::new(64u32, 256u32),
            args: Vec::new(),
            streams: 0,
            graph: 0,
            checkpoint: None,
            restore: None,
            verbose: false,
            jobs: 200,
            tenants: 8,
            policy: ServePolicy::Fair,
            queue_depth: 0,
            gap_us: 200.0,
        }
    }

    /// The one operand, or the subcommand's usage when it is missing.
    fn path(&self) -> Result<&String, String> {
        self.operands.first().ok_or_else(|| self.cmd.usage())
    }

    /// The text of the file the operand names.
    fn source(&self) -> Result<String, String> {
        let path = self.path()?;
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }

    /// The kernel sources of the operand: a `.rs` file's embedded kernels,
    /// any other file whole.
    fn kernels(&self) -> Result<Vec<String>, String> {
        let (path, text) = (self.path()?, self.source()?);
        let sources = if path.ends_with(".rs") {
            extract_cuda_kernels(&text)
        } else {
            vec![text]
        };
        if sources.is_empty() {
            return Err(format!("{path}: no `__global__` kernels found"));
        }
        Ok(sources)
    }

    fn modeled(&self) -> bool {
        self.run.fidelity == ExecutionFidelity::Modeled
    }
}

// -------------------------------------------------------------- analyze --

fn cmd_analyze(src: &str) -> Result<String, String> {
    // One parse: the verifier's line numbers come from the same pass.
    let (kernel, map) =
        cucc::ir::parse_kernel_with_map(src).map_err(|e| MigrateError::from(e).to_string())?;
    let ck = compile(kernel).map_err(|e| e.to_string())?;
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
    let (launch, args, bytes) = cucc::analysis::canonical_check_input(&ck.kernel);
    let (k, acc) = (&ck.kernel, &ck.analysis.accesses);
    let facts = LaunchFacts::of(k, Some(acc), launch, &args, |b| bytes[b.index()], None);
    let vr = cucc::analysis::verify(&facts, true, Some(&map));
    out += &format!("  verifier      : {launch}\n");
    out += &vr.render();
    Ok(out)
}

// ---------------------------------------------------------- check, lint --

/// Pull every `__global__ … { … }` kernel out of a text file (balanced
/// braces). Lets `cucc check` run over the mini-CUDA sources embedded in
/// the Rust examples as well as plain `.cu` files.
fn extract_cuda_kernels(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("__global__") {
        let Some(open) = rest[start..].find('{').map(|i| start + i) else {
            break;
        };
        let mut depth = 0usize;
        let close = rest[open..].char_indices().find(|&(_, c)| {
            depth = depth + usize::from(c == '{') - usize::from(c == '}');
            depth == 0
        });
        let Some((len, _)) = close else { break };
        out.push(rest[start..=open + len].to_string());
        rest = &rest[open + len + 1..];
    }
    out
}

/// A built-in kernel's place in the suite table: suite, name, and whether
/// it is annotated as overlapping (MUST findings expected).
type SuiteRow = (&'static str, &'static str, bool);

/// A built-in kernel's real launch: its row, geometry, buffer allocation
/// sizes in bytes (declaration order) and scalar values.
type Builtin<'a> = (SuiteRow, LaunchConfig, &'a [usize], &'a [Value]);

/// One kernel `check` or `lint` examines: parsed, validated and bound to a
/// launch, its arguments and the byte size of the buffer bound to each
/// parameter (parameter `i`'s buffer is `BufferId(i)`).
struct Target {
    /// Where a built-in kernel sits; `None` for a file's kernel, which runs
    /// at the canonical launch with assumed sizes.
    row: Option<SuiteRow>,
    kernel: Kernel,
    map: SourceMap,
    input: (LaunchConfig, Vec<Arg>, Vec<Option<usize>>),
}

impl Target {
    /// Parse and validate `src` and bind it: a built-in kernel at its real
    /// launch with its allocation sizes, otherwise at the canonical check
    /// launch.
    fn new(src: &str, builtin: Option<Builtin>) -> Result<Target, String> {
        let (kernel, map) = cucc::ir::parse_kernel_with_map(src).map_err(|e| e.to_string())?;
        cucc::ir::validate(&kernel).map_err(|e| format!("{}: {e}", kernel.name))?;
        let row = builtin.map(|b| b.0);
        let input = match builtin {
            None => cucc::analysis::canonical_check_input(&kernel),
            Some((_, launch, bytes, scalars)) => {
                let (mut bytes, mut scalars) = (bytes.iter(), scalars.iter());
                let bind = |(i, p): (usize, &Param)| match p {
                    Param::Buffer { .. } => {
                        (Arg::Buffer(BufferId(i as u32)), bytes.next().copied())
                    }
                    Param::Scalar { .. } => (Arg::Scalar(*scalars.next().unwrap()), None),
                };
                let (args, bytes) = kernel.params.iter().enumerate().map(bind).unzip();
                (launch, args, bytes)
            }
        };
        Ok(Target {
            row,
            kernel,
            map,
            input,
        })
    }

    /// The target's launch facts: its one compile and range analysis,
    /// which `verify` and `lint` share.
    fn facts(&self) -> LaunchFacts<'_> {
        let (launch, args, bytes) = &self.input;
        let size_of = |b: BufferId| bytes[b.index()];
        LaunchFacts::of(&self.kernel, None, *launch, args, size_of, None)
    }

    fn verify(&self, facts: &LaunchFacts) -> VerifyReport {
        cucc::analysis::verify(facts, self.row.is_none(), Some(&self.map))
    }

    fn lint(&self, facts: &LaunchFacts) -> Result<LintReport, String> {
        let name = &self.kernel.name;
        cucc::analysis::lint_kernel(facts, Some(&self.map)).map_err(|e| format!("{name}: {e}"))
    }

    /// The heading of a file kernel's report.
    fn heading(&self) -> String {
        let name = &self.kernel.name;
        format!("kernel `{name}` at canonical grid 64 × block 256:\n")
    }
}

/// What `check` and `lint` examine: every built-in suite kernel at its
/// real launch when `--builtin` is given (and no path), otherwise the
/// kernels of the one path named.
fn targets(o: &Opts) -> Result<Vec<Target>, String> {
    use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Expected, Scale};
    if !o.builtin {
        return o.kernels()?.iter().map(|s| Target::new(s, None)).collect();
    }
    if let Some(path) = o.operands.first() {
        return Err(format!("unexpected argument `{path}`\n{}", o.cmd.usage()));
    }
    let mut out = Vec::new();
    for (suite, kernels) in [
        ("Triton (BERT+ViT)", triton_kernels()),
        ("Hetero-Mark", heteromark_kernels()),
    ] {
        for k in &kernels {
            let row = (suite, k.name, k.expected != Expected::Distributable);
            let real = (row, k.launch, &k.buffer_bytes[..], &k.scalars[..]);
            out.push(Target::new(&k.source, Some(real))?);
        }
    }
    for b in perf_suite(Scale::Test) {
        let bytes: Vec<usize> = b.buffers().iter().map(Vec::len).collect();
        let (row, scalars) = (("perf (Fig. 9)", b.name(), false), b.scalars());
        out.push(Target::new(
            &b.source(),
            Some((row, b.launch(), &bytes, &scalars)),
        )?);
    }
    Ok(out)
}

/// Verify each target. A file's kernels fail the command on any MUST-level
/// finding; the built-in sweep tolerates them only on kernels annotated as
/// overlapping (`Expected::Overlap/Indirect`), which is what CI runs.
fn cmd_check(o: &Opts) -> Result<String, String> {
    let targets = targets(o)?;
    let mut out = String::new();
    if o.builtin {
        out += "kernel verifier over the built-in suites (real launches):\n";
    }
    let mut flagged = Vec::new();
    for t in &targets {
        let facts = t.facts();
        let report = t.verify(&facts);
        let Some((suite, name, annotated)) = t.row else {
            out += &t.heading();
            out += &report.render();
            if report.has_must() {
                flagged.push(t.kernel.name.clone());
            }
            continue;
        };
        let lint = t.lint(&facts)?;
        let [race, bounds, barrier] =
            [report.race, report.bounds, report.barrier].map(|v| v.to_string());
        let ((certified, accesses), lints) = (lint.cert_stats, lint.diagnostics.len());
        let note = match (annotated, report.has_must()) {
            (true, true) => "  (expected: overlapping writes)",
            _ => "",
        };
        out += &format!(
            "  {suite:18} {name:22} race {race:<12} bounds {bounds:<12} barrier {barrier:<12} \
             certs {certified}/{accesses} lint {lints}{note}\n"
        );
        if report.has_must() && !annotated {
            flagged.push(format!("{suite}/{name}"));
        }
    }
    let (n, musts, flagged) = (targets.len(), flagged.len(), flagged.join(", "));
    match (o.builtin, musts) {
        (false, 0) => Ok(out),
        (false, _) => Err(format!(
            "{out}{musts} kernel(s) with MUST-level diagnostics"
        )),
        (true, 0) => Ok(format!(
            "{out}{n} kernels checked; MUST findings confined to annotated overlapping kernels\n"
        )),
        (true, _) => Err(format!(
            "{out}unexpected MUST-level diagnostics on: {flagged}"
        )),
    }
}

/// Lint each target. Lints are advisory (all `Info`), so this never fails
/// on a finding; the built-in sweep prints them for review.
fn cmd_lint(o: &Opts) -> Result<String, String> {
    let targets = targets(o)?;
    let mut out = String::new();
    if o.builtin {
        out += "range-analysis lints over the built-in suites (real launches):\n";
    }
    let mut findings = 0usize;
    for t in &targets {
        let report = t.lint(&t.facts())?;
        findings += report.diagnostics.len();
        let Some((suite, name, _)) = t.row else {
            out += &t.heading();
            out += &report.render();
            continue;
        };
        out += &format!("  {suite:18} {name:22} {}\n", report.summary());
        for d in &report.diagnostics {
            out += &format!("    {d}\n");
        }
    }
    if o.builtin {
        out += &format!("{} kernels linted, {findings} finding(s)\n", targets.len());
    }
    Ok(out)
}

fn cmd_codegen(src: &str) -> Result<String, String> {
    let ck = compile_source(src).map_err(|e| e.to_string())?;
    let (host, kernel) = (generate_host_module(&ck), generate_kernel_module(&ck));
    Ok(format!("{host}\n{kernel}"))
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
    if parts.contains(&0) {
        return Err(format!("{flag}: `{s}` has a zero extent"));
    }
    Ok(dim)
}

/// One `--arg` value.
fn parse_arg(flag: &str, spec: &str) -> Result<CliArg, String> {
    let bad = |what: &str| format!("bad {what} `{spec}`");
    match spec.split_once(':') {
        Some(("buf", n)) => {
            let size = |n: &str| n.parse().map_err(|_| bad("buffer size"));
            match (n.strip_suffix("f32"), n.strip_suffix("i32")) {
                (Some(n), _) => size(n).map(CliArg::BufF32),
                (_, Some(n)) => size(n).map(CliArg::BufI32),
                _ => size(n).map(CliArg::BufBytes),
            }
        }
        Some(("int", v)) => v.parse().map(CliArg::Int).map_err(|_| bad("int")),
        Some(("float", v)) => v.parse().map(CliArg::Float).map_err(|_| bad("float")),
        _ => Err(format!(
            "bad {flag} `{spec}` (use buf:<n>[f32|i32], int:<v>, float:<v>)"
        )),
    }
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
        CliArg::BufF32(n) => HostArg::Buffer(
            (0..*n)
                .flat_map(|_| rng.gen_range(-1.0f32..1.0).to_le_bytes())
                .collect(),
        ),
        CliArg::BufI32(n) => HostArg::Buffer(
            (0..*n)
                .flat_map(|_| rng.gen_range(-100i32..100).to_le_bytes())
                .collect(),
        ),
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

fn cmd_serve(opts: &Opts) -> Result<String, String> {
    let spec = &opts.cluster;
    let config = ServeConfig {
        policy: opts.policy,
        queue_depth: opts.queue_depth,
        options: opts.run.clone(),
    };
    let mut srv = JobServer::new(spec.clone(), config).map_err(|e| e.to_string())?;
    check_fault_nodes(&opts.run.faults, srv.cluster().num_nodes())?;
    let stream = synthetic_stream(opts.jobs, opts.tenants, opts.seed, opts.gap_us * 1e-6);
    let report = srv.run(&stream).map_err(|e| e.to_string())?;

    let mut out = format!(
        "serving {} job(s) from {} tenant(s) on {} × {} (policy {}, queue depth {})\n",
        opts.jobs,
        opts.tenants,
        spec.nodes,
        spec.cpu.name,
        opts.policy.label(),
        match opts.queue_depth {
            0 => "unbounded".to_string(),
            d => d.to_string(),
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
        out += &format!("  {}", write_trace(path, srv.timeline())?);
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
                    "{FAULT} {e}: node {node} never exists (node ids stay below {bound}: \
                     {num_nodes} node(s) + {joins} join(s))"
                ));
            }
        }
    }
    Ok(())
}

fn fnv1a(data: &[u8]) -> u64 {
    let step = |h: u64, b: &u8| (h ^ *b as u64).wrapping_mul(0x100000001b3);
    data.iter().fold(0xcbf29ce484222325, step)
}

fn cmd_run(src: &str, opts: &Opts) -> Result<String, String> {
    let ck = compile_source(src).map_err(|e| e.to_string())?;
    let launch = opts.launch;
    let spec = opts.cluster.clone();
    let n_buffers = ck.kernel.buffer_params().count();
    let scalar = |a: &&CliArg| matches!(a, CliArg::Int(_) | CliArg::Float(_));
    let n_buf_args = opts.args.len() - opts.args.iter().filter(scalar).count();
    if opts.args.len() != ck.kernel.params.len() || n_buf_args != n_buffers {
        return Err(format!(
            "kernel `{}` takes {} parameter(s) ({} buffer(s)); got {} {ARG} ({} buffer(s))",
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
        spec.nodes,
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
    let gpu_time = if opts.modeled() {
        gpu.time_only(&ck.kernel, launch, &gargs)
            .map_err(|e| e.to_string())?
    } else {
        gpu.launch(&ck.kernel, launch, &gargs)
            .map_err(|e| e.to_string())?
            .time
    };
    out += &format!("  A100 (roofline reference): {:.3} ms\n", gpu_time * 1e3);

    let (mut cl, cargs) = if let Some(path) = &opts.restore {
        // Resume mid-job: buffers already live in the image, in the same
        // allocation order the fresh run would have created them.
        let cl = CuccCluster::restore_from(spec.clone(), opts.run.clone(), path)
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
        let mut cl = CuccCluster::with_options(spec.clone(), opts.run.clone());
        let cargs = bind_args(&host, |bytes| {
            let id = cl.alloc(bytes.len());
            cl.upload(id, bytes).unwrap();
            id
        });
        (cl, cargs)
    };
    check_fault_nodes(&opts.run.faults, cl.num_nodes())?;
    let cl_handles = buffers_of(&cargs);
    let wall0 = std::time::Instant::now();
    let report = cl.launch(&ck, launch, &cargs).map_err(|e| e.to_string())?;
    let wall = wall0.elapsed().as_secs_f64();
    out += &match &report.mode {
        ExecMode::ThreePhase {
            partial_blocks_per_node: p,
            callback_blocks: c,
            ..
        } => {
            format!("  mode: three-phase ({p} partial blocks/node, {c} callbacks)\n")
        }
        ExecMode::Replicated { cause } => {
            format!(
                "  mode: replicated ({})\n",
                cucc::analysis::cause_diagnostic(cause)
            )
        }
    };
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
    let (ratio, verdict) = if report.time() > gpu_time {
        (report.time() / gpu_time, "slower")
    } else {
        (gpu_time / report.time(), "faster")
    };
    out += &format!("  vs A100: {ratio:.2}x {verdict}\n");

    if let Some(path) = &opts.checkpoint {
        let size = cl.checkpoint_to(path).map_err(|e| e.to_string())?;
        out += &format!(
            "  checkpoint: wrote {path} ({size} B, epoch {}, {}/{} node(s) alive)\n",
            cl.epoch(),
            cl.active_nodes(),
            cl.num_nodes(),
        );
    }

    if !opts.modeled() && opts.restore.is_none() {
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

    if opts.modeled() {
        out += &format!(
            "  engine: {} (modeled run, blocks not executed)\n",
            opts.run.engine
        );
    } else {
        // Blocks node 0 really executed (partial slice + callbacks).
        let blocks = report.node_stats.blocks;
        let threads = match opts.run.node_threads {
            0 => "auto".to_string(),
            n => n.to_string(),
        };
        out += &format!(
            "  engine: {} ({threads} node-threads): {blocks} blocks/node in {:.3} ms wall, {:.0} blocks/s\n",
            opts.run.engine,
            wall * 1e3,
            blocks as f64 / wall.max(1e-9)
        );
    }

    if opts.verbose {
        // Per-phase batch/vector report: which phases ran dense,
        // predicated, or scalar.
        // Range-analysis certification at the real allocation sizes:
        // certified accesses run bounds-check-free in the engine.
        let size_of = |b: BufferId| {
            (cargs.iter().zip(&host)).find_map(|(a, h)| match (a, h) {
                (Arg::Buffer(id), HostArg::Buffer(bytes)) if *id == b => Some(bytes.len()),
                _ => None,
            })
        };
        let acc = Some(&ck.analysis.accesses);
        let facts = LaunchFacts::of(&ck.kernel, acc, launch, &cargs, size_of, None);
        match &facts.compiled {
            Ok(c) => {
                out += "  vectorization (per phase):\n";
                for line in c.program.phase_summary().lines() {
                    out += &format!("    {line}\n");
                }
                let (c, t) = c.ranges.stats();
                out += &format!(
                    "  range certs: {c}/{t} accesses certified in-bounds (unchecked fast path)\n"
                );
            }
            Err(e) => out += &format!("  vectorization: unavailable ({e})\n"),
        }
        out += &format!("  simd analysis: {}\n", ck.analysis.simd.summary());
    }

    if opts.streams > 0 {
        // Replay the kernel as a pipeline of independent replicas — fresh
        // buffers, async h2d + launch per replica, round-robin over the
        // streams — and compare the simulated elapsed time against the
        // same pipeline on the default stream.
        let replicas = opts.streams * 3;
        let run_pipe = |nstreams: usize| -> Result<f64, String> {
            let mut cl = CuccCluster::with_options(spec.clone(), opts.run.clone());
            let streams: Vec<_> = (0..nstreams).map(|_| cl.stream_create()).collect();
            for r in 0..replicas {
                let stream = streams.get(r % nstreams.max(1)).copied();
                let cargs = bind_args(&host, |bytes| {
                    let id = cl.alloc(bytes.len());
                    match stream {
                        Some(s) => cl.upload_on(id, bytes, s).unwrap(),
                        None => cl.upload(id, bytes).unwrap(),
                    }
                    id
                });
                match stream {
                    Some(s) => cl.launch_on(&ck, launch, &cargs, s),
                    None => cl.launch(&ck, launch, &cargs),
                }
                .map_err(|e| e.to_string())?;
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
        let mut gcl = CuccCluster::with_options(spec.clone(), opts.run.clone());
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
        if !opts.modeled() {
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
        out += &format!("\n{}", write_trace(path, cl.timeline())?);
    }
    Ok(out)
}

/// Export `timeline` as Chrome trace-event JSON to `path`, and say so.
fn write_trace(path: &str, timeline: &cucc::trace::Timeline) -> Result<String, String> {
    std::fs::write(path, timeline.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    let spans = timeline.spans().len();
    Ok(format!(
        "trace: {spans} span(s) written to {path} (load in https://ui.perfetto.dev)\n"
    ))
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
    use proptest::prelude::*;

    /// Parse `argv` as the command line `cucc <cmd> argv…`.
    fn cli(cmd: &str, argv: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = std::iter::once(cmd)
            .chain(argv.iter().copied())
            .map(String::from)
            .collect();
        parse(&args)
    }

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
        let opts = cli(
            "run",
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
            ],
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
        let opts = cli(
            "run",
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
            ],
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
            let opts = cli(
                "run",
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
                ],
            )
            .unwrap();
            let out = cmd_run(SAXPY, &opts).unwrap();
            assert!(out.contains(&format!("engine: {reported}")), "{out}");
            assert!(out.contains("blocks/s"), "{out}");
            assert!(out.contains("matches GPU"), "{out}");
        }
        assert!(cli("run", &["--engine", "jit"]).is_err());
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
        let mut first = common.to_vec();
        for extra in [
            "--fault",
            "kill:node=3@t=0",
            "--fault",
            "join:node=4@t=0",
            "--checkpoint",
            &path_str,
        ] {
            first.push(extra);
        }
        let opts = cli("run", &first).unwrap();
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("faults: 1 node failure"), "{out}");
        assert!(out.contains("checkpoint: wrote"), "{out}");
        assert!(out.contains("4/5 node(s) alive"), "{out}");

        // Restore into a new process at the grown shape and resume. The
        // same fault plan rides along; the image's cursor marks both
        // events consumed, so neither refires.
        let mut second = common.to_vec();
        second[1] = "5"; // --nodes 5: the image's grown shape
        for extra in [
            "--fault",
            "kill:node=3@t=0",
            "--fault",
            "join:node=4@t=0",
            "--restore",
            &path_str,
        ] {
            second.push(extra);
        }
        let opts = cli("run", &second).unwrap();
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
        let opts = cli(
            "run",
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
            ],
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

    fn opts_for_saxpy() -> Opts {
        cli(
            "run",
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
            ],
        )
        .unwrap()
    }

    #[test]
    fn run_with_streams_reports_overlap() {
        let opts = cli(
            "run",
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
            ],
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
        let opts = cli(
            "run",
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
            ],
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
        let opts = cli("run", &["--arg", "buf:64f32"]).unwrap();
        let err = cmd_run(SAXPY, &opts).unwrap_err();
        assert!(err.contains("takes 4 parameter"), "{err}");
    }

    #[test]
    fn option_parsing() {
        let o = cli(
            "run",
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
            ],
        )
        .unwrap();
        assert_eq!(o.cluster, ClusterSpec::thread_focused().with_nodes(4));
        assert_eq!(o.launch.grid, Dim3::new2(4, 4));
        assert_eq!(o.launch.block, Dim3::new2(16, 16));
        assert!(o.modeled());
        assert_eq!(o.seed, 7);
        assert!(cli("run", &["--bogus"]).is_err());
        assert!(parse_arg("--arg", "buf:xyz").is_err());
        assert!(parse_arg("--arg", "frob:1").is_err());
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
        // Help after a subcommand lists its flags and reads no file.
        let help =
            |argv: &[&str]| dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let run_help = help(&["run", "--help"]).unwrap();
        assert!(run_help.contains("--node-threads N"), "{run_help}");
        assert!(help(&["serve", "-h"]).unwrap().contains("--queue-depth N"));
        assert!(help(&["--help"]).unwrap().contains("coverage"));
        // A stray operand or an unknown option is an error with the
        // subcommand's usage, before any file is read.
        for argv in [
            &["coverage", "extra"][..],
            &["check", "--builtin", "extra"],
            &["lint", "a.cu", "--builtin"],
            &["analyze", "a.cu", "b.cu"],
            &["codegen", "k.cu", "--bogus"],
            &["serve", "extra"],
        ] {
            let err = help(argv).unwrap_err();
            assert!(
                err.contains(&format!("usage: cucc {}", argv[0])),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn run_restore_refuses_a_buffer_the_image_never_held() {
        let dir = std::env::temp_dir();
        let (one, saxpy) = (
            dir.join("cucc_restore_one.cu"),
            dir.join("cucc_restore_saxpy.cu"),
        );
        let ckpt = dir.join("cucc_restore_one.ckpt");
        std::fs::write(
            &one,
            "__global__ void one(float* x, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = 2.0f * x[id];
            }",
        )
        .unwrap();
        std::fs::write(&saxpy, SAXPY).unwrap();
        let run = |src: &std::path::Path, args: &[&str], image: &str| {
            let mut argv = vec!["run", src.to_str().unwrap(), "--grid", "4", "--block", "64"];
            for a in args {
                argv.extend(["--arg", a]);
            }
            argv.extend([image, ckpt.to_str().unwrap()]);
            dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        run(&one, &["buf:256f32", "int:256"], "--checkpoint").unwrap();
        let saxpy_args = ["buf:256f32", "buf:256f32", "float:2", "int:256"];
        let err = run(&saxpy, &saxpy_args, "--restore").unwrap_err();
        for f in [&one, &saxpy, &ckpt] {
            std::fs::remove_file(f).ok();
        }
        assert!(err.contains("buffer id 1 was never allocated"), "{err}");
    }

    /// Every flag spelling the tables hold, and stray options and operands.
    fn flag_tokens() -> Vec<&'static str> {
        let spelled = CMDS
            .iter()
            .flat_map(|c| c.flags())
            .flat_map(|f| [Some(f.name), f.short]);
        let strays = ["extra", "a.cu", "-", "--", "-x", "--bogus", "run"];
        spelled.flatten().chain(strays).collect()
    }

    /// Hostile values, and a few that some flag accepts.
    fn value_tokens() -> Vec<&'static str> {
        vec![
            "",
            "-1",
            "18446744073709551616",
            "nan",
            "inf",
            "1,,2",
            "0,0,0",
            "jobs=",
            "kill:node=",
            "4294967295,4294967295,4294967295",
            "buf:",
            "int:",
            "tenants=0",
            "jobs=1,tenants=",
            "1",
            "4,4",
            "simd",
            "fifo",
            "kill:node=1@t=0",
            "buf:64f32",
            "jobs=5,tenants=2",
            "--help",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// For every subcommand, the parser answers `Ok` or `Err` on any
        /// line of (flag, value) pairs and stray tokens built from the
        /// tables' own spellings and hostile values, and never panics; it
        /// opens no file and runs no kernel.
        #[test]
        fn parser_never_panics(
            pairs in prop::collection::vec(
                (prop::sample::select(flag_tokens()), prop::sample::select(value_tokens())),
                0..6,
            ),
            stray in prop::sample::select(flag_tokens()),
        ) {
            for cmd in CMDS {
                let words = pairs.iter().flat_map(|&(f, v)| [f, v]).chain([stray]);
                let argv: Vec<String> = std::iter::once(cmd.name).chain(words).map(String::from).collect();
                if let Ok(o) = parse(&argv) {
                    prop_assert!(o.operands.len() <= o.cmd.arity);
                }
                let short = &argv[..argv.len() - 1];
                if let Ok(o) = parse(short) {
                    prop_assert!(o.operands.len() <= o.cmd.arity);
                }
            }
        }
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
        let out = cmd_check(&cli("check", &[clean.to_str().unwrap()]).unwrap()).unwrap();
        std::fs::remove_file(&clean).ok();
        assert!(out.contains("all checks pass"), "{out}");

        let racy = dir.join("cucc_check_racy.cu");
        std::fs::write(
            &racy,
            "__global__ void k(int* out) { out[threadIdx.x] = 1; }",
        )
        .unwrap();
        let err = cmd_check(&cli("check", &[racy.to_str().unwrap()]).unwrap()).unwrap_err();
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
            let t = Target::new(k, None).unwrap();
            let report = t.verify(&t.facts());
            assert!(!report.has_must(), "{report:?}");
        }
    }

    #[test]
    fn check_builtin_suites_have_no_unexpected_musts() {
        let out = dispatch(&["check", "--builtin"].map(String::from)).unwrap();
        assert!(out.contains("kernels checked"), "{out}");
    }

    #[test]
    fn run_with_sanitizer_reports_clean() {
        let opts = cli(
            "run",
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
            ],
        )
        .unwrap();
        assert!(opts.run.sanitize);
        let out = cmd_run(SAXPY, &opts).unwrap();
        assert!(out.contains("sanitizer: clean"), "{out}");
        assert!(out.contains("matches GPU"), "{out}");
    }

    #[test]
    fn serve_opts_parse_synthetic_and_policy() {
        let opts = cli(
            "serve",
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
            ],
        )
        .unwrap();
        assert_eq!(opts.jobs, 50);
        assert_eq!(opts.tenants, 5);
        assert_eq!(opts.policy, ServePolicy::Fifo);
        assert_eq!(opts.queue_depth, 8);
        assert_eq!(opts.cluster.nodes, 6);
        assert!((opts.gap_us - 50.0).abs() < 1e-12);
        assert!(cli("serve", &["--policy", "lifo"]).is_err());
        assert!(cli("serve", &["--synthetic", "depth=2"]).is_err());
        for gap in ["nan", "inf", "-5"] {
            let err = cli("serve", &["--gap-us", gap]).err();
            assert!(err.is_some_and(|e| e.contains("--gap-us")), "{gap}");
        }
    }

    #[test]
    fn serve_reports_latency_summary_per_tenant() {
        let opts = cli(
            "serve",
            &[
                "--synthetic",
                "jobs=80",
                "--queue-depth",
                "32",
                "--nodes",
                "4",
            ],
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
            cmd_run(SAXPY, &cli("run", &argv).unwrap())
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
            cmd_serve(&cli("serve", &argv).unwrap())
        };
        let err = serve("kill:node=50@t=0").unwrap_err();
        assert!(err.contains("node 50 never exists"), "{err}");
        assert!(err.contains("below 8: 8 node(s) + 0 join(s)"), "{err}");
        serve("kill:node=7@t=0").unwrap();
    }

    #[test]
    fn run_opts_fold_into_run_options() {
        let opts = cli(
            "run",
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
            ],
        )
        .unwrap();
        // The runtime knobs fold into the cluster's options; the session
        // flags stay beside them, where `cmd_run` reads them.
        let ro = &opts.run;
        assert_eq!(ro.fidelity, ExecutionFidelity::Modeled);
        assert_eq!(ro.node_threads, 2);
        assert!(!ro.faults.is_empty());
        assert_eq!((opts.streams, opts.graph), (3, 5));
        assert!(opts.checkpoint.is_some());
        assert!(opts.restore.is_none());
    }
}
