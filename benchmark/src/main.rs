//! CuCC-rs host wall-clock benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cucc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! cucc-benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N]
//! ```
//!
//! `--workload` runs one workload in this process and prints one JSON
//! object as the last line of standard output. `--all` runs every workload,
//! each in a fresh child process, prints every end-to-end metric by name
//! and unit, and writes `benchmark/out/results.json`.

mod inputs;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use cucc::trace::json::{self, Value};
use run::{Length, Outcome};
use spec::{Clock, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: cucc-benchmark (--workload <name> | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--repeat N]";

#[derive(Debug, Clone)]
struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    /// Where a child of `--all` writes its full report.
    report: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        seed: 1,
        seconds: 16.0,
        trace: false,
        smoke: false,
        repeat: 1,
        report: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=8).contains(&cli.repeat) {
                    return Err("--repeat must lie in 1..=8".into());
                }
            }
            "--report" => cli.report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err(format!("give exactly one of --workload and --all\n{USAGE}"));
    }
    Ok(cli)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn length(cli: &Cli) -> Length {
    if cli.smoke {
        Length::Ops(5)
    } else {
        Length::Seconds(cli.seconds)
    }
}

// ---- one workload, in this process ---------------------------------------

/// `{"value": v, "unit": u}` entries for the driver's result line.
fn metrics_json(values: impl Iterator<Item = (&'static str, f64, &'static str)>) -> String {
    let entries: Vec<String> = values
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(name),
                json::fmt_f64(value),
                json::escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let info = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let t0 = Instant::now();
    let mut wl = workloads::build(name, cli.seed).expect("every listed workload builds");
    let prepare = t0.elapsed().as_secs_f64();
    let mut outcome = if cli.trace {
        run::run_traced(wl.as_mut(), length(cli), name)?
    } else {
        run::run_untraced(wl.as_mut(), length(cli))?
    };
    outcome.harness_prepare_s = prepare;

    if let Some(trace) = &outcome.chrome_trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{name}: host-clock trace written to {}", path.display());
    }
    for e in &outcome.errors {
        eprintln!("{name}: FAILED {e}");
    }
    eprintln!(
        "{name} (seed {}, {}): {} ops attempted, {} failed\n  op:  {}\n  why: {}",
        cli.seed,
        if cli.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        info.op,
        info.why
    );
    if let Some(path) = &cli.report {
        let text = report_json(cli, name, &outcome, &wl.conditions());
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The driver's contract: with `--trace 0` every end-to-end metric it
    // gates on, with `--trace 1` every per-layer metric.
    let metrics = if cli.trace {
        metrics_json(
            PER_LAYER
                .iter()
                .map(|m| (m.name, outcome.per_layer[m.name], m.unit)),
        )
    } else {
        metrics_json(
            END_TO_END
                .iter()
                .filter(|m| m.gated_by_driver)
                .map(|m| (m.name, outcome.end_to_end[m.name], m.unit)),
        )
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    Ok(correct)
}

/// The full report of one run, for `--all` to collect: every metric with
/// its unit and clock, sample counts, and the workload's fixed parameters.
fn report_json(
    cli: &Cli,
    name: &str,
    o: &Outcome,
    conditions: &[(&'static str, String)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \
         \"samples\": {}, \"p90_has_ten_samples_beyond\": {}, \"harness_prepare_s\": {}, ",
        json::escape(name),
        cli.seed,
        cli.trace,
        o.attempted,
        o.failed,
        o.samples,
        o.p90_resolved,
        json::fmt_f64(o.harness_prepare_s)
    );
    let errors: Vec<String> = o.errors.iter().map(|e| json::escape(e)).collect();
    let _ = write!(s, "\"errors\": [{}], \"conditions\": {{", errors.join(", "));
    let conds: Vec<String> = conditions
        .iter()
        .map(|(k, v)| format!("{}: {}", json::escape(k), json::escape(v)))
        .collect();
    let _ = write!(s, "{}}}, \"metrics\": {{", conds.join(", "));
    let metric = |name: &str, value: f64, unit: &str, clock: Clock| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"clock\": {}}}",
            json::escape(name),
            json::fmt_f64(value),
            json::escape(unit),
            json::escape(clock.label())
        )
    };
    let metrics: Vec<String> = if cli.trace {
        PER_LAYER
            .iter()
            .map(|m| metric(m.name, o.per_layer[m.name], m.unit, m.clock))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| metric(m.name, o.end_to_end[m.name], m.unit, m.clock))
            .collect()
    };
    let _ = write!(s, "{}}}}}", metrics.join(", "));
    s
}

// ---- every workload, each in a fresh child process ------------------------

/// One workload's child report, parsed.
struct Collected {
    name: &'static str,
    text: String,
    doc: Value,
}

impl Collected {
    fn metric(&self, name: &str) -> f64 {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn number(&self, key: &str) -> f64 {
        self.doc
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }
}

fn run_child(cli: &Cli, name: &'static str, traced: bool, tag: &str) -> Result<Collected, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = dir.join(format!("{name}.{tag}.json"));
    let _ = std::fs::remove_file(&report);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(&report);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its standard error is passed through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let text = std::fs::read_to_string(&report).map_err(|_| {
        format!(
            "{name}: child exited with {} and left no report",
            output.status
        )
    })?;
    let doc = json::parse(&text).map_err(|e| format!("{name}: bad report: {e}"))?;
    Ok(Collected { name, text, doc })
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_end_to_end(set: &[Collected]) {
    println!(
        "\n{:<14} {:<16} {:>16} {:<6} {:<10} {:>7}",
        "workload", "metric", "value", "unit", "clock", "bound"
    );
    for c in set {
        for m in &END_TO_END {
            let bound = if m.bound == 0.0 {
                "exact".to_string()
            } else {
                format!("{:.0} %", m.bound * 100.0)
            };
            println!(
                "{:<14} {:<16} {:>16.6} {:<6} {:<10} {:>7}",
                c.name,
                m.name,
                c.metric(m.name),
                m.unit,
                m.clock.label(),
                bound
            );
        }
        println!(
            "{:<14} {:<16} {:>16} timed ops; ten of them lie beyond op_p90_s: {}",
            c.name,
            "samples",
            c.number("samples"),
            c.doc.get("p90_has_ten_samples_beyond") == Some(&Value::Bool(true)),
        );
    }
}

fn print_per_layer(set: &[Collected]) {
    print!(
        "\n{:<30} {:<6} {:<6}",
        "per-layer metric (per op)", "unit", "better"
    );
    for c in set {
        print!(" {:>16}", c.name);
    }
    println!();
    for m in &PER_LAYER {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        print!("{:<30} {:<6} {:<6}", m.name, m.unit, better);
        for c in set {
            print!(" {:>16.6}", c.metric(m.name));
        }
        println!();
    }
}

/// Compare a later set of runs with the first: every end-to-end metric
/// within its bound, the exact ones exactly.
fn sets_agree(first: &[Collected], later: &[Collected], k: usize) -> bool {
    let mut agree = true;
    println!("\nrepeatability: set 1 beside set {}", k + 1);
    for (a, b) in first.iter().zip(later) {
        for m in &END_TO_END {
            let (x, y) = (a.metric(m.name), b.metric(m.name));
            // Either set may be the worse one.
            let off = stats::worse_than(x, y, m.higher_is_better, m.bound)
                || stats::worse_than(y, x, m.higher_is_better, m.bound);
            agree &= !off;
            println!(
                "{:<14} {:<16} {:>16.6} {:>16.6} {:<6} {}",
                a.name,
                m.name,
                x,
                y,
                m.unit,
                if off { "DISAGREE" } else { "ok" }
            );
        }
    }
    agree
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug (numbers from this build do not count)"
    } else {
        "release"
    };
    let conditions = format!(
        "{{\"available_parallelism\": {cores}, \"rustc\": {}, \"git_commit\": {}, \
         \"build_profile\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"harness\": \"single-threaded, closed loop, one client\"}}",
        json::escape(&command_line("rustc", &["--version"], manifest_dir)),
        json::escape(&command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        json::escape(profile),
        cli.seed,
        json::fmt_f64(cli.seconds),
        cli.smoke,
    );
    println!("conditions: {conditions}");

    let mut ok = true;
    let mut sets: Vec<Vec<Collected>> = Vec::new();
    for k in 0..cli.repeat {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            set.push(run_child(
                cli,
                w.name,
                false,
                &format!("untraced{}", k + 1),
            )?);
        }
        print_end_to_end(&set);
        ok &= set.iter().all(|c| c.number("failed") == 0.0);
        sets.push(set);
    }
    for k in 1..sets.len() {
        ok &= sets_agree(&sets[0], &sets[k], k);
    }
    let mut traced = Vec::new();
    if cli.trace {
        for w in &WORKLOADS {
            traced.push(run_child(cli, w.name, true, "traced")?);
        }
        print_per_layer(&traced);
        ok &= traced.iter().all(|c| c.number("failed") == 0.0);
    }

    let join = |set: &[Collected]| -> String {
        let reports: Vec<&str> = set.iter().map(|c| c.text.as_str()).collect();
        format!("[{}]", reports.join(",\n"))
    };
    let untraced: Vec<String> = sets.iter().map(|s| join(s)).collect();
    let results = format!(
        "{{\"conditions\": {conditions},\n\"untraced_sets\": [{}],\n\"traced\": {}}}\n",
        untraced.join(",\n"),
        join(&traced)
    );
    let path = out_dir().join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\n{}: results and their conditions written to {}",
        if ok { "PASS" } else { "FAIL" },
        path.display()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match &cli.workload {
        Some(name) => run_one(&cli, name),
        None => run_all(&cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
