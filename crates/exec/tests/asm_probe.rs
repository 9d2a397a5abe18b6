//! Disassembly regression for the lane-loop bounds checks.
//!
//! `lane.rs`'s chunk loops stage lane values in `[u64; LANES]` temporaries
//! indexed by `i < nl`; the code restates `nl = nl.min(LANES)` so the
//! optimizer can prove the indexing in-bounds and drop the panicking
//! checks. This test pins that down: it disassembles the
//! `#[inline(never)]` probe shells around the checked and
//! certificate-elided gather/scatter paths (`cucc_exec::lane::probe`) in
//! this very test binary and fails if any `panic_bounds_check` (or any
//! panic at all on the elided path, whose only checks are
//! `debug_assert!`s) reappears.
//!
//! The same disassembly reports the row loops `op_full` picks per
//! (operator, kinds): one probe per row-op class (int binary, float binary,
//! compare, cast, unary, intrinsic, mul-add), each with its instruction
//! count and whether its loop body is packed (`*pd`, `p*`/`vp*`) or scalar
//! (`*sd`, calls). `ROW_PROBES` pins "packed" for every class that is.
//!
//! A divergent chunk adds two row passes: the masked row store (a register
//! op's result lanes blended into its row under the active-lane mask) and
//! the `ForNext` row pass. Their probes must carry no bounds-check panic
//! either; their instruction counts are reported beside the row loops'.
//!
//! Only meaningful with optimizations on — debug builds keep every bounds
//! check by design — so the assertions are release-only; the test also
//! skips (loudly) if `objdump` is unavailable.

use cucc_exec::lane::{probe, LANES};
use std::process::Command;

/// Disassemble the current test executable and return the instruction
/// lines of every symbol whose demangled name contains `needle`.
fn disasm_symbols(needle: &str) -> Vec<(String, Vec<String>)> {
    let exe = std::env::current_exe().unwrap();
    let out = Command::new("objdump")
        .args(["-d", "--demangle"])
        .arg(&exe)
        .output()
        .expect("objdump failed to spawn");
    assert!(out.status.success(), "objdump exited nonzero");
    let text = String::from_utf8_lossy(&out.stdout);

    let mut found = Vec::new();
    let mut current: Option<(String, Vec<String>)> = None;
    for line in text.lines() {
        // Symbol headers look like `0000000000042 <name>:`.
        if line.ends_with(">:") {
            if let Some(sym) = current.take() {
                found.push(sym);
            }
            if line.contains(needle) {
                current = Some((line.to_string(), Vec::new()));
            }
        } else if let Some((_, body)) = current.as_mut() {
            if line.trim().is_empty() {
                found.push(current.take().unwrap());
            } else {
                body.push(line.to_string());
            }
        }
    }
    if let Some(sym) = current.take() {
        found.push(sym);
    }
    found
}

#[test]
fn lane_loops_carry_no_bounds_check_panics() {
    // Force codegen of the probe shells into this binary: take their
    // addresses through black_box so the linker cannot strip them.
    let probes: [*const (); 6] = [
        probe::gather_checked as *const (),
        probe::gather_elided as *const (),
        probe::scatter_checked as *const (),
        probe::scatter_elided as *const (),
        probe::masked_store as *const (),
        probe::for_next as *const (),
    ];
    std::hint::black_box(probes);
    let _ = LANES;

    if cfg!(debug_assertions) {
        eprintln!("skipping: bounds checks are expected in unoptimized builds");
        return;
    }
    if Command::new("objdump").arg("--version").output().is_err() {
        eprintln!("skipping: objdump not available");
        return;
    }

    let syms = disasm_symbols("lane::probe::");
    let names: Vec<&str> = syms.iter().map(|(h, _)| h.as_str()).collect();
    for expect in [
        "gather_checked",
        "gather_elided",
        "scatter_checked",
        "scatter_elided",
        "masked_store",
        "for_next",
    ] {
        assert!(
            names.iter().any(|n| n.contains(expect)),
            "probe symbol `{expect}` missing from disassembly: {names:?}"
        );
    }

    for (header, body) in &syms {
        let hits: Vec<&String> = body
            .iter()
            .filter(|l| l.contains("panic_bounds_check"))
            .collect();
        assert!(
            hits.is_empty(),
            "bounds-check panic survived in {header}:\n{}",
            hits.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // The elided flavours' only checks are debug_asserts, compiled out
        // here — no panicking call of any kind should remain.
        if header.contains("elided") {
            let panics: Vec<&String> = body.iter().filter(|l| l.contains("panicking")).collect();
            assert!(
                panics.is_empty(),
                "panic path survived in elided probe {header}:\n{}",
                panics
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

/// What one row-op probe's disassembly holds.
#[derive(Debug, Default)]
struct Census {
    insts: usize,
    /// Packed arithmetic: `*pd`/`*ps` ops other than moves and shuffles,
    /// and the SSE/AVX integer ops (`p*`, `vp*`).
    packed: usize,
    /// Scalar float arithmetic (`*sd`/`*ss` ops other than moves).
    scalar: usize,
    calls: usize,
}

impl Census {
    fn of(body: &[String]) -> Census {
        let mut c = Census::default();
        for line in body {
            // `  addr:\tbytes \tmnemonic operands`
            let Some(asm) = line.split('\t').nth(2) else {
                continue;
            };
            let mut words = asm.split_whitespace();
            let Some(m) = words.next() else { continue };
            let ops = words.next().unwrap_or("");
            c.insts += 1;
            let m = m.strip_prefix('v').unwrap_or(m);
            let moves = [
                "mov",
                "unpck",
                "shuf",
                "pshuf",
                "punpck",
                "blend",
                "perm",
                "extract",
                "insert",
                "broadcast",
            ];
            let is_move = moves.iter().any(|p| m.starts_with(p));
            // `xorps %xmm0,%xmm0` zeroes a register; it computes nothing.
            let zeroing = m.starts_with("xorp") && {
                let regs: Vec<&str> = ops.split(',').collect();
                regs.len() >= 2 && regs[0] == regs[1]
            };
            let not_simd = ["push", "pop", "pause", "prefetch"];
            let packed = m.ends_with("pd")
                || m.ends_with("ps")
                || (m.starts_with('p') && !not_simd.iter().any(|p| m.starts_with(p)));
            let scalar = ["sd", "ss"].iter().any(|s| m.ends_with(s)) || m.contains("comis");
            if m.starts_with("call") {
                c.calls += 1;
            } else if !(is_move || zeroing) {
                c.packed += usize::from(packed);
                c.scalar += usize::from(scalar && !packed);
            }
        }
        c
    }

    fn body(&self) -> &'static str {
        if self.packed > 0 {
            "packed"
        } else {
            "scalar"
        }
    }
}

/// The row-op classes `lane::probe` holds a loop for, and whether each loop
/// body must be packed. A class pinned `true` fails here when its loop goes
/// scalar again.
const ROW_PROBES: [(&str, bool); 7] = [
    ("int_binary", true),
    ("float_binary", true),
    ("compare", true),
    ("cast", true),
    ("unary", true),
    ("intrinsic", true),
    ("mul_add", true),
];

/// The divergent chunk's row passes: reported, not pinned packed (the
/// `ForNext` pass converts each count to its variable's type).
const MASK_PROBES: [&str; 2] = ["masked_store", "for_next"];

#[test]
fn row_loops_report_their_bodies() {
    let probes: [*const (); 9] = [
        probe::int_binary as *const (),
        probe::float_binary as *const (),
        probe::compare as *const (),
        probe::cast as *const (),
        probe::unary as *const (),
        probe::intrinsic as *const (),
        probe::mul_add as *const (),
        probe::masked_store as *const (),
        probe::for_next as *const (),
    ];
    std::hint::black_box(probes);

    if cfg!(debug_assertions) {
        eprintln!("skipping: unoptimized row loops are scalar by design");
        return;
    }
    if Command::new("objdump").arg("--version").output().is_err() {
        eprintln!("skipping: objdump not available");
        return;
    }

    let syms = disasm_symbols("lane::probe::");
    println!("row loops at LANES = {LANES}:");
    println!(
        "{:<14} {:>6} {:>7} {:>7} {:>6}  body",
        "class", "insts", "packed", "scalar", "calls"
    );
    let rows = ROW_PROBES
        .into_iter()
        .chain(MASK_PROBES.map(|c| (c, false)));
    for (class, pinned) in rows {
        let needle = format!("lane::probe::{class}>:");
        let (_, body) = syms
            .iter()
            .find(|(h, _)| h.ends_with(&needle))
            .unwrap_or_else(|| panic!("probe `{class}` missing from disassembly"));
        let c = Census::of(body);
        println!(
            "{class:<14} {:>6} {:>7} {:>7} {:>6}  {}",
            c.insts,
            c.packed,
            c.scalar,
            c.calls,
            c.body()
        );
        assert!(
            !body.iter().any(|l| l.contains("panic_bounds_check")),
            "bounds-check panic in row loop `{class}`"
        );
        if pinned {
            assert_eq!(c.body(), "packed", "row loop `{class}` went scalar: {c:?}");
        }
    }
}
