//! The **kernel verifier**: static race / bounds / barrier-divergence
//! analysis with launch-time resolution.
//!
//! The Allgather-distributable analysis (paper §6) answers *"can this kernel
//! be distributed?"* while silently assuming the kernel is *correct*. A
//! kernel with an inter-block write-write race passes the affine conditions
//! yet produces node-order-dependent results after migration; an
//! out-of-bounds store corrupts different bytes on different nodes. This
//! module reuses the same [`crate::Poly`]/[`AffineForm`]/variance machinery to
//! prove or refute three properties per kernel:
//!
//! 1. **inter-block race freedom** ([`analyze_block_races`]) — pairwise
//!    write-site footprint disjointness across `blockIdx`, via interval,
//!    gcd-stride and exact offset-set reasoning;
//! 2. **in-bounds accesses** — proven only by the range certificates the
//!    launch elides bounds checks on ([`crate::range`], over the kernel
//!    compiled once for the launch); the affine index range of an unproven
//!    access words its MUST/MAY finding;
//! 3. **barrier uniformity** — no `__syncthreads()` under thread-variant
//!    control flow.
//!
//! Verdicts live on a MAY/MUST/UNKNOWN lattice ([`PropertyVerdict`]):
//! `Safe` is a *proof* (the dynamic sanitizer in `cucc-exec::sanitize` must
//! never observe a violation — asserted by `tests/proptest_verify.rs`),
//! `Must` is a proof of violation backed by a concrete witness (and must
//! reproduce dynamically), `May` over-approximates, and `Unknown` records
//! that the analysis gave up (non-affine index, unresolved loop, budget).
//!
//! Results surface as structured [`Diagnostic`]s with rule ids, severities
//! and write-site source locations (via [`cucc_ir::SourceMap`]); the same
//! formatter renders the distributable analysis' [`Reason`]s and the
//! planner's [`ReplicationCause`]s so `cucc analyze` / `cucc check` / `cucc
//! run` share one human-readable rendering.

use crate::distributable::{Access, KernelAccesses, Reason};
use crate::footprint::{
    gcd, Coord, LaunchFacts, LaunchFootprints, ResolvedForm, ResolvedGuard, Site, SiteState,
};
use crate::plan::ReplicationCause;
use cucc_exec::bytecode::Inst;
use cucc_exec::{Arg, BufferId, Program};
use cucc_ir::{barrier_sites, var_variance, Axis, Kernel, LaunchConfig, MemRef, Param, SourceMap};
use std::collections::HashMap;
use std::fmt;

/// Block-shift lattice budget for multi-axis grids.
const DELTA_BUDGET: usize = 1 << 16;
/// Budget for the cross-coefficient full-footprint enumeration.
const PAIR_BUDGET: u64 = 1 << 21;
/// Overlap witnesses tried against tail guards before demoting to MAY.
const WITNESS_TRIES: usize = 64;
/// Diagnostics cap per rule (the first violations are the useful ones).
const DIAG_CAP: usize = 16;

// ------------------------------------------------------------- verdicts --

/// Result of checking one property. Ordered for lattice joins:
/// `Safe < Unknown < May < Must`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PropertyVerdict {
    /// Proven: no execution of this launch can violate the property.
    Safe,
    /// The analysis could not decide (non-affine index, unresolved loop
    /// bounds, enumeration budget exceeded).
    Unknown,
    /// A violation is possible but not proven (over-approximation overlap,
    /// or a witness that may sit behind an unevaluable guard).
    May,
    /// A violation is proven with a concrete witness and will reproduce in
    /// any complete execution of the launch.
    Must,
}

impl PropertyVerdict {
    /// Lattice join (most severe wins).
    pub fn join(self, other: PropertyVerdict) -> PropertyVerdict {
        self.max(other)
    }

    /// True for `Safe`.
    pub fn is_safe(self) -> bool {
        self == PropertyVerdict::Safe
    }
}

impl fmt::Display for PropertyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PropertyVerdict::Safe => "safe",
            PropertyVerdict::Unknown => "unknown",
            PropertyVerdict::May => "may-violate",
            PropertyVerdict::Must => "must-violate",
        })
    }
}

/// Severity of one diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (fallback explanations, unknown verdicts).
    Info,
    /// Possible violation.
    May,
    /// Proven violation.
    Must,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::May => "MAY",
            Severity::Must => "MUST",
        })
    }
}

/// Which verifier rule produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Inter-block write-write race freedom.
    Race,
    /// In-bounds memory accesses.
    Bounds,
    /// Barrier uniformity.
    Barrier,
    /// Distribution decisions (rendered `Reason`s / `ReplicationCause`s).
    Distribute,
    /// Style / dead-code findings from the lint pass (`cucc lint`).
    Lint,
}

impl Rule {
    /// Stable rule identifier used in rendered diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Race => "race",
            Rule::Bounds => "bounds",
            Rule::Barrier => "barrier",
            Rule::Distribute => "distribute",
            Rule::Lint => "lint",
        }
    }
}

/// Source location of the write site (or barrier) a diagnostic refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// Buffer name (empty for barrier sites).
    pub buffer: String,
    /// Pre-order ordinal among the kernel's global writes (or barriers).
    pub ordinal: usize,
    /// 1-based source line, when the kernel came from `parse_kernel_with_map`.
    pub line: Option<u32>,
}

impl SiteRef {
    /// The `ordinal`-th barrier ([`cucc_ir::barrier_sites`] order).
    pub(crate) fn barrier(ordinal: usize, map: Option<&SourceMap>) -> SiteRef {
        SiteRef {
            buffer: String::new(),
            ordinal,
            line: map.and_then(|m| m.barrier_lines.get(ordinal).copied()),
        }
    }
}

/// One structured verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: Rule,
    /// Finding severity.
    pub severity: Severity,
    /// Human explanation.
    pub message: String,
    /// Write-site / barrier location, when one is attributable.
    pub site: Option<SiteRef>,
}

impl Diagnostic {
    /// A site-less diagnostic (attach a [`SiteRef`] afterwards if one is
    /// attributable).
    pub fn new(rule: Rule, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            message,
            site: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.rule.id(), self.message)?;
        if let Some(s) = &self.site {
            if self.rule == Rule::Lint {
                // Lint ordinals count sites of the finding's own kind
                // (shared write, barrier, `if`, graph node), not writes.
                write!(f, " (site #{}", s.ordinal)?;
            } else if s.buffer.is_empty() {
                write!(f, " (barrier #{}", s.ordinal)?;
            } else {
                write!(f, " (write #{} to `{}`", s.ordinal, s.buffer)?;
            }
            if let Some(l) = s.line {
                write!(f, ", line {l}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Full verifier result for one kernel at one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Inter-block write-write race verdict.
    pub race: PropertyVerdict,
    /// In-bounds access verdict.
    pub bounds: PropertyVerdict,
    /// Barrier-uniformity verdict.
    pub barrier: PropertyVerdict,
    /// All findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// True when no rule produced a MUST-severity diagnostic.
    pub fn clean(&self) -> bool {
        !self.has_must()
    }

    /// True when any diagnostic is MUST severity.
    pub fn has_must(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Must)
    }

    /// Multi-line human rendering: one summary line per rule, then the
    /// diagnostics.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  race    : {}\n  bounds  : {}\n  barrier : {}\n",
            self.race, self.bounds, self.barrier
        );
        for d in &self.diagnostics {
            out += &format!("  {d}\n");
        }
        if self.diagnostics.is_empty() {
            out += "  all checks pass\n";
        }
        out
    }
}

// ----------------------------------------------------- shared formatter --

/// Render the distributable analysis' fallback [`Reason`]s as diagnostics.
pub fn reason_diagnostics(reasons: &[Reason]) -> Vec<Diagnostic> {
    reasons
        .iter()
        .map(|r| Diagnostic::new(Rule::Distribute, Severity::Info, r.to_string()))
        .collect()
}

/// Render a planner [`ReplicationCause`] as a diagnostic. Race-hazard vetoes
/// keep their verifier severity; all other causes are informational.
pub fn cause_diagnostic(cause: &ReplicationCause) -> Diagnostic {
    let severity = match cause {
        ReplicationCause::RaceHazard(sev, _) => *sev,
        _ => Severity::Info,
    };
    Diagnostic::new(Rule::Distribute, severity, cause.to_string())
}

// ------------------------------------------------------ canonical input --

/// Synthesize a canonical launch for `cucc check` / `cucc analyze` when the
/// caller supplies no geometry: grid 64 × block 256, integer scalars
/// defaulting to the total thread count (so canonical `id < n` tail guards
/// hold everywhere), float scalars 1.0, and every buffer *assumed* to hold
/// exactly `total` elements. Returns `(launch, args, bytes)`, `bytes[i]`
/// the assumed byte size of the buffer bound to parameter `i` (which is
/// `BufferId(i)`); assumed sizes cap definite-overrun bounds findings at
/// MAY severity (pass `assumed_extents = true` to [`verify`]).
pub fn canonical_check_input(kernel: &Kernel) -> (LaunchConfig, Vec<Arg>, Vec<Option<usize>>) {
    let launch = LaunchConfig::new(64u32, 256u32);
    let total = 64i64 * 256;
    let mut args = Vec::with_capacity(kernel.params.len());
    let mut bytes = Vec::with_capacity(kernel.params.len());
    for (i, p) in kernel.params.iter().enumerate() {
        match p {
            Param::Buffer { elem, .. } => {
                args.push(Arg::Buffer(BufferId(i as u32)));
                bytes.push(Some(total as usize * elem.size()));
            }
            Param::Scalar { ty, .. } => {
                args.push(match ty.kind() {
                    cucc_ir::ValueKind::Int => Arg::int(total),
                    cucc_ir::ValueKind::Float => Arg::float(1.0),
                });
                bytes.push(None);
            }
        }
    }
    (launch, args, bytes)
}

// ------------------------------------------------------------ top level --

/// Run all three verifier rules on one launch's facts: the race and bounds
/// rules read its footprints, and the bounds rule its range analysis.
///
/// A buffer of unknown size makes bounds checks on it `Unknown`.
/// `assumed_extents` marks the buffer sizes as synthesized rather than real
/// allocation sizes: definite-overrun findings are then capped at MAY
/// (a definitely-*negative* index stays MUST — no extent can excuse it).
/// `map` attaches source lines to write sites when available.
pub fn verify(facts: &LaunchFacts, assumed_extents: bool, map: Option<&SourceMap>) -> VerifyReport {
    let (kernel, acc) = (facts.kernel, &*facts.accesses);
    let race = analyze_block_races(kernel, acc, &facts.footprints, map);
    let (bounds, mut bounds_diags) = analyze_bounds(facts, assumed_extents, map);
    let (barrier, mut barrier_diags) = barrier_rule(kernel, map);

    // A MUST verdict claims dynamic reproduction, which presumes the
    // witnessing blocks run to completion. If another rule says execution
    // may abort first (OOB trap, divergent barrier), demote to MAY. A
    // `Must` *bounds* verdict survives: the first fault in the witnessing
    // block is itself an OOB, which the sanitizer records.
    let mut race_v = race.verdict;
    let mut race_diags = race.diagnostics;
    let may_abort = bounds > PropertyVerdict::Unknown || barrier > PropertyVerdict::Unknown;
    if may_abort && race_v == PropertyVerdict::Must {
        race_v = PropertyVerdict::May;
        for d in &mut race_diags {
            if d.severity == Severity::Must {
                d.severity = Severity::May;
            }
        }
    }

    let mut diagnostics = race_diags;
    diagnostics.append(&mut bounds_diags);
    diagnostics.append(&mut barrier_diags);
    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
    VerifyReport {
        race: race_v,
        bounds,
        barrier,
        diagnostics,
    }
}

// ------------------------------------------------------------ race rule --

/// Race-rule result (used standalone by the launch planner's safety veto).
#[derive(Debug, Clone, PartialEq)]
pub struct RaceAnalysis {
    /// Joined verdict over all write-site pairs.
    pub verdict: PropertyVerdict,
    /// Race findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// A resolved write site as the pair check reads it.
struct RaceSite<'a> {
    ordinal: usize,
    name: &'a str,
    /// The index, in numbers (offsets exclude the linear `blockIdx` part).
    form: &'a ResolvedForm,
    /// Exhaustive offsets with a thread-coordinate witness each, when the
    /// set fits the enumeration budget. The witness is only meaningful for
    /// loop-free sites (MUST candidates).
    offsets: Option<Vec<(i128, Coord)>>,
    /// Guards that must be re-checked before claiming MUST.
    tail_guards: &'a [Option<ResolvedGuard>],
    /// Loop-free, certain to execute, and guarded only by tail guards the
    /// verifier can evaluate at a witness.
    must_candidate: bool,
}

/// Check the inter-block write-write race rule for one launch, on the
/// kernel's accesses (`acc`) as resolved against it (`fps`).
///
/// Two write sites race when a block `b` and a *different* block `b'` write
/// the same element of the same buffer and the writes are not both atomic
/// (atomic-atomic overlaps commute and are handled by the distribution
/// analysis' `AtomicWrite` reason instead). Intra-block overlaps are the
/// kernel's own business (same as on a GPU) and are not checked here.
pub fn analyze_block_races(
    kernel: &Kernel,
    acc: &KernelAccesses,
    fps: &LaunchFootprints,
    map: Option<&SourceMap>,
) -> RaceAnalysis {
    let launch = fps.env.launch;
    let writes: Vec<(&str, &Access, &Site)> = acc
        .writes()
        .map(|(i, p, a)| (kernel.params[p.index()].name(), a, &fps.sites[i]))
        .collect();
    let site_ref = |i: usize| SiteRef {
        buffer: writes[i].0.to_string(),
        ordinal: i,
        line: map.and_then(|m| m.global_write_lines.get(i).copied()),
    };

    let mut verdict = PropertyVerdict::Safe;
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    // `None`: a site that never executes (`Ok`) or cannot be bounded (`Err`).
    let mut sites: Vec<Result<Option<RaceSite>, ()>> = Vec::new();
    for (i, (name, a, site)) in writes.iter().enumerate() {
        sites.push(match &site.state {
            SiteState::Dead => Ok(None),
            SiteState::Resolved(form) => Ok(Some(RaceSite {
                ordinal: i,
                name,
                form,
                offsets: form.offsets(),
                tail_guards: &site.tail_guards,
                must_candidate: !form.has_loop()
                    && !site.loop_unknown
                    && !a.variant_loop
                    && a.only_tail_guards(),
            })),
            SiteState::Unresolved(why) => {
                // Atomic sites that cannot be resolved are still safe
                // against *other atomic* sites; against plain sites they
                // make the pair unknown below. Record the reason once.
                verdict = verdict.join(PropertyVerdict::Unknown);
                if diagnostics.len() < DIAG_CAP {
                    let mut d = Diagnostic::new(
                        Rule::Race,
                        Severity::Info,
                        format!("cannot bound footprint: {}", why.describe("write")),
                    );
                    d.site = Some(site_ref(i));
                    diagnostics.push(d);
                }
                Err(())
            }
        });
    }

    let nblocks = launch.num_blocks();
    for i in 0..writes.len() {
        for j in i..writes.len() {
            if writes[i].1.mem != writes[j].1.mem {
                continue;
            }
            if writes[i].1.atomic && writes[j].1.atomic {
                continue;
            }
            let (a, b) = match (&sites[i], &sites[j]) {
                (Ok(None), _) | (_, Ok(None)) => continue, // dead site(s): no writes happen
                (Ok(Some(a)), Ok(Some(b))) => (a, b),
                _ => {
                    verdict = verdict.join(PropertyVerdict::Unknown);
                    continue;
                }
            };
            if nblocks < 2 {
                continue; // single block: no inter-block pair exists
            }
            let pair = check_pair(a, b, launch, acc.runs_to_completion());
            verdict = verdict.join(pair.verdict);
            if let Some(msg) = pair.message {
                if diagnostics.len() < DIAG_CAP {
                    let sev = match pair.verdict {
                        PropertyVerdict::Must => Severity::Must,
                        PropertyVerdict::May => Severity::May,
                        _ => Severity::Info,
                    };
                    let mut d = Diagnostic::new(Rule::Race, sev, msg);
                    d.site = Some(site_ref(i));
                    diagnostics.push(d);
                }
            }
        }
    }
    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
    RaceAnalysis {
        verdict,
        diagnostics,
    }
}

struct PairOutcome {
    verdict: PropertyVerdict,
    message: Option<String>,
}

impl PairOutcome {
    fn safe() -> PairOutcome {
        PairOutcome {
            verdict: PropertyVerdict::Safe,
            message: None,
        }
    }
    fn unknown(msg: String) -> PairOutcome {
        PairOutcome {
            verdict: PropertyVerdict::Unknown,
            message: Some(msg),
        }
    }
}

/// Disjointness of `O_a` vs `O_b + δ` using the interval and stride filters,
/// then (when available) the exact sets. Returns witnesses on overlap.
#[allow(clippy::type_complexity)]
fn sets_overlap(
    a: &RaceSite,
    b: &RaceSite,
    delta: i128,
) -> Result<Option<Vec<(i128, Coord, Coord)>>, ()> {
    // Interval filter.
    if a.form.span.meet(b.form.span.translate(delta)).is_none() {
        return Ok(None);
    }
    // Stride filter: every element of O_a ≡ base_a (mod g), O_b + δ ≡
    // base_b + δ (mod g) with g = gcd of both strides.
    let g = gcd(a.form.gcd, b.form.gcd);
    if g > 0 && (b.form.base + delta - a.form.base) % g != 0 {
        return Ok(None);
    }
    if g == 0 {
        // Both singletons; interval filter already compared them.
        return Ok(Some(vec![(a.form.base, (0, 0, 0), (0, 0, 0))]));
    }
    // Exact membership, when both sets are enumerated.
    let (Some(oa), Some(ob)) = (&a.offsets, &b.offsets) else {
        return Err(()); // inconclusive: prefilters passed, no enumeration
    };
    let set_a: HashMap<i128, Coord> = oa.iter().map(|(o, w)| (*o, *w)).collect();
    let mut hits = Vec::new();
    for (o, wb) in ob {
        if let Some(wa) = set_a.get(&(o + delta)) {
            hits.push((o + delta, *wa, *wb));
            if hits.len() >= WITNESS_TRIES {
                break;
            }
        }
    }
    Ok(if hits.is_empty() { None } else { Some(hits) })
}

/// Evaluate a site's tail guards at concrete thread/block coordinates.
fn guards_hold(site: &RaceSite, wit: Coord, blk: Coord) -> Option<bool> {
    for g in site.tail_guards {
        let g = g.as_ref()?;
        if g.lhs.at(wit, blk)? >= g.bound {
            return Some(false);
        }
    }
    Some(true)
}

/// Check one ordered pair of resolved sites across all block shifts.
fn check_pair(
    a: &RaceSite,
    b: &RaceSite,
    launch: LaunchConfig,
    must_eligible: bool,
) -> PairOutcome {
    // MUST needs both sites loop-free and guarded only by concretely
    // evaluable tail guards, in a kernel that runs to completion.
    let must_eligible = must_eligible && a.must_candidate && b.must_candidate;
    if a.form.block == b.form.block {
        check_pair_equal_coeffs(a, b, launch, must_eligible)
    } else {
        check_pair_cross_coeffs(a, b, launch, must_eligible)
    }
}

/// Equal block coefficients: footprints of blocks `b` and `b + Δ` differ by
/// the constant shift `Σ coeff[axis]·Δ[axis]`; scan the Δ lattice.
fn check_pair_equal_coeffs(
    a: &RaceSite,
    b: &RaceSite,
    launch: LaunchConfig,
    must_eligible: bool,
) -> PairOutcome {
    let exts = Axis::ALL.map(|ax| (ax, launch.grid.get(ax) as i128));
    let active: Vec<(Axis, i128)> = exts.iter().copied().filter(|(_, e)| *e > 1).collect();
    if active.is_empty() {
        return PairOutcome::safe();
    }
    let lattice: i128 = active.iter().map(|(_, e)| 2 * e - 1).product();
    if lattice as usize > DELTA_BUDGET {
        // Dominant special case: one active axis — scan ascending |Δ| and
        // stop once the shift leaves the window where the spans can still
        // touch (overlap needs `shift ∈ span_a − span_b`, and |shift| =
        // |c|·d grows monotonically with d).
        if active.len() == 1 {
            let (axis, ext) = active[0];
            let c = a.form.block[axis as usize];
            let window = a.form.span.sub(b.form.span).abs_hi();
            for d in 1..ext {
                if c != 0 && (c * d).abs() > window {
                    break;
                }
                for delta in [d, -d] {
                    let mut dv = [0i128; 3];
                    dv[axis as usize] = delta;
                    match scan_delta(a, b, dv, must_eligible) {
                        ScanOutcome::Disjoint => {}
                        other => return other.into_pair(a, b),
                    }
                }
                if c == 0 {
                    break; // shift is 0 for every Δ: one probe decides all
                }
            }
            return PairOutcome::safe();
        }
        return PairOutcome::unknown(format!(
            "grid too large to enumerate block shifts for writes to `{}`",
            a.name
        ));
    }
    // Full lattice walk.
    let range = |e: i128| -> Vec<i128> { (-(e - 1)..e).collect() };
    let (rx, ry, rz) = (range(exts[0].1), range(exts[1].1), range(exts[2].1));
    for &dx in &rx {
        for &dy in &ry {
            for &dz in &rz {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                match scan_delta(a, b, [dx, dy, dz], must_eligible) {
                    ScanOutcome::Disjoint => {}
                    other => return other.into_pair(a, b),
                }
            }
        }
    }
    PairOutcome::safe()
}

enum ScanOutcome {
    Disjoint,
    Inconclusive,
    Overlap {
        must: bool,
        element: i128,
        blocks: (Coord, Coord),
    },
}

impl ScanOutcome {
    fn into_pair(self, a: &RaceSite, b: &RaceSite) -> PairOutcome {
        match self {
            ScanOutcome::Disjoint => PairOutcome::safe(),
            ScanOutcome::Inconclusive => PairOutcome::unknown(format!(
                "write footprints of `{}` not provably disjoint across blocks \
                 (enumeration budget exceeded)",
                a.name
            )),
            ScanOutcome::Overlap {
                must,
                element,
                blocks,
            } => {
                let (ba, bb) = blocks;
                let verdict = if must {
                    PropertyVerdict::Must
                } else {
                    PropertyVerdict::May
                };
                let what = if must { "both write" } else { "may both write" };
                // The site ref appended by `Diagnostic`'s Display already
                // names write `a`; only a distinct second site adds info.
                let sites = if a.ordinal == b.ordinal {
                    String::new()
                } else {
                    format!(" (with write #{})", b.ordinal)
                };
                PairOutcome {
                    verdict,
                    message: Some(format!(
                        "blocks ({},{},{}) and ({},{},{}) {what} `{}`[{element}]{sites}",
                        ba.0, ba.1, ba.2, bb.0, bb.1, bb.2, a.name
                    )),
                }
            }
        }
    }
}

/// Test one Δ of the equal-coefficient case.
fn scan_delta(a: &RaceSite, b: &RaceSite, dv: [i128; 3], must_eligible: bool) -> ScanOutcome {
    // Blocks b0 and b0+Δ, with b0 chosen so both are inside the grid.
    let [x0, y0, z0] = dv.map(|d| (-d).max(0));
    let b0 = (x0 as u32, y0 as u32, z0 as u32);
    let b1 = (
        (x0 + dv[0]) as u32,
        (y0 + dv[1]) as u32,
        (z0 + dv[2]) as u32,
    );
    // Footprint of `a` at b0 vs footprint of `b` at b1 = O_b + shift.
    let block_part = a.form.block_part(b0);
    let shift = a.form.block_part(b1) - block_part;
    match sets_overlap(a, b, shift) {
        Ok(None) => ScanOutcome::Disjoint,
        Err(()) => ScanOutcome::Inconclusive,
        Ok(Some(hits)) => {
            let mut must = false;
            let mut element = hits[0].0 + block_part;
            if must_eligible {
                for (o, wa, wb) in &hits {
                    if guards_hold(a, *wa, b0) == Some(true)
                        && guards_hold(b, *wb, b1) == Some(true)
                    {
                        must = true;
                        element = o + block_part;
                        break;
                    }
                }
            }
            ScanOutcome::Overlap {
                must,
                element,
                blocks: (b0, b1),
            }
        }
    }
}

/// Different block coefficients: compare global footprints, then enumerate
/// all (block, offset) pairs within budget.
fn check_pair_cross_coeffs(
    a: &RaceSite,
    b: &RaceSite,
    launch: LaunchConfig,
    must_eligible: bool,
) -> PairOutcome {
    if a.form
        .range(launch.grid)
        .meet(b.form.range(launch.grid))
        .is_none()
    {
        return PairOutcome::safe();
    }
    let nblocks = launch.num_blocks();
    let fits = |o: &Vec<(i128, Coord)>| nblocks.saturating_mul(o.len() as u64) <= PAIR_BUDGET;
    let (Some(oa), Some(ob)) = (
        a.offsets.as_ref().filter(|o| fits(o)),
        b.offsets.as_ref().filter(|o| fits(o)),
    ) else {
        return PairOutcome::unknown(format!(
            "write footprints of `{}` overlap globally but are too large to \
             enumerate per block",
            a.name
        ));
    };
    type Wit = (Coord, Coord); // (block, thread)
    let mut table: HashMap<i128, Wit> = HashMap::new();
    for lin in 0..nblocks {
        let blk = launch.grid.delinearize(lin);
        let base = a.form.block_part(blk);
        for (o, w) in oa {
            table.entry(o + base).or_insert((blk, *w));
        }
    }
    let mut hit: Option<(i128, Wit, Wit)> = None;
    let mut must = false;
    'outer: for lin in 0..nblocks {
        let blk = launch.grid.delinearize(lin);
        let base = b.form.block_part(blk);
        for (o, w) in ob {
            let elem = o + base;
            if let Some((ablk, aw)) = table.get(&elem) {
                if *ablk == blk {
                    continue; // same block: not an inter-block race
                }
                if hit.is_none() {
                    hit = Some((elem, (*ablk, *aw), (blk, *w)));
                }
                if must_eligible
                    && guards_hold(a, *aw, *ablk) == Some(true)
                    && guards_hold(b, *w, blk) == Some(true)
                {
                    hit = Some((elem, (*ablk, *aw), (blk, *w)));
                    must = true;
                    break 'outer;
                }
            }
        }
    }
    match hit {
        None => PairOutcome::safe(),
        Some((elem, (ablk, _), (bblk, _))) => ScanOutcome::Overlap {
            must,
            element: elem,
            blocks: (ablk, bblk),
        }
        .into_pair(a, b),
    }
}

// ---------------------------------------------------------- bounds rule --

/// Check the in-bounds rule on every access of the launch's facts.
///
/// The proof is the one the launch elides checks on: the range analysis of
/// the launch's program ([`LaunchFacts::compiled`]). An access is in
/// bounds exactly when its instruction is certified or unreachable. The
/// affine range of an access it does not prove only words the finding: MUST
/// for a definite overrun (every corner of the raw box is attained), MAY
/// otherwise.
fn analyze_bounds(
    facts: &LaunchFacts,
    assumed_extents: bool,
    map: Option<&SourceMap>,
) -> (PropertyVerdict, Vec<Diagnostic>) {
    let (kernel, acc, fps) = (facts.kernel, &*facts.accesses, &facts.footprints);
    let launch = fps.env.launch;
    let must_eligible = acc.runs_to_completion();
    let proven: Vec<bool> = (facts.compiled.as_ref().ok())
        .and_then(|c| {
            let (pcs, ra) = (access_pcs(kernel, acc, &c.program)?, &c.ranges);
            Some(
                pcs.iter()
                    .map(|&pc| ra.pc_certified[pc] || !ra.reachable[pc])
                    .collect(),
            )
        })
        .unwrap_or_default();

    let mut verdict = PropertyVerdict::Safe;
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut unknown_noted = false;
    let mut write_ordinal = 0usize;
    for (i, (a, site)) in acc.list.iter().zip(&fps.sites).enumerate() {
        let ordinal = a.written_param().map(|_| {
            write_ordinal += 1;
            write_ordinal - 1
        });
        if proven.get(i) == Some(&true) {
            continue;
        }
        let (name, extent): (String, Option<i128>) = match a.mem {
            MemRef::Global(p) => (
                kernel.params[p.index()].name().to_string(),
                facts.extent(p).map(|e| e as i128),
            ),
            MemRef::Shared(i) => {
                let d = &kernel.shared[i as usize];
                (d.name.clone(), Some(d.len as i128))
            }
            MemRef::Local(i) => {
                let d = &kernel.locals[i as usize];
                (d.name.clone(), Some(d.len as i128))
            }
        };
        let SiteState::Resolved(form) = &site.state else {
            verdict = verdict.join(PropertyVerdict::Unknown);
            if !unknown_noted && diags.len() < DIAG_CAP {
                unknown_noted = true;
                diags.push(Diagnostic::new(
                    Rule::Bounds,
                    Severity::Info,
                    format!("index into `{name}` not analyzable (non-affine or data-dependent)"),
                ));
            }
            continue;
        };
        // The raw box is exact: every corner is attained by some
        // thread/iteration that passes no guard.
        let raw = form.range(launch.grid);
        let Some(extent) = extent.filter(|&e| raw.lo < 0 || raw.hi >= e) else {
            // No extent, or no overrun to witness.
            verdict = verdict.join(PropertyVerdict::Unknown);
            continue;
        };
        let (lo, hi) = (raw.lo, raw.hi);
        let unconditional = a.guards.is_empty() && !a.conditional && must_eligible;
        let definite = unconditional && !site.loop_unknown;
        let neg_side = lo < 0 && unconditional;
        let sev = if definite && (!assumed_extents || neg_side) {
            Severity::Must
        } else {
            Severity::May
        };
        let kind = if a.write { "store" } else { "load" };
        verdict = verdict.join(if sev == Severity::Must {
            PropertyVerdict::Must
        } else {
            PropertyVerdict::May
        });
        if diags.len() < DIAG_CAP {
            let mut d = Diagnostic::new(
                Rule::Bounds,
                sev,
                format!(
                    "{kind} index into `{name}` ranges over [{lo}, {hi}] but the buffer \
                     holds {extent} element(s){}",
                    if assumed_extents && a.mem.space() == cucc_ir::MemSpace::Global {
                        " (assumed extent)"
                    } else {
                        ""
                    }
                ),
            );
            if let Some(ord) = ordinal {
                d.site = Some(SiteRef {
                    buffer: name,
                    ordinal: ord,
                    line: map.and_then(|m| m.global_write_lines.get(ord).copied()),
                });
            }
            diags.push(d);
        }
    }
    (verdict, diags)
}

/// The pc of each access of `acc` in `prog`: source access `i` is the
/// `i`-th `Load`/`Store`/`AtomicRmw` in pc order, since the access walk and
/// the compiler both emit in post-order. `None` when the two do not pair
/// one for one on the same memory (nothing is then proven).
pub(crate) fn access_pcs(
    kernel: &Kernel,
    acc: &KernelAccesses,
    prog: &Program,
) -> Option<Vec<usize>> {
    let mem: Vec<(usize, u32)> = (prog.code().iter().enumerate())
        .filter_map(|(pc, inst)| match inst {
            Inst::Load { slot, .. } | Inst::Store { slot, .. } | Inst::AtomicRmw { slot, .. } => {
                Some((pc, *slot))
            }
            _ => None,
        })
        .collect();
    let pairs = mem.len() == acc.list.len()
        && (mem.iter().zip(&acc.list)).all(|(m, a)| m.1 as usize == kernel.mem_slot(a.mem));
    pairs.then(|| mem.into_iter().map(|(pc, _)| pc).collect())
}

// --------------------------------------------------------- barrier rule --

/// Barrier uniformity: a `__syncthreads()` under thread-variant control
/// flow diverges (some threads wait forever). The sites are the
/// validator's ([`barrier_sites`]); this reports them as structured
/// diagnostics instead of rejecting the kernel, so builder-constructed
/// kernels get the same scrutiny as parsed ones.
fn barrier_rule(kernel: &Kernel, map: Option<&SourceMap>) -> (PropertyVerdict, Vec<Diagnostic>) {
    let sites = barrier_sites(kernel, &var_variance(kernel));
    let divergent: Vec<usize> = (sites.iter().enumerate())
        .filter_map(|(ordinal, site)| site.control.thread.then_some(ordinal))
        .collect();
    let verdict = match divergent.is_empty() {
        true => PropertyVerdict::Safe,
        false => PropertyVerdict::Must,
    };
    let diags = (divergent.into_iter().take(DIAG_CAP))
        .map(|ordinal| {
            let mut d = Diagnostic::new(
                Rule::Barrier,
                Severity::Must,
                "__syncthreads() under thread-variant control flow \
                 (threads diverge at the barrier)"
                    .into(),
            );
            d.site = Some(SiteRef::barrier(ordinal, map));
            d
        })
        .collect();
    (verdict, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::{parse_kernel, parse_kernel_with_map};

    /// Verify at a launch whose parameter `i` (bound to `BufferId(i)`)
    /// holds `extents[i]` elements.
    fn check(
        src: &str,
        launch: LaunchConfig,
        args: Vec<Arg>,
        extents: Vec<Option<u64>>,
    ) -> VerifyReport {
        let (k, map) = parse_kernel_with_map(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let bytes = |b: BufferId| {
            let elem = k.elem_type(MemRef::Global(cucc_ir::ParamId(b.0)));
            extents[b.index()].map(|e| e as usize * elem.size())
        };
        let facts = LaunchFacts::of(&k, None, launch, &args, bytes, None);
        verify(&facts, false, Some(&map))
    }

    /// Verify at the canonical launch, sizes assumed.
    fn canonical(k: &Kernel, map: Option<&SourceMap>) -> VerifyReport {
        let (launch, args, bytes) = canonical_check_input(k);
        let size_of = |b: BufferId| bytes[b.index()];
        verify(
            &LaunchFacts::of(k, None, launch, &args, size_of, None),
            true,
            map,
        )
    }

    fn races(src: &str, launch: LaunchConfig, args: Vec<Arg>) -> RaceAnalysis {
        let k = parse_kernel(src).unwrap();
        let acc = KernelAccesses::of_kernel(&k);
        analyze_block_races(&k, &acc, &LaunchFootprints::of(&acc, launch, &args), None)
    }

    #[test]
    fn disjoint_saxpy_is_safe() {
        let r = check(
            "__global__ void saxpy(float* x, float* y, float a, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + y[id];
            }",
            LaunchConfig::new(8u32, 128u32),
            vec![
                Arg::Buffer(BufferId(0)),
                Arg::Buffer(BufferId(1)),
                Arg::float(2.0),
                Arg::int(1024),
            ],
            vec![Some(1024), Some(1024), None, None],
        );
        assert!(r.race.is_safe(), "{r:?}");
        assert!(r.bounds.is_safe(), "{r:?}");
        assert!(r.barrier.is_safe(), "{r:?}");
        assert!(r.clean());
    }

    #[test]
    fn block_invariant_write_is_must_race_with_line() {
        let r = check(
            "__global__ void k(int* out) {
                out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(32)],
        );
        assert_eq!(r.race, PropertyVerdict::Must, "{r:?}");
        let d = &r.diagnostics[0];
        assert_eq!(d.rule, Rule::Race);
        assert_eq!(d.severity, Severity::Must);
        assert_eq!(d.site.as_ref().unwrap().line, Some(2));
        assert!(d.to_string().contains("MUST[race]"), "{d}");
    }

    #[test]
    fn sliding_window_halo_is_must_race() {
        // Adjacent blocks share one element (the Hetero-Mark overlap demo).
        let r = races(
            "__global__ void k(float* out) {
                out[blockIdx.x * (blockDim.x - 1) + threadIdx.x] = 1.0f;
            }",
            LaunchConfig::new(32u32, 64u32),
            vec![Arg::Buffer(BufferId(0))],
        );
        assert_eq!(r.verdict, PropertyVerdict::Must, "{r:?}");
    }

    #[test]
    fn strided_interleave_is_safe_by_residue() {
        // Interleaved but disjoint: residues mod gridDim differ per block.
        let r = races(
            "__global__ void k(int* out) {
                out[threadIdx.x * gridDim.x + blockIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 8u32),
            vec![Arg::Buffer(BufferId(0))],
        );
        assert!(r.verdict.is_safe(), "{r:?}");
    }

    #[test]
    fn guarded_overlap_is_may_not_must() {
        // The data-dependent guard may disable the racing writes.
        let r = races(
            "__global__ void k(int* out, int* flag) {
                if (flag[0] > 0) out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        assert_eq!(r.verdict, PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn tail_guard_true_at_witness_keeps_must() {
        let r = races(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(1 << 20)],
        );
        assert_eq!(r.verdict, PropertyVerdict::Must, "{r:?}");
    }

    #[test]
    fn tail_guard_false_everywhere_demotes_to_may() {
        // n = 0 disables every write; the verifier cannot prove the site
        // dead (we only evaluate guards at witnesses), so MAY.
        let r = races(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(0)],
        );
        assert_eq!(r.verdict, PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn atomic_atomic_overlap_not_a_race() {
        let r = races(
            "__global__ void k(int* out) {
                atomicAdd(&out[0], 1);
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
        );
        assert!(r.verdict.is_safe(), "{r:?}");
    }

    #[test]
    fn atomic_plain_mix_is_a_race() {
        let r = races(
            "__global__ void k(int* out) {
                atomicAdd(&out[0], 1);
                if (threadIdx.x == 0) out[0] = 7;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
        );
        assert!(r.verdict >= PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn indirect_write_is_unknown() {
        let r = races(
            "__global__ void k(int* out, int* idx) {
                out[idx[threadIdx.x]] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        assert_eq!(r.verdict, PropertyVerdict::Unknown, "{r:?}");
    }

    #[test]
    fn single_block_grid_has_no_interblock_race() {
        let r = races(
            "__global__ void k(int* out) {
                out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(1u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
        );
        assert!(r.verdict.is_safe(), "{r:?}");
    }

    #[test]
    fn loop_strided_writes_safe() {
        let r = races(
            "__global__ void k(int* out, int k) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < k; i++)
                    out[id * k + i] = i;
            }",
            LaunchConfig::new(4u32, 16u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(3)],
        );
        assert!(r.verdict.is_safe(), "{r:?}");
    }

    #[test]
    fn loop_overlap_demoted_to_may() {
        // Each block writes [0, 16k): overlapping, but loop-carried
        // witnesses are not MUST-eligible.
        let r = races(
            "__global__ void k(int* out, int k) {
                for (int i = 0; i < k; i++)
                    out[threadIdx.x * k + i] = i;
            }",
            LaunchConfig::new(4u32, 16u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(3)],
        );
        assert_eq!(r.verdict, PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn definite_oob_store_is_must() {
        let r = check(
            "__global__ void k(int* out) {
                out[threadIdx.x + blockIdx.x * blockDim.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(100)], // 128 threads write [0,127]
        );
        assert_eq!(r.bounds, PropertyVerdict::Must, "{r:?}");
        assert!(r.has_must());
    }

    #[test]
    fn guarded_oob_is_may() {
        let r = check(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(1 << 20)],
            vec![Some(100), None],
        );
        assert_eq!(r.bounds, PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn nonaffine_index_discharged_by_range_analysis() {
        // `id % 64` is non-affine (the affine walker gives up); the range
        // analysis proves [0, 63] and certifies the store.
        let r = check(
            "__global__ void k(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id % 64] = id;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(64)],
        );
        assert!(r.bounds.is_safe(), "{r:?}");
    }

    #[test]
    fn guard_through_variable_discharged_by_range_analysis() {
        // The guard is a *variable* holding a comparison; the range
        // analysis tracks the predicate provenance and certifies the store.
        let r = check(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                int ok = id < n;
                if (ok) out[id] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(100)],
            vec![Some(100), None],
        );
        assert!(r.bounds.is_safe(), "{r:?}");
    }

    #[test]
    fn tail_guard_is_certified_in_bounds() {
        let r = check(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(100)],
            vec![Some(100), None],
        );
        assert!(r.bounds.is_safe(), "{r:?}");
    }

    #[test]
    fn eq_guard_is_certified_in_bounds() {
        // Only thread 0 stores out[blockIdx.x + threadIdx.x]; the equality
        // refines threadIdx.x to 0, so extent = grid size suffices.
        let r = check(
            "__global__ void k(float* out) {
                float acc = 1.0f;
                if (threadIdx.x == 0)
                    out[blockIdx.x + threadIdx.x] = acc;
            }",
            LaunchConfig::new(8u32, 64u32),
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(8)],
        );
        assert!(r.bounds.is_safe(), "{r:?}");
    }

    #[test]
    fn shared_array_bounds_checked() {
        let r = check(
            "__global__ void k(float* out) {
                __shared__ float tile[16];
                tile[threadIdx.x] = 1.0f;
                out[blockIdx.x * blockDim.x + threadIdx.x] = tile[0];
            }",
            LaunchConfig::new(2u32, 32u32),
            vec![Arg::Buffer(BufferId(0))],
            vec![Some(64)],
        );
        // 32 threads into a 16-wide shared tile: definite OOB.
        assert_eq!(r.bounds, PropertyVerdict::Must, "{r:?}");
    }

    #[test]
    fn negative_index_must_even_with_assumed_extents() {
        let (k, map) = parse_kernel_with_map(
            "__global__ void k(int* out) {
                out[threadIdx.x - 9999999] = 1;
            }",
        )
        .unwrap();
        let r = canonical(&k, Some(&map));
        assert_eq!(r.bounds, PropertyVerdict::Must, "{r:?}");
    }

    #[test]
    fn assumed_extents_cap_overrun_at_may() {
        let (k, _) = parse_kernel_with_map(
            "__global__ void k(int* out) {
                out[blockIdx.x * blockDim.x + threadIdx.x + 100] = 1;
            }",
        )
        .unwrap();
        let r = canonical(&k, None);
        assert_eq!(r.bounds, PropertyVerdict::May, "{r:?}");
        assert!(r.clean());
    }

    #[test]
    fn barrier_under_variant_if_is_must() {
        // Builder-style construction (the parser/validator would reject it).
        use cucc_ir::{Expr, Stmt};
        let k = parse_kernel(
            "__global__ void k(float* out) {
                __syncthreads();
                out[blockIdx.x * blockDim.x + threadIdx.x] = 1.0f;
            }",
        )
        .unwrap();
        let mut bad = k.clone();
        bad.body = vec![Stmt::if_then(
            Expr::ThreadIdx(Axis::X).lt(Expr::int(5)),
            vec![Stmt::SyncThreads],
        )];
        let (v, d) = barrier_rule(&bad, None);
        assert_eq!(v, PropertyVerdict::Must);
        assert_eq!(d[0].rule, Rule::Barrier);
        let (v2, _) = barrier_rule(&k, None);
        assert!(v2.is_safe());
    }

    #[test]
    fn race_must_demoted_when_bounds_may_abort() {
        // The racing store sits next to a definite OOB store: execution
        // aborts, so the race claim drops to MAY.
        let r = check(
            "__global__ void k(int* out, int* big) {
                big[threadIdx.x + 1000000] = 1;
                out[threadIdx.x] = 1;
            }",
            LaunchConfig::new(4u32, 32u32),
            vec![Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
            vec![Some(32), Some(64)],
        );
        assert_eq!(r.bounds, PropertyVerdict::Must);
        assert_eq!(r.race, PropertyVerdict::May, "{r:?}");
    }

    #[test]
    fn zero_step_loop_demotes_race_to_may() {
        // With `s == 0` every thread faults in the loop header, before the
        // racing store: no block writes `out[0]`, so no MUST claim.
        let r = check(
            "__global__ void k(int* out, int s) {
                for (int i = 0; i < 1; i += s) {}
                out[0] = 1;
            }",
            LaunchConfig::new(4u32, 8u32),
            vec![Arg::Buffer(BufferId(0)), Arg::int(0)],
            vec![Some(1), None],
        );
        assert_eq!(r.race, PropertyVerdict::May, "{r:?}");
        assert!(!r.render().contains("MUST[race]"), "{}", r.render());
    }

    #[test]
    fn two_d_tiles_are_safe() {
        let r = races(
            "__global__ void k(float* out, int width) {
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                out[y * width + x] = 1.0f;
            }",
            LaunchConfig::new((8u32, 8u32), (16u32, 16u32)),
            vec![Arg::Buffer(BufferId(0)), Arg::int(128)],
        );
        assert!(r.verdict.is_safe(), "{r:?}");
    }

    #[test]
    fn renderings_are_stable() {
        let d = Diagnostic {
            rule: Rule::Bounds,
            severity: Severity::May,
            message: "x".into(),
            site: Some(SiteRef {
                buffer: "out".into(),
                ordinal: 1,
                line: Some(3),
            }),
        };
        assert_eq!(d.to_string(), "MAY[bounds] x (write #1 to `out`, line 3)");
        assert_eq!(
            reason_diagnostics(&[Reason::AtomicWrite])[0].rule,
            Rule::Distribute
        );
        let c = cause_diagnostic(&ReplicationCause::NoFullBlocks);
        assert_eq!(c.severity, Severity::Info);
    }

    #[test]
    fn canonical_input_shapes() {
        let k = parse_kernel(
            "__global__ void k(float* x, int n, float a) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) x[id] = a;
            }",
        )
        .unwrap();
        let (launch, args, bytes) = canonical_check_input(&k);
        assert_eq!(launch.num_blocks(), 64);
        assert_eq!(args.len(), 3);
        assert_eq!(bytes, vec![Some(16384 * 4), None, None]);
        assert!(matches!(args[1], Arg::Scalar(cucc_ir::Value::I64(16384))));
        // And the canonical report for this kernel is fully clean.
        let r = canonical(&k, None);
        assert!(r.race.is_safe() && r.bounds.is_safe() && r.barrier.is_safe());
    }

    #[test]
    fn report_render_lists_rules() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                out[blockIdx.x * blockDim.x + threadIdx.x] = 1;
            }",
        )
        .unwrap();
        let s = canonical(&k, None).render();
        assert!(s.contains("race    : safe"), "{s}");
        assert!(s.contains("all checks pass"), "{s}");
    }
}
