//! Deterministic fault injection for the simulated interconnect.
//!
//! A [`FaultPlan`] is a declarative script of failures pinned to simulated
//! time: kill a node, slow it down (straggler), or drop a collective step.
//! Because the plan is keyed on the *simulated* clock and the only source of
//! randomness is a seeded xorshift generator, a faulty run replays
//! bit-identically — the same events fire at the same sim times with the
//! same retry/backoff layout on the timeline.
//!
//! The [`FaultInjector`] is the runtime half: it owns the plan plus the
//! mutable consumption state (which one-shot drops already fired, the RNG
//! cursor) and answers the three questions the collective layer asks at each
//! step — *is a participant dead yet?*, *is this step dropped?*, *how much
//! slower is this node right now?*

use crate::model::NetModel;
use std::fmt;

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node stops responding permanently from the event time on —
    /// unless a later admitted `Join` for the same node supersedes the
    /// kill (the replacement process is a fresh, healthy peer).
    Kill {
        /// Logical node that dies.
        node: u32,
    },
    /// The node keeps working but every compute span it runs after the
    /// event time is stretched by `factor` (a straggler).
    Straggle {
        /// Logical node that slows down.
        node: u32,
        /// Multiplier applied to the node's span durations (> 1 slows).
        factor: f64,
    },
    /// One collective step is lost and must be retried (a transient link
    /// fault). Consumed by the first step at or after the event time.
    DropStep,
    /// A node joins (or rejoins) the cluster from the event time on. The
    /// runtime enlarges the communicator, transfers state to the joiner and
    /// re-partitions work onto the new shape — or defers the join to the
    /// next launch boundary when the paper's §6 balance rule forbids
    /// re-partitioning mid-collective. One-shot: consumed when admitted.
    Join {
        /// Logical node that joins. An id below the current cluster size
        /// revives a dead slot; an id equal to the cluster size grows it.
        node: u32,
    },
}

/// One scripted fault: a kind plus the simulated time it takes effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time (seconds) at which the fault becomes active.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Kill { node } => write!(f, "kill:node={node}@t={}", self.at),
            FaultKind::Straggle { node, factor } => {
                write!(f, "delay:node={node}@t={},factor={factor}", self.at)
            }
            FaultKind::DropStep => write!(f, "drop:step@t={}", self.at),
            FaultKind::Join { node } => write!(f, "join:node={node}@t={}", self.at),
        }
    }
}

/// Per-step retry discipline for collectives under faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// The per-step deadline is `timeout_factor × modeled step time` plus
    /// one `α + o` grace so zero-byte steps still get a positive deadline.
    pub timeout_factor: f64,
    /// Attempts before a peer is declared dead (attempt `k` waits
    /// `deadline × 2^(k−1)`, i.e. exponential backoff).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_factor: 2.0,
            max_attempts: 3,
        }
    }
}

impl RetryPolicy {
    /// Deadline for one attempt of a step whose modeled duration is
    /// `step_time`: `timeout_factor × step + (α + o)`.
    ///
    /// This is the **only** place the deadline formula lives:
    /// `GatherPlan::record_fallible` calls here per step.
    pub fn deadline(&self, step_time: f64, model: &NetModel) -> f64 {
        self.timeout_factor * step_time + (model.alpha + model.overhead)
    }

    /// Total time burned confirming a dead peer on one step: the sum of all
    /// `max_attempts` backed-off deadlines, `deadline × (2^max − 1)`.
    pub fn detection_time(&self, step_time: f64, model: &NetModel) -> f64 {
        let d = self.deadline(step_time, model);
        d * ((1u64 << self.max_attempts) - 1) as f64
    }
}

/// A deterministic, replayable script of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scripted events.
    pub events: Vec<FaultEvent>,
    /// Seed for the internal RNG (random step drops).
    pub seed: u64,
    /// Probability that any individual collective step is dropped, on top
    /// of the scripted events. 0.0 disables random drops.
    pub drop_p: f64,
    /// Retry/timeout discipline.
    pub retry: RetryPolicy,
    /// Whether a launch may fall back to replicated execution on survivors
    /// when re-partitioning would break Allgather balance. When false such
    /// a launch fails with `Degraded` instead.
    pub allow_degraded: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            seed: 0xC0CC_FA17,
            drop_p: 0.0,
            retry: RetryPolicy::default(),
            allow_degraded: true,
        }
    }
}

impl FaultPlan {
    /// A plan with no events and no random drops. An injector over it
    /// answers every query by looping over zero events, which is how the
    /// runtime's one launch path serves fault-free sessions unchanged.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan can never fire a fault.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.drop_p == 0.0
    }

    /// Add a node kill at simulated time `at`.
    pub fn kill(mut self, node: u32, at: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Kill { node },
        });
        self
    }

    /// Add a straggler: `node` runs `factor`× slower from `at` on.
    pub fn straggle(mut self, node: u32, at: f64, factor: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Straggle { node, factor },
        });
        self
    }

    /// Add a one-shot collective step drop at simulated time `at`.
    pub fn drop_step(mut self, at: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DropStep,
        });
        self
    }

    /// Add a node join at simulated time `at`.
    pub fn join(mut self, node: u32, at: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Join { node },
        });
        self
    }

    /// Parse one CLI fault spec and append it. Accepted forms:
    ///
    /// * `kill:node=3@t=0.5`
    /// * `delay:node=2@t=0.1,factor=3`
    /// * `drop:step@t=0.2`
    /// * `join:node=4@t=0.5`
    pub fn with_spec(mut self, spec: &str) -> Result<Self, String> {
        self.events.push(parse_event(spec)?);
        Ok(self)
    }
}

/// Parse a `kill:node=3@t=0.5`- or `join:node=4@t=0.5`-style fault spec.
pub fn parse_event(spec: &str) -> Result<FaultEvent, String> {
    let err = |m: &str| format!("bad fault spec `{spec}`: {m}");
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| err("expected `kind:...`"))?;
    let (target, params) = rest
        .split_once('@')
        .ok_or_else(|| err("expected `...@t=<time>`"))?;
    let mut at: Option<f64> = None;
    let mut factor: Option<f64> = None;
    for p in params.split(',') {
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| err("expected `key=value`"))?;
        let v: f64 = v.parse().map_err(|_| err("non-numeric value"))?;
        match k {
            "t" => at = Some(v),
            "factor" => factor = Some(v),
            other => return Err(err(&format!("unknown key `{other}`"))),
        }
    }
    let at = at.ok_or_else(|| err("missing `t=<time>`"))?;
    if !at.is_finite() || at < 0.0 {
        return Err(err("time must be finite and non-negative"));
    }
    let node = || -> Result<u32, String> {
        let v = target
            .strip_prefix("node=")
            .ok_or_else(|| err("expected `node=<id>`"))?;
        v.parse().map_err(|_| err("bad node id"))
    };
    let kind = match kind {
        "kill" => FaultKind::Kill { node: node()? },
        "delay" => {
            let factor = factor.unwrap_or(2.0);
            if !(factor.is_finite() && factor > 0.0) {
                return Err(err("factor must be finite and positive"));
            }
            FaultKind::Straggle {
                node: node()?,
                factor,
            }
        }
        "drop" => {
            if target != "step" {
                return Err(err("expected `drop:step@t=...`"));
            }
            FaultKind::DropStep
        }
        "join" => FaultKind::Join { node: node()? },
        other => {
            return Err(err(&format!(
                "unknown fault kind `{other}` (want kill|delay|drop|join)"
            )))
        }
    };
    Ok(FaultEvent { at, kind })
}

/// Seeded xorshift64* generator — deterministic, dependency-free.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        XorShift(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runtime state of a fault plan: the script plus consumption bookkeeping.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: XorShift,
    /// One flag per event; one-shot events (drops) set it when they fire.
    used: Vec<bool>,
}

impl FaultInjector {
    /// Build an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let used = vec![false; plan.events.len()];
        let rng = XorShift::new(plan.seed);
        FaultInjector { plan, rng, used }
    }

    /// The plan's retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.plan.retry
    }

    /// Whether degraded (replicated-on-survivors) completion is allowed.
    pub fn allow_degraded(&self) -> bool {
        self.plan.allow_degraded
    }

    /// Slot (index into `participants`) of the first participant with a
    /// kill event active at simulated time `t`, if any. Kills absorbed by
    /// a later admitted join ([`FaultInjector::absorb_kills`]) no longer
    /// count.
    pub fn kill_pending(&self, participants: &[u32], t: f64) -> Option<usize> {
        for (i, ev) in self.plan.events.iter().enumerate() {
            if let FaultKind::Kill { node } = ev.kind {
                if !self.used[i] && ev.at <= t {
                    if let Some(slot) = participants.iter().position(|&p| p == node) {
                        return Some(slot);
                    }
                }
            }
        }
        None
    }

    /// Consume every kill event for `node` that is ripe at time `t`. An
    /// admitted join supersedes the kills that took the slot down — the
    /// replacement process is not killed by the event that killed its
    /// predecessor. Returns how many kills were absorbed.
    pub fn absorb_kills(&mut self, node: u32, t: f64) -> u32 {
        let mut absorbed = 0;
        for (i, ev) in self.plan.events.iter().enumerate() {
            if ev.kind == (FaultKind::Kill { node }) && !self.used[i] && ev.at <= t {
                self.used[i] = true;
                absorbed += 1;
            }
        }
        absorbed
    }

    /// True if `node` has a kill event active at time `t`.
    pub fn killed(&self, node: u32, t: f64) -> bool {
        self.kill_pending(&[node], t).is_some()
    }

    /// Stretch a compute span of base duration `dur` starting at `t_start`
    /// on `node` by any active stragglers. A straggler taking effect
    /// mid-span stretches only the remainder.
    pub fn stretch(&self, node: u32, t_start: f64, dur: f64) -> f64 {
        let mut d = dur;
        for ev in &self.plan.events {
            if let FaultKind::Straggle { node: n, factor } = ev.kind {
                if n != node {
                    continue;
                }
                if ev.at <= t_start {
                    d *= factor;
                } else if ev.at < t_start + d {
                    let done = ev.at - t_start;
                    d = done + (d - done) * factor;
                }
            }
        }
        d
    }

    /// Whether the collective step starting at time `t` is dropped.
    /// Scripted one-shot drops are consumed in event order; on top of
    /// those, each query rolls the seeded RNG against `drop_p` (when
    /// `drop_p == 0.0` the RNG is never advanced, keeping fault-free
    /// replays byte-stable).
    pub fn take_drop(&mut self, t: f64) -> bool {
        for (i, ev) in self.plan.events.iter().enumerate() {
            if ev.kind == FaultKind::DropStep && !self.used[i] && ev.at <= t {
                self.used[i] = true;
                return true;
            }
        }
        self.plan.drop_p > 0.0 && self.rng.next_f64() < self.plan.drop_p
    }

    /// Nodes with an unconsumed join event ripe at simulated time `t`, in
    /// event order. Peeking does not consume — the runtime decides whether
    /// a ripe join is admissible (§6 balance) before calling [`take_join`].
    ///
    /// [`take_join`]: FaultInjector::take_join
    pub fn joins_pending(&self, t: f64) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, ev) in self.plan.events.iter().enumerate() {
            if let FaultKind::Join { node } = ev.kind {
                if !self.used[i] && ev.at <= t {
                    out.push(node);
                }
            }
        }
        out
    }

    /// Consume the first unconsumed join event for `node` that is ripe at
    /// time `t`. Returns false when no such event exists.
    pub fn take_join(&mut self, node: u32, t: f64) -> bool {
        for (i, ev) in self.plan.events.iter().enumerate() {
            if ev.kind == (FaultKind::Join { node }) && !self.used[i] && ev.at <= t {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Checkpoint cursor: the RNG state plus the per-event consumption
    /// flags. Restoring this cursor into a fresh injector over the same
    /// plan resumes the fault session exactly where it left off — consumed
    /// one-shot events never refire and random drops continue the same
    /// deterministic sequence.
    pub fn cursor(&self) -> (u64, Vec<bool>) {
        (self.rng.0, self.used.clone())
    }

    /// Restore a checkpoint cursor captured by [`cursor`]. Fails when the
    /// flag count does not match the plan's event count (the restored
    /// session was given a different fault plan).
    ///
    /// [`cursor`]: FaultInjector::cursor
    pub fn restore_cursor(&mut self, rng: u64, used: &[bool]) -> Result<(), String> {
        if used.len() != self.plan.events.len() {
            return Err(format!(
                "fault cursor has {} event flags but the plan has {} events",
                used.len(),
                self.plan.events.len()
            ));
        }
        self.rng = XorShift(rng);
        self.used = used.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_spec_forms() {
        assert_eq!(
            parse_event("kill:node=3@t=0.5").unwrap(),
            FaultEvent {
                at: 0.5,
                kind: FaultKind::Kill { node: 3 }
            }
        );
        assert_eq!(
            parse_event("delay:node=2@t=0.1,factor=3").unwrap(),
            FaultEvent {
                at: 0.1,
                kind: FaultKind::Straggle {
                    node: 2,
                    factor: 3.0
                }
            }
        );
        assert_eq!(
            parse_event("drop:step@t=0.2").unwrap(),
            FaultEvent {
                at: 0.2,
                kind: FaultKind::DropStep
            }
        );
        assert_eq!(
            parse_event("join:node=4@t=0.5").unwrap(),
            FaultEvent {
                at: 0.5,
                kind: FaultKind::Join { node: 4 }
            }
        );
        for bad in [
            "kill",
            "kill:node=3",
            "kill:node=x@t=0.5",
            "kill:node=3@t=-1",
            "delay:node=2@t=0.1,factor=0",
            "drop:node=1@t=0.2",
            "join:step@t=0.2",
            "explode:node=1@t=0.2",
        ] {
            assert!(parse_event(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn spec_display_round_trips() {
        for spec in [
            "kill:node=3@t=0.5",
            "delay:node=2@t=0.1,factor=3",
            "drop:step@t=0.2",
            "join:node=4@t=0.5",
        ] {
            let ev = parse_event(spec).unwrap();
            assert_eq!(parse_event(&ev.to_string()).unwrap(), ev);
        }
    }

    #[test]
    fn kills_fire_only_at_their_time_and_for_participants() {
        let inj = FaultInjector::new(FaultPlan::default().kill(2, 0.5));
        assert_eq!(inj.kill_pending(&[0, 1, 2, 3], 0.4), None);
        assert_eq!(inj.kill_pending(&[0, 1, 2, 3], 0.5), Some(2));
        // After eviction node 2 is no longer a participant.
        assert_eq!(inj.kill_pending(&[0, 1, 3], 0.9), None);
        assert!(inj.killed(2, 0.5));
        assert!(!inj.killed(1, 0.5));
    }

    #[test]
    fn straggler_stretches_whole_and_partial_spans() {
        let inj = FaultInjector::new(FaultPlan::default().straggle(1, 1.0, 3.0));
        // Fully after the event: ×3.
        assert_eq!(inj.stretch(1, 2.0, 4.0), 12.0);
        // Fully before the event: untouched.
        assert_eq!(inj.stretch(1, 0.0, 0.5), 0.5);
        // Straddling: 0.5 done + 1.5 remaining × 3.
        assert_eq!(inj.stretch(1, 0.5, 2.0), 0.5 + 1.5 * 3.0);
        // Other nodes untouched.
        assert_eq!(inj.stretch(0, 2.0, 4.0), 4.0);
    }

    #[test]
    fn scripted_drops_are_one_shot_and_rng_is_deterministic() {
        let mut inj = FaultInjector::new(FaultPlan::default().drop_step(0.2));
        assert!(!inj.take_drop(0.1));
        assert!(inj.take_drop(0.3));
        assert!(!inj.take_drop(0.4), "drop is consumed");

        let roll = |seed| {
            let mut i = FaultInjector::new(FaultPlan {
                drop_p: 0.5,
                seed,
                ..FaultPlan::default()
            });
            (0..64).map(|k| i.take_drop(k as f64)).collect::<Vec<_>>()
        };
        assert_eq!(roll(7), roll(7), "same seed, same drops");
        assert_ne!(roll(7), roll(8), "different seed, different drops");
    }

    #[test]
    fn joins_are_one_shot_and_peekable() {
        let mut inj = FaultInjector::new(FaultPlan::default().join(4, 0.5).join(2, 0.5));
        assert!(inj.joins_pending(0.4).is_empty());
        // Peeking does not consume.
        assert_eq!(inj.joins_pending(0.6), vec![4, 2]);
        assert_eq!(inj.joins_pending(0.6), vec![4, 2]);
        assert!(inj.take_join(4, 0.6));
        assert_eq!(inj.joins_pending(0.6), vec![2]);
        assert!(!inj.take_join(4, 0.9), "join is consumed");
        assert!(inj.take_join(2, 0.9));
        assert!(inj.joins_pending(1e9).is_empty());
    }

    #[test]
    fn cursor_round_trips_consumption_state() {
        let plan = FaultPlan {
            drop_p: 0.5,
            ..FaultPlan::default()
        }
        .drop_step(0.1)
        .join(3, 0.2);
        let mut inj = FaultInjector::new(plan.clone());
        assert!(inj.take_drop(0.15));
        assert!(inj.take_join(3, 0.25));
        let _ = inj.take_drop(0.3); // advance the RNG
        let (rng, used) = inj.cursor();

        let mut restored = FaultInjector::new(plan);
        restored.restore_cursor(rng, &used).unwrap();
        // Same RNG state → same continuation of the drop sequence.
        for k in 0..32 {
            let t = 1.0 + k as f64;
            assert_eq!(restored.take_drop(t), inj.take_drop(t));
        }
        assert!(
            restored.joins_pending(1e9).is_empty(),
            "join stays consumed"
        );
        assert_eq!(restored.cursor().1.len(), 2);

        let mut wrong = FaultInjector::new(FaultPlan::none());
        assert!(wrong.restore_cursor(rng, &used).is_err());
    }

    #[test]
    fn retry_deadline_and_detection_math() {
        let model = NetModel::infiniband_100g();
        let p = RetryPolicy::default();
        let d = p.deadline(1e-3, &model);
        assert_eq!(d, 2.0 * 1e-3 + model.alpha + model.overhead);
        // 3 attempts: d + 2d + 4d = 7d.
        assert_eq!(p.detection_time(1e-3, &model), d * 7.0);
        // Zero-time steps still get the α+o grace.
        assert!(p.deadline(0.0, &model) > 0.0);
    }

    /// The `--fault` specs the README and CI run, and the specs the tests
    /// above parse or reject.
    const SPEC_CORPUS: [&str; 17] = [
        "kill:node=3@t=0.5",
        "kill:node=3@t=0",
        "join:node=4@t=0",
        "kill:node=1@t=0.00002",
        "join:node=1@t=0.00008",
        "delay:node=2@t=0.1,factor=3",
        "drop:step@t=0.2",
        "join:node=4@t=0.5",
        "kill",
        "kill:node=3",
        "kill:node=x@t=0.5",
        "kill:node=3@t=-1",
        "delay:node=2@t=0.1,factor=0",
        "drop:node=1@t=0.2",
        "join:step@t=0.2",
        "explode:node=1@t=0.2",
        "delay:node=0@t=1e-3,factor=1.5",
    ];

    /// What a numeric field of a spec may be inflated to.
    const INFLATED: [&str; 9] = [
        "1e309",
        "-1e309",
        "inf",
        "NaN",
        "4294967296",
        "18446744073709551616",
        "1e-400",
        "-0",
        "0.0000000000000000000000000000000000001",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// `parse_event` is total over mutated specs: each gives an `Err`
        /// naming the spec, or an event with a finite `t >= 0` (and, for a
        /// straggler, a finite `factor > 0`) whose `Display` parses back to
        /// itself. Mutations: a byte flip, a truncation, or one run of
        /// digits replaced by an inflated number or appended to.
        #[test]
        fn parse_event_is_total_on_mutated_specs(
            pick in proptest::prelude::any::<usize>(),
            mutation in 0u8..4,
            at in proptest::prelude::any::<usize>(),
            mask in 1u8..=255,
            grow in proptest::prelude::any::<u64>(),
        ) {
            let clean = SPEC_CORPUS[pick % SPEC_CORPUS.len()].as_bytes();
            let mut bytes = clean.to_vec();
            let runs: Vec<(usize, usize)> = {
                let mut runs = Vec::new();
                let mut i = 0;
                while i < clean.len() {
                    let j = (i..clean.len()).find(|&j| !clean[j].is_ascii_digit()).unwrap_or(clean.len());
                    if j > i {
                        runs.push((i, j));
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                runs
            };
            match (mutation, runs.is_empty()) {
                (0, _) => bytes[at % clean.len()] ^= mask,
                (1, _) => bytes.truncate(at % clean.len()),
                (2, false) => {
                    let (i, j) = runs[at % runs.len()];
                    let with = INFLATED[grow as usize % INFLATED.len()];
                    bytes.splice(i..j, with.bytes());
                }
                (_, false) => {
                    let (_, j) = runs[at % runs.len()];
                    bytes.splice(j..j, grow.to_string().into_bytes());
                }
                (_, true) => bytes.push(mask),
            }
            let spec = String::from_utf8_lossy(&bytes);
            match parse_event(&spec) {
                Err(msg) => proptest::prop_assert!(msg.starts_with("bad fault spec"), "{msg}"),
                Ok(ev) => {
                    proptest::prop_assert!(ev.at.is_finite() && ev.at >= 0.0, "{spec}: t = {}", ev.at);
                    if let FaultKind::Straggle { factor, .. } = ev.kind {
                        proptest::prop_assert!(factor.is_finite() && factor > 0.0, "{spec}: factor = {factor}");
                    }
                    let again = parse_event(&ev.to_string());
                    proptest::prop_assert_eq!(again, Ok(ev), "{} does not round-trip", spec);
                }
            }
        }
    }
}
