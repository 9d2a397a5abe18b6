//! `RunOptions` — the unified front-end configuration for running work on
//! a CuCC cluster.
//!
//! [`RuntimeConfig`] grew one knob at a time (engine, threads, sanitizer,
//! faults, …) while session-level concerns — how many streams to fan out
//! over, whether to capture a launch graph, where to checkpoint or restore
//! — accreted as loose CLI flags with no typed home. [`RunOptions`] is the
//! one value both `cucc run` and `cucc serve` parse their flags into, and
//! the one value [`crate::CuccCluster::with_options`] consumes: the
//! runtime knobs ride in [`RunOptions::runtime`], the session knobs beside
//! it. `impl From<RuntimeConfig> for RunOptions` keeps every existing
//! construction site working unchanged.

use crate::runtime::{ExecutionFidelity, RuntimeConfig};
use cucc_exec::EngineKind;
use cucc_net::{AllgatherAlgo, AllgatherPlacement, FaultPlan};
use std::path::PathBuf;

/// Everything a CuCC session can be asked to do, in one typed value:
/// the [`RuntimeConfig`] kernel-execution knobs plus the session-level
/// options (`--streams/--graph/--checkpoint/--restore`) that previously
/// lived only as CLI flag state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOptions {
    /// Kernel-execution knobs (fidelity, engine, threads, sanitizer,
    /// collectives, fault plan).
    pub runtime: RuntimeConfig,
    /// Streams to fan a pipelined workload over (`0` = no stream
    /// pipelining; `cucc run --streams N`).
    pub streams: usize,
    /// Capture the launch into a graph and replay it this many times
    /// (`0` = no capture; `cucc run --graph N`).
    pub graph_iters: usize,
    /// Write the cluster state to this path at the end of the session
    /// (`cucc run --checkpoint`).
    pub checkpoint_to: Option<PathBuf>,
    /// Resume the session from a checkpoint at this path before launching
    /// (`cucc run --restore`).
    pub restore_from: Option<PathBuf>,
}

impl RunOptions {
    /// Defaults: functional fidelity, no streams, no graph capture, no
    /// checkpoint I/O.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Start building from the defaults.
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder {
            options: RunOptions::default(),
        }
    }
}

/// A [`RuntimeConfig`] is a complete [`RunOptions`] with the session
/// knobs at their defaults — so every legacy `(spec, config)` call site
/// flows into [`crate::CuccCluster::with_options`] unchanged.
impl From<RuntimeConfig> for RunOptions {
    fn from(runtime: RuntimeConfig) -> RunOptions {
        RunOptions {
            runtime,
            ..RunOptions::default()
        }
    }
}

/// Chainable constructor for [`RunOptions`] — the one builder: the
/// [`RuntimeConfig`] knobs and the session knobs alike.
///
/// ```
/// use cucc_core::RunOptions;
/// let opts = RunOptions::builder()
///     .node_threads(2)
///     .sanitize(true)
///     .streams(4)
///     .build();
/// assert!(opts.runtime.sanitize);
/// assert_eq!(opts.streams, 4);
/// ```
#[derive(Debug, Clone)]
pub struct RunOptionsBuilder {
    options: RunOptions,
}

impl RunOptionsBuilder {
    /// Switch to timing-only modeled fidelity (disables consistency
    /// verification).
    pub fn modeled(mut self) -> Self {
        self.options.runtime.fidelity = ExecutionFidelity::Modeled;
        self.options.runtime.verify_consistency = false;
        self
    }

    /// Set the execution fidelity directly.
    pub fn fidelity(mut self, fidelity: ExecutionFidelity) -> Self {
        self.options.runtime.fidelity = fidelity;
        self
    }

    /// Select the functional block executor.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.options.runtime.engine = engine;
        self
    }

    /// Worker threads per node (`0` = derive from the host).
    pub fn node_threads(mut self, threads: usize) -> Self {
        self.options.runtime.node_threads = threads;
        self
    }

    /// Enable or disable the dynamic kernel sanitizer.
    pub fn sanitize(mut self, on: bool) -> Self {
        self.options.runtime.sanitize = on;
        self
    }

    /// Choose the Allgather algorithm.
    pub fn allgather_algo(mut self, algo: AllgatherAlgo) -> Self {
        self.options.runtime.allgather_algo = algo;
        self
    }

    /// Choose the Allgather buffer placement.
    pub fn placement(mut self, placement: AllgatherPlacement) -> Self {
        self.options.runtime.placement = placement;
        self
    }

    /// Enable or disable the per-launch consistency check.
    pub fn verify_consistency(mut self, on: bool) -> Self {
        self.options.runtime.verify_consistency = on;
        self
    }

    /// Blocks sampled per launch profile.
    pub fn profile_samples(mut self, samples: usize) -> Self {
        self.options.runtime.profile_samples = samples;
        self
    }

    /// Install a complete fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.options.runtime.faults = plan;
        self
    }

    /// Add one `--fault` spec (`kill:…`, `delay:…`, `drop:…`, `join:…`)
    /// to the plan. Errors on a malformed spec, like the CLI flag it
    /// backs.
    pub fn fault(mut self, spec: &str) -> Result<Self, String> {
        self.options.runtime.faults = self.options.runtime.faults.clone().with_spec(spec)?;
        Ok(self)
    }

    /// Streams to fan a pipelined workload over (`--streams N`).
    pub fn streams(mut self, streams: usize) -> Self {
        self.options.streams = streams;
        self
    }

    /// Capture and replay the launch graph this many times (`--graph N`).
    pub fn graph_iters(mut self, iters: usize) -> Self {
        self.options.graph_iters = iters;
        self
    }

    /// Checkpoint the cluster state to `path` at the end of the session.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.options.checkpoint_to = Some(path.into());
        self
    }

    /// Restore the session from the checkpoint at `path` before work.
    pub fn restore_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.options.restore_from = Some(path.into());
        self
    }

    /// Finish and return the options.
    pub fn build(self) -> RunOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reaches_runtime_and_session_knobs() {
        let opts = RunOptions::builder()
            .modeled()
            .node_threads(3)
            .profile_samples(5)
            .streams(2)
            .graph_iters(7)
            .checkpoint_to("/tmp/x.ckpt")
            .build();
        assert_eq!(opts.runtime.fidelity, ExecutionFidelity::Modeled);
        assert!(!opts.runtime.verify_consistency);
        assert_eq!(opts.runtime.node_threads, 3);
        assert_eq!(opts.runtime.profile_samples, 5);
        assert_eq!(opts.streams, 2);
        assert_eq!(opts.graph_iters, 7);
        assert_eq!(
            opts.checkpoint_to.as_deref().unwrap().to_str(),
            Some("/tmp/x.ckpt")
        );
        assert!(opts.restore_from.is_none());
    }

    #[test]
    fn from_runtime_config_preserves_every_knob() {
        let cfg = RuntimeConfig {
            sanitize: true,
            node_threads: 2,
            ..RuntimeConfig::default()
        };
        let opts: RunOptions = cfg.clone().into();
        assert_eq!(opts.runtime, cfg);
        assert_eq!(opts.streams, 0);
        assert_eq!(opts.graph_iters, 0);
    }

    #[test]
    fn fault_specs_accumulate_and_malformed_specs_error() {
        let b = RunOptions::builder()
            .fault("kill:node=1@t=0.5")
            .unwrap()
            .fault("join:node=1@t=1.0")
            .unwrap();
        let opts = b.build();
        assert!(!opts.runtime.faults.is_empty());
        assert!(RunOptions::builder().fault("explode:everything").is_err());
    }
}
