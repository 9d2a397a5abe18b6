//! `RunOptions` — the unified front-end configuration for running work on
//! a CuCC cluster.
//!
//! [`RunOptions`] is the one value both `cucc run` and `cucc serve` parse
//! their shared flags into, and the one value
//! [`crate::CuccCluster::with_options`] consumes; the kernel-execution
//! knobs ride in [`RunOptions::runtime`]. What a *session* does around its
//! launches — stream fan-out, graph replay, checkpoint and restore paths —
//! is not cluster configuration: the driver that does it (`cucc run`)
//! holds those values itself. `impl From<RuntimeConfig> for RunOptions`
//! keeps every `(spec, config)` construction site working unchanged.

use crate::runtime::{ExecutionFidelity, RuntimeConfig};
use cucc_exec::EngineKind;
use cucc_net::{AllgatherAlgo, AllgatherPlacement, FaultPlan};

/// Everything a CuCC cluster can be configured with, in one typed value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOptions {
    /// Kernel-execution knobs (fidelity, engine, threads, sanitizer,
    /// collectives, fault plan).
    pub runtime: RuntimeConfig,
}

impl RunOptions {
    /// Defaults: [`RuntimeConfig::default`].
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

/// A [`RuntimeConfig`] is a complete [`RunOptions`] — so every legacy
/// `(spec, config)` call site flows into
/// [`crate::CuccCluster::with_options`] unchanged.
impl From<RuntimeConfig> for RunOptions {
    fn from(runtime: RuntimeConfig) -> RunOptions {
        RunOptions { runtime }
    }
}

/// Chainable constructor for [`RunOptions`] — the one builder.
///
/// ```
/// use cucc_core::RunOptions;
/// let opts = RunOptions::builder()
///     .node_threads(2)
///     .sanitize(true)
///     .build();
/// assert!(opts.runtime.sanitize);
/// assert_eq!(opts.runtime.node_threads, 2);
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

    /// Finish and return the options.
    pub fn build(self) -> RunOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reaches_runtime_knobs() {
        let opts = RunOptions::builder()
            .modeled()
            .node_threads(3)
            .profile_samples(5)
            .build();
        assert_eq!(opts.runtime.fidelity, ExecutionFidelity::Modeled);
        assert!(!opts.runtime.verify_consistency);
        assert_eq!(opts.runtime.node_threads, 3);
        assert_eq!(opts.runtime.profile_samples, 5);
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
