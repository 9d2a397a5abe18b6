//! `RunOptions` — the one configuration type for running work on a CuCC
//! cluster.
//!
//! [`RunOptions`] is the name both `cucc run` and `cucc serve` parse their
//! shared flags into and [`crate::CuccCluster::with_options`] consumes; it
//! *is* [`RuntimeConfig`], whose chainable setters live here. What a
//! *session* does around its launches — stream fan-out, graph replay,
//! checkpoint and restore paths — is not cluster configuration: the driver
//! that does it (`cucc run`) holds those values itself.

use crate::runtime::{ExecutionFidelity, RuntimeConfig};
use cucc_exec::EngineKind;
use cucc_net::{AllgatherAlgo, AllgatherPlacement, FaultPlan};

/// Everything a CuCC cluster can be configured with, in one typed value.
pub type RunOptions = RuntimeConfig;

/// Chainable construction — the one builder.
///
/// ```
/// use cucc_core::RunOptions;
/// let opts = RunOptions::builder()
///     .node_threads(2)
///     .sanitize(true)
///     .build();
/// assert!(opts.sanitize);
/// assert_eq!(opts.node_threads, 2);
/// ```
impl RuntimeConfig {
    /// Start building from the defaults.
    pub fn builder() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    /// Set the execution fidelity.
    pub fn fidelity(mut self, fidelity: ExecutionFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Select the functional block executor.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Worker threads per node (`0` = derive from the host).
    pub fn node_threads(mut self, threads: usize) -> Self {
        self.node_threads = threads;
        self
    }

    /// Enable or disable the dynamic kernel sanitizer.
    pub fn sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Choose the Allgather algorithm.
    pub fn allgather_algo(mut self, algo: AllgatherAlgo) -> Self {
        self.allgather_algo = algo;
        self
    }

    /// Choose the Allgather buffer placement.
    pub fn placement(mut self, placement: AllgatherPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Blocks sampled per launch profile.
    pub fn profile_samples(mut self, samples: usize) -> Self {
        self.profile_samples = samples;
        self
    }

    /// Install a complete fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Add one `--fault` spec (`kill:…`, `delay:…`, `drop:…`, `join:…`)
    /// to the plan. Errors on a malformed spec, like the CLI flag it
    /// backs.
    pub fn fault(mut self, spec: &str) -> Result<Self, String> {
        self.faults = self.faults.with_spec(spec)?;
        Ok(self)
    }

    /// Finish the chain.
    pub fn build(self) -> RuntimeConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reaches_runtime_knobs() {
        let opts = RunOptions::builder()
            .fidelity(ExecutionFidelity::Modeled)
            .node_threads(3)
            .profile_samples(5)
            .build();
        assert_eq!(opts.node_threads, 3);
        assert_eq!(opts.profile_samples, 5);
        assert_eq!(
            RuntimeConfig {
                node_threads: 0,
                profile_samples: 3,
                ..opts
            },
            RuntimeConfig::modeled()
        );
    }

    #[test]
    fn fault_specs_accumulate_and_malformed_specs_error() {
        let b = RunOptions::builder()
            .fault("kill:node=1@t=0.5")
            .unwrap()
            .fault("join:node=1@t=1.0")
            .unwrap();
        let opts = b.build();
        assert!(!opts.faults.is_empty());
        assert!(RunOptions::builder().fault("explode:everything").is_err());
    }
}
