//! The co-location decision engine of Fig. 4.
//!
//! Decision flow for "may function F join the node running batch job J?":
//!
//! 1. **Availability** — disaggregation is opt-in; the job must have the
//!    shared flag and the node must have spare cores/memory (checked by the
//!    caller against the cluster state; this module gets the free-resource
//!    summary).
//! 2. **Hero-job exemption** — large jobs are never perturbed (Sec. III-F).
//! 3. **History** — if the pair has recorded co-locations, use the mean
//!    measured overhead.
//! 4. **Requirement modeling** — otherwise, predict the overhead from the
//!    counter-derived demand vectors through the contention model
//!    (Calotoiu et al.-style requirement modelling, built in the background
//!    and therefore off the scheduling critical path).
//! 5. The co-location outcome is fed back into the history.

use crate::history::ColocationHistory;
use crate::model::{colocation_overhead_pct, Demand, NodeCapacity};

/// Policy thresholds.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Maximum acceptable predicted/recorded batch-job overhead, percent.
    pub max_batch_overhead_pct: f64,
    /// Jobs at or above this node count are "hero jobs" and exempt.
    pub hero_job_nodes: u32,
    /// Require at least this many history observations before trusting them.
    pub min_history_observations: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            max_batch_overhead_pct: 5.0,
            hero_job_nodes: 256,
            min_history_observations: 3,
        }
    }
}

/// Outcome of a policy query.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Go ahead; the expected batch overhead and its source are attached.
    Colocate {
        expected_overhead_pct: f64,
        source: DecisionSource,
    },
    /// Declined.
    Reject { reason: RejectReason },
}

/// Where the overhead estimate came from (Fig. 4's two paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    History,
    RequirementModel,
}

/// Why a co-location was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    NotOptedIn,
    HeroJob,
    InsufficientResources,
    PredictedInterference,
    RecordedInterference,
}

/// The policy engine: owns the history and the model parameters.
#[derive(Debug, Default)]
pub struct ColocationPolicy {
    pub config: PolicyConfig,
    pub history: ColocationHistory,
}

impl ColocationPolicy {
    pub fn new(config: PolicyConfig) -> Self {
        ColocationPolicy {
            config,
            history: ColocationHistory::new(),
        }
    }

    /// Decide whether `function` may join `batch` on a node of `capacity`.
    ///
    /// * `batch_opted_in` — job used the shared flag / sharing partition.
    /// * `batch_nodes` — total node count of the batch job (hero check).
    /// * `free_cores`, `free_memory_mb` — spare capacity on the target node.
    /// * `batch_on_node` / `function` — demand vectors for the model path.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        capacity: &NodeCapacity,
        batch_on_node: &Demand,
        batch_nodes: u32,
        batch_opted_in: bool,
        function: &Demand,
        function_memory_mb: u64,
        free_cores: f64,
        free_memory_mb: u64,
    ) -> Decision {
        if !batch_opted_in {
            return Decision::Reject {
                reason: RejectReason::NotOptedIn,
            };
        }
        if batch_nodes >= self.config.hero_job_nodes {
            return Decision::Reject {
                reason: RejectReason::HeroJob,
            };
        }
        if function.cores > free_cores || function_memory_mb > free_memory_mb {
            return Decision::Reject {
                reason: RejectReason::InsufficientResources,
            };
        }

        // History path.
        if self
            .history
            .observations(&batch_on_node.name, &function.name)
            >= self.config.min_history_observations
        {
            let overhead = self
                .history
                .expected_batch_overhead_pct(&batch_on_node.name, &function.name)
                .expect("observations > 0");
            return if overhead <= self.config.max_batch_overhead_pct {
                Decision::Colocate {
                    expected_overhead_pct: overhead,
                    source: DecisionSource::History,
                }
            } else {
                Decision::Reject {
                    reason: RejectReason::RecordedInterference,
                }
            };
        }

        // Requirement-modeling path.
        let predicted =
            colocation_overhead_pct(capacity, batch_on_node, std::slice::from_ref(function));
        if predicted <= self.config.max_batch_overhead_pct {
            Decision::Colocate {
                expected_overhead_pct: predicted,
                source: DecisionSource::RequirementModel,
            }
        } else {
            Decision::Reject {
                reason: RejectReason::PredictedInterference,
            }
        }
    }

    /// Feed a measured batch-job overhead back (Fig. 4's feedback edge).
    pub fn record_outcome(&mut self, batch: &str, function: &str, batch_overhead_pct: f64) {
        self.history.record(batch, function, batch_overhead_pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{NasClass, NasKernel, WorkloadProfile};

    fn setup() -> (NodeCapacity, Demand, Demand, Demand) {
        let cap = NodeCapacity::daint_mc();
        let lulesh = WorkloadProfile::lulesh(20).on_node(32);
        let ep = WorkloadProfile::nas(NasKernel::Ep, NasClass::B).on_node(2);
        let cg = WorkloadProfile::nas(NasKernel::Cg, NasClass::B).on_node(16);
        (cap, lulesh, ep, cg)
    }

    #[test]
    fn compute_bound_function_accepted_via_model() {
        let (cap, lulesh, ep, _) = setup();
        let p = ColocationPolicy::default();
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 2048, 4.0, 64 * 1024);
        match d {
            Decision::Colocate {
                source: DecisionSource::RequirementModel,
                expected_overhead_pct,
            } => assert!(expected_overhead_pct < 5.0),
            other => panic!("expected model-path accept, got {other:?}"),
        }
    }

    #[test]
    fn heavy_aggressor_rejected_via_model() {
        let (cap, _, _, cg) = setup();
        let milc = WorkloadProfile::milc(128).on_node(32);
        let p = ColocationPolicy::default();
        let d = p.decide(&cap, &milc, 2, true, &cg, 2048, 16.0, 64 * 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::PredictedInterference
            }
        );
    }

    #[test]
    fn opt_in_is_mandatory() {
        let (cap, lulesh, ep, _) = setup();
        let p = ColocationPolicy::default();
        let d = p.decide(&cap, &lulesh, 2, false, &ep, 128, 4.0, 64 * 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::NotOptedIn
            }
        );
    }

    #[test]
    fn hero_jobs_exempt() {
        let (cap, lulesh, ep, _) = setup();
        let p = ColocationPolicy::default();
        let d = p.decide(&cap, &lulesh, 300, true, &ep, 128, 4.0, 64 * 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::HeroJob
            }
        );
    }

    #[test]
    fn resource_fit_checked() {
        let (cap, lulesh, ep, _) = setup();
        let p = ColocationPolicy::default();
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 128, 1.0, 64 * 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::InsufficientResources
            }
        );
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 128 * 1024, 4.0, 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::InsufficientResources
            }
        );
    }

    #[test]
    fn history_overrides_model_once_sufficient() {
        let (cap, lulesh, ep, _) = setup();
        let mut p = ColocationPolicy::default();
        // Record bad outcomes for a pair the model would accept.
        for _ in 0..3 {
            p.record_outcome(&lulesh.name, &ep.name, 12.0);
        }
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 128, 4.0, 64 * 1024);
        assert_eq!(
            d,
            Decision::Reject {
                reason: RejectReason::RecordedInterference
            }
        );
    }

    #[test]
    fn insufficient_history_falls_back_to_model() {
        let (cap, lulesh, ep, _) = setup();
        let mut p = ColocationPolicy::default();
        p.record_outcome(&lulesh.name, &ep.name, 50.0); // one bad sample
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 128, 4.0, 64 * 1024);
        assert!(
            matches!(
                d,
                Decision::Colocate {
                    source: DecisionSource::RequirementModel,
                    ..
                }
            ),
            "one observation < min_history_observations: {d:?}"
        );
    }

    #[test]
    fn good_history_accepts() {
        let (cap, lulesh, ep, _) = setup();
        let mut p = ColocationPolicy::default();
        for _ in 0..5 {
            p.record_outcome(&lulesh.name, &ep.name, 1.5);
        }
        let d = p.decide(&cap, &lulesh, 2, true, &ep, 128, 4.0, 64 * 1024);
        match d {
            Decision::Colocate {
                source: DecisionSource::History,
                expected_overhead_pct,
            } => assert!((expected_overhead_pct - 1.5).abs() < 1e-9),
            other => panic!("expected history accept, got {other:?}"),
        }
    }
}
