//! Fair pricing for shared nodes (Sec. II-C / III-E).
//!
//! Traditional billing is unfair to jobs whose performance suffers from
//! interference (the paper cites Breslow et al.'s node-sharing pricing). The
//! scheme here: jobs that opt into sharing get a base discount for donating
//! their idle resources, plus compensation proportional to the measured (or
//! predicted) overhead — so a job slowed by 3% is billed strictly less than
//! `0.97×` of its shared-rate cost.

/// Pricing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PricingModel {
    /// Discount for opting into sharing (the incentive), in `[0,1)`.
    pub sharing_discount: f64,
    /// Compensation multiplier per 1% measured overhead.
    pub overhead_compensation_per_pct: f64,
    /// Price per core-hour at the exclusive rate (currency units).
    pub exclusive_core_hour_price: f64,
}

impl Default for PricingModel {
    fn default() -> Self {
        PricingModel {
            sharing_discount: 0.10,
            overhead_compensation_per_pct: 0.01,
            exclusive_core_hour_price: 1.0,
        }
    }
}

impl PricingModel {
    /// Cost of an exclusive job: whole-node cores billed at full rate.
    pub fn exclusive_cost(&self, node_cores: u32, nodes: u32, hours: f64) -> f64 {
        f64::from(node_cores) * f64::from(nodes) * hours * self.exclusive_core_hour_price
    }

    /// Cost of a shared job: only requested cores, at a discounted rate,
    /// with compensation for the measured overhead. Never negative.
    pub fn shared_cost(&self, requested_cores: u64, hours: f64, measured_overhead_pct: f64) -> f64 {
        let base = requested_cores as f64 * hours * self.exclusive_core_hour_price;
        let rate = (1.0 - self.sharing_discount)
            * (1.0 - self.overhead_compensation_per_pct * measured_overhead_pct.max(0.0));
        (base * rate).max(0.0)
    }

    /// Cost of a serverless function: fine-grained, billed per core-second
    /// at the shared rate (the reclaimed-resource price).
    pub fn function_cost(&self, cores: f64, seconds: f64) -> f64 {
        cores * (seconds / 3600.0) * self.exclusive_core_hour_price * (1.0 - self.sharing_discount)
    }

    /// Savings (fraction) of running shared vs exclusive for a job that
    /// requested `requested` of `node_cores × nodes` cores.
    pub fn sharing_savings(
        &self,
        requested_cores: u64,
        node_cores: u32,
        nodes: u32,
        hours: f64,
        overhead_pct: f64,
    ) -> f64 {
        let excl = self.exclusive_cost(node_cores, nodes, hours);
        let shared = self.shared_cost(
            requested_cores,
            hours * (1.0 + overhead_pct / 100.0),
            overhead_pct,
        );
        1.0 - shared / excl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulesh_case_from_paper() {
        // "only requesting 32 out of 36 cores on each node translates to a
        // core-hour cost reduction of ≈ 11%, more than offsetting any impact
        // of co-location."
        let p = PricingModel {
            sharing_discount: 0.0,
            overhead_compensation_per_pct: 0.0,
            exclusive_core_hour_price: 1.0,
        };
        let excl = p.exclusive_cost(36, 2, 1.0);
        let shared = p.shared_cost(64, 1.0, 0.0);
        let saving = 1.0 - shared / excl;
        assert!((saving - 0.111).abs() < 0.01, "saving={saving}");
    }

    #[test]
    fn overhead_is_compensated() {
        let p = PricingModel::default();
        let clean = p.shared_cost(32, 1.0, 0.0);
        let perturbed = p.shared_cost(32, 1.0, 3.0);
        assert!(perturbed < clean);
        assert!(
            (clean - perturbed) / clean > 0.02,
            "≥2% compensation for 3% overhead"
        );
    }

    #[test]
    fn shared_always_cheaper_than_exclusive_for_partial_requests() {
        let p = PricingModel::default();
        for requested in [8u64, 16, 32] {
            let savings = p.sharing_savings(requested, 36, 1, 2.0, 4.0);
            assert!(savings > 0.0, "requested={requested}: {savings}");
        }
    }

    #[test]
    fn function_cost_is_fine_grained() {
        let p = PricingModel::default();
        // 4 cores for 2 seconds — fractions of a cent, not a node-hour.
        let c = p.function_cost(4.0, 2.0);
        assert!(c < 0.01);
        assert!(c > 0.0);
    }

    #[test]
    fn cost_never_negative() {
        let p = PricingModel::default();
        assert!(p.shared_cost(16, 1.0, 1000.0) >= 0.0);
    }
}
