//! Saturation-based contention model.
//!
//! Every workload on a node declares a demand vector; the model computes
//! per-resource *pressures* and stretches each workload's runtime on the
//! fraction of its execution bound by that resource:
//!
//! ```text
//! slowdown(w) = [ cpu_frac(w)·S_cpu
//!               + mem_frac(w)·(S_mem + cache_penalty(w))
//!               + net_frac(w)·S_net ] · noise
//! ```
//!
//! Three effects matter for reproducing the paper:
//!
//! * **Memory-bandwidth pressure** — `S_mem` is smooth and convex below
//!   saturation (queuing delay grows before bandwidth runs out — the reason
//!   MILC feels a 10 GB/s memory-service stream long before the bus
//!   saturates, Fig. 11) and linear beyond it (fair sharing of a saturated
//!   bus, Table III).
//! * **LLC pressure** — when combined footprints exceed the LLC, workloads
//!   with high *cache reuse* both lose hit rate (a direct latency penalty)
//!   and emit extra memory traffic (demand amplification). Streaming codes
//!   (EP, LULESH, MILC) barely care; CG collapses — exactly the Table III
//!   ordering.
//! * **Scheduling noise** — each co-runner adds a small constant overhead
//!   (OS noise, shared TLB/prefetcher state), the ±1-2% wiggle of Fig. 9.

/// Hardware capacity of a node's shared resources.
#[derive(Debug, Clone, Copy)]
pub struct NodeCapacity {
    pub cores: u32,
    /// Aggregate memory bandwidth, bytes/s.
    pub membw_bps: f64,
    /// Last-level cache size, MB.
    pub llc_mb: f64,
    /// Injection bandwidth of the NIC, bytes/s.
    pub net_bps: f64,
}

impl NodeCapacity {
    /// Piz Daint multicore node: 2×Broadwell E5-2695 v4.
    pub fn daint_mc() -> Self {
        NodeCapacity {
            cores: 36,
            membw_bps: 130e9,
            llc_mb: 90.0,
            net_bps: 10.2e9,
        }
    }

    /// Piz Daint hybrid node: one Haswell E5-2690 v3 + P100.
    pub fn daint_gpu() -> Self {
        NodeCapacity {
            cores: 12,
            membw_bps: 68e9,
            llc_mb: 30.0,
            net_bps: 10.2e9,
        }
    }

    /// Ault node: 2×Skylake Gold 6154.
    pub fn ault() -> Self {
        NodeCapacity {
            cores: 36,
            membw_bps: 210e9,
            llc_mb: 50.0,
            net_bps: 12.5e9,
        }
    }
}

/// One workload's demand on a node.
#[derive(Debug, Clone)]
pub struct Demand {
    pub name: String,
    /// Cores actively used on this node.
    pub cores: f64,
    /// Memory-bandwidth demand, bytes/s (all processes on this node).
    pub membw_bps: f64,
    /// LLC footprint, MB.
    pub llc_mb: f64,
    /// How much the workload benefits from cache residency, in `[0, 1]`:
    /// 0 = pure streaming, 1 = entirely reuse-driven.
    pub cache_reuse: f64,
    /// Network demand, bytes/s.
    pub net_bps: f64,
    /// Fraction of runtime bound by the memory system.
    pub mem_frac: f64,
    /// Fraction of runtime bound by the network.
    pub net_frac: f64,
}

impl Demand {
    /// Fraction of runtime bound by core compute.
    pub fn cpu_frac(&self) -> f64 {
        (1.0 - self.mem_frac - self.net_frac).max(0.0)
    }

    /// Scale the demand to `n` identical copies (e.g. n MPI ranks).
    pub fn times(&self, n: u32) -> Demand {
        Demand {
            name: self.name.clone(),
            cores: self.cores * f64::from(n),
            membw_bps: self.membw_bps * f64::from(n),
            llc_mb: self.llc_mb * f64::from(n),
            net_bps: self.net_bps * f64::from(n),
            ..*self
        }
    }
}

/// Model constants (exposed for the ablation benches).
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Traffic amplification per unit of LLC overflow, scaled by reuse.
    pub llc_alpha: f64,
    /// Cap on the per-workload amplification factor.
    pub llc_amp_max: f64,
    /// Direct latency penalty per unit of LLC overflow, scaled by reuse.
    pub llc_lambda: f64,
    /// Cap on the latency penalty term.
    pub llc_penalty_max: f64,
    /// Convexity coefficient of the sub-saturation bandwidth curve.
    pub membw_beta: f64,
    /// Per-co-runner scheduling-noise overhead.
    pub noise_per_corunner: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            llc_alpha: 0.25,
            llc_amp_max: 2.0,
            llc_lambda: 0.30,
            llc_penalty_max: 1.5,
            membw_beta: 0.35,
            noise_per_corunner: 0.005,
        }
    }
}

/// Smooth bandwidth-pressure stretch: convex below saturation (queuing),
/// linear above it (fair sharing of a saturated bus). Continuous at ρ = 1.
fn membw_stretch(rho: f64, beta: f64) -> f64 {
    if rho <= 1.0 {
        1.0 + beta * rho.powi(4)
    } else {
        1.0 + beta + (rho - 1.0)
    }
}

/// Compute the slowdown factor (≥ ~1.0) for every workload in `demands`
/// co-located on a node with `capacity`. Order of results matches input.
pub fn slowdowns_with(capacity: &NodeCapacity, demands: &[Demand], p: &ModelParams) -> Vec<f64> {
    if demands.is_empty() {
        return Vec::new();
    }
    let total_llc: f64 = demands.iter().map(|d| d.llc_mb).sum();
    let overflow = (total_llc / capacity.llc_mb - 1.0).max(0.0);

    // Per-workload miss amplification: cache-reliant workloads emit extra
    // traffic once the LLC is oversubscribed.
    let amp: Vec<f64> = demands
        .iter()
        .map(|d| 1.0 + (d.cache_reuse * p.llc_alpha * overflow).min(p.llc_amp_max - 1.0))
        .collect();

    let total_membw: f64 = demands.iter().zip(&amp).map(|(d, a)| d.membw_bps * a).sum();
    let rho_mem = total_membw / capacity.membw_bps;
    let s_mem = membw_stretch(rho_mem, p.membw_beta);

    let rho_net: f64 = demands.iter().map(|d| d.net_bps).sum::<f64>() / capacity.net_bps;
    let s_net = membw_stretch(rho_net, p.membw_beta);

    let total_cores: f64 = demands.iter().map(|d| d.cores).sum();
    let s_cpu = (total_cores / f64::from(capacity.cores)).max(1.0);

    let noise = 1.0 + p.noise_per_corunner * (demands.len() as f64 - 1.0);

    demands
        .iter()
        .map(|d| {
            let cache_penalty = d.cache_reuse * (p.llc_lambda * overflow).min(p.llc_penalty_max);
            let base =
                d.cpu_frac() * s_cpu + d.mem_frac * (s_mem + cache_penalty) + d.net_frac * s_net;
            base * noise
        })
        .collect()
}

/// [`slowdowns_with`] using default parameters.
pub fn slowdowns(capacity: &NodeCapacity, demands: &[Demand]) -> Vec<f64> {
    slowdowns_with(capacity, demands, &ModelParams::default())
}

/// Slowdown of a single workload running alone.
pub fn solo_slowdown(capacity: &NodeCapacity, demand: &Demand) -> f64 {
    slowdowns(capacity, std::slice::from_ref(demand))[0]
}

/// Relative overhead (% runtime increase) experienced by `victim` when
/// `aggressors` join it on the node, versus running alone.
pub fn colocation_overhead_pct(
    capacity: &NodeCapacity,
    victim: &Demand,
    aggressors: &[Demand],
) -> f64 {
    let solo = solo_slowdown(capacity, victim);
    let mut all = vec![victim.clone()];
    all.extend_from_slice(aggressors);
    let together = slowdowns(capacity, &all)[0];
    100.0 * (together / solo - 1.0)
}

/// Node-level *throughput efficiency* of running `n` identical copies versus
/// one: `n_effective / n` where each copy computes at `1/slowdown` of its
/// solo rate. This is the metric of Table III.
pub fn scaling_efficiency(capacity: &NodeCapacity, per_copy: &Demand, n: u32) -> f64 {
    if n == 0 {
        return f64::NAN;
    }
    let demands: Vec<Demand> = (0..n).map(|_| per_copy.clone()).collect();
    let s = slowdowns(capacity, &demands);
    let solo = solo_slowdown(capacity, per_copy);
    s.iter().map(|sd| solo / sd).sum::<f64>() / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming(name: &str, cores: f64, membw_per_core: f64, mem_frac: f64) -> Demand {
        Demand {
            name: name.into(),
            cores,
            membw_bps: membw_per_core * cores,
            llc_mb: 0.5 * cores,
            cache_reuse: 0.05,
            net_bps: 0.0,
            mem_frac,
            net_frac: 0.0,
        }
    }

    fn cache_hungry(name: &str, cores: f64) -> Demand {
        Demand {
            name: name.into(),
            cores,
            membw_bps: 5.8e9 * cores,
            llc_mb: 26.0 * cores,
            cache_reuse: 0.8,
            net_bps: 0.0,
            mem_frac: 0.84,
            net_frac: 0.0,
        }
    }

    #[test]
    fn lone_workload_no_slowdown() {
        let cap = NodeCapacity::daint_mc();
        let d = streaming("ep", 1.0, 0.15e9, 0.02);
        assert!((solo_slowdown(&cap, &d) - 1.0).abs() < 0.01);
    }

    #[test]
    fn compute_bound_scales_nearly_linearly() {
        let cap = NodeCapacity::daint_mc();
        let ep = streaming("ep", 1.0, 0.15e9, 0.02);
        let eff = scaling_efficiency(&cap, &ep, 32);
        // Table III: EP at 32 copies ≈ 85% efficiency.
        assert!(eff > 0.78 && eff <= 1.0, "eff={eff}");
    }

    #[test]
    fn cache_hungry_collapses() {
        let cap = NodeCapacity::daint_mc();
        let cg = cache_hungry("cg", 1.0);
        let eff32 = scaling_efficiency(&cap, &cg, 32);
        let eff8 = scaling_efficiency(&cap, &cg, 8);
        // Table III: CG at 32 ≈ 36%, at 8 ≈ 60%.
        assert!(eff32 < 0.45, "eff32={eff32}");
        assert!(eff8 > 0.45 && eff8 < 0.8, "eff8={eff8}");
        assert!(eff8 > eff32);
    }

    #[test]
    fn efficiency_ordering_matches_table3() {
        let cap = NodeCapacity::daint_mc();
        let ep = streaming("ep", 1.0, 0.15e9, 0.02);
        let bt = Demand {
            name: "bt".into(),
            cores: 1.0,
            membw_bps: 2.0e9,
            llc_mb: 6.0,
            cache_reuse: 0.6,
            net_bps: 0.0,
            mem_frac: 0.42,
            net_frac: 0.0,
        };
        let cg = cache_hungry("cg", 1.0);
        let e_ep = scaling_efficiency(&cap, &ep, 32);
        let e_bt = scaling_efficiency(&cap, &bt, 32);
        let e_cg = scaling_efficiency(&cap, &cg, 32);
        assert!(e_ep > e_bt, "EP ({e_ep}) > BT ({e_bt})");
        assert!(e_bt > e_cg, "BT ({e_bt}) > CG ({e_cg})");
    }

    #[test]
    fn sub_saturation_pressure_is_gentle_but_nonzero() {
        // A memory-bound victim near (but below) saturation feels an added
        // stream — the Fig. 11 MILC effect.
        let cap = NodeCapacity::ault();
        let milc = streaming("milc", 32.0, 5.5e9, 0.75);
        let memsvc = Demand {
            name: "memsvc".into(),
            cores: 0.1,
            membw_bps: 25e9,
            llc_mb: 1.0,
            cache_reuse: 0.0,
            net_bps: 10e9,
            mem_frac: 0.9,
            net_frac: 0.1,
        };
        let over = colocation_overhead_pct(&cap, &milc, &[memsvc]);
        assert!(over > 3.0 && over < 25.0, "over={over}%");
    }

    #[test]
    fn compute_bound_victim_barely_affected() {
        // LULESH vs the same memory-service stream: Fig. 11a shows ≤ 8%.
        let cap = NodeCapacity::ault();
        let lulesh = streaming("lulesh", 27.0, 1.2e9, 0.15);
        let memsvc = Demand {
            name: "memsvc".into(),
            cores: 0.1,
            membw_bps: 25e9,
            llc_mb: 1.0,
            cache_reuse: 0.0,
            net_bps: 10e9,
            mem_frac: 0.9,
            net_frac: 0.1,
        };
        let over = colocation_overhead_pct(&cap, &lulesh, &[memsvc]);
        assert!(over < 5.0, "over={over}%");
    }

    #[test]
    fn network_contention_separate_axis() {
        let cap = NodeCapacity::daint_mc();
        let net_heavy = Demand {
            name: "halo".into(),
            cores: 8.0,
            membw_bps: 1e9,
            llc_mb: 4.0,
            cache_reuse: 0.1,
            net_bps: 8e9,
            mem_frac: 0.1,
            net_frac: 0.5,
        };
        let s = slowdowns(&cap, &[net_heavy.clone(), net_heavy.clone()]);
        // 16 GB/s vs 10.2 GB/s NIC: saturated, victims stretched.
        assert!(s[0] > 1.2 && s[0] < 1.8, "s={}", s[0]);
    }

    #[test]
    fn cpu_oversubscription_stretches() {
        let cap = NodeCapacity::daint_mc();
        let d = streaming("busy", 30.0, 0.2e9, 0.02);
        let s = slowdowns(&cap, &[d.clone(), d.clone()]);
        // 60 cores demanded on 36: ~1.67x stretch on the compute fraction.
        assert!(s[0] > 1.5, "s={}", s[0]);
    }

    #[test]
    fn membw_stretch_continuous_at_saturation() {
        let p = ModelParams::default();
        let below = membw_stretch(1.0 - 1e-9, p.membw_beta);
        let above = membw_stretch(1.0 + 1e-9, p.membw_beta);
        assert!((below - above).abs() < 1e-6);
        assert!(membw_stretch(2.0, p.membw_beta) > membw_stretch(1.5, p.membw_beta));
    }

    #[test]
    fn overhead_pct_zero_without_aggressors() {
        let cap = NodeCapacity::daint_mc();
        let v = streaming("solo", 4.0, 0.2e9, 0.02);
        assert!(colocation_overhead_pct(&cap, &v, &[]).abs() < 1e-9);
    }

    #[test]
    fn results_align_with_input_order() {
        let cap = NodeCapacity::daint_mc();
        let a = streaming("a", 1.0, 0.15e9, 0.02);
        let b = cache_hungry("b", 20.0);
        let s = slowdowns(&cap, &[a, b]);
        assert!(s[1] > s[0], "memory-bound workload suffers more");
    }

    #[test]
    fn scaling_efficiency_monotone_decreasing() {
        let cap = NodeCapacity::daint_mc();
        let cg = cache_hungry("cg", 1.0);
        let mut prev = 1.01;
        for n in [1u32, 2, 4, 8, 16, 32] {
            let e = scaling_efficiency(&cap, &cg, n);
            assert!(e <= prev + 1e-9, "n={n}: {e} > {prev}");
            prev = e;
        }
    }
}
