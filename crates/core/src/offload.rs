//! LogP-based offload planning — Sec. IV-F and Eq. (1).
//!
//! The guiding principle: *the application never waits for remote
//! invocations*. Work is offloaded only when enough local work remains to
//! hide the round trip:
//!
//! ```text
//! N_local · T_local ≥ T_inv + L               (Eq. 1)
//! N_remote = B / Data_inv                      (bandwidth saturation)
//! ```
//!
//! `T_local` comes from offline profiling, `T_inv` from the executor model,
//! and `L` from the learned network parameters — the LogP measurements the
//! paper performs at startup.

use des::SimTime;
use fabric::{CompletionMode, LogGpParams};

/// Inputs of the planner, learned or profiled.
#[derive(Debug, Clone, Copy)]
pub struct OffloadPlanner {
    /// Local runtime of one task (profiled).
    pub t_local: SimTime,
    /// Remote execution time of one task (invocation overhead included,
    /// network excluded).
    pub t_inv: SimTime,
    /// Round-trip network time for one task's payload + result.
    pub latency: SimTime,
    /// Available network bandwidth, bytes/s.
    pub bandwidth_bps: f64,
    /// Payload bytes shipped per invocation.
    pub data_per_inv: usize,
}

/// The planner's decision for a task batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadPlan {
    /// Tasks kept local (at least `n_local_min`, more if workers are free).
    pub local: usize,
    /// Tasks sent to remote executors.
    pub remote: usize,
    /// Max concurrent in-flight invocations before the link saturates.
    pub max_in_flight: usize,
}

impl OffloadPlanner {
    /// Derive a planner from the transport parameters and profiling data.
    pub fn from_network(
        params: &LogGpParams,
        t_local: SimTime,
        t_inv: SimTime,
        payload: usize,
        result: usize,
    ) -> Self {
        OffloadPlanner {
            t_local,
            t_inv,
            latency: params.round_trip(payload, result, CompletionMode::BusyPoll),
            bandwidth_bps: params.bandwidth_bps(),
            data_per_inv: payload + result,
        }
    }

    /// Eq. (1): the minimum number of tasks that must stay local so the
    /// offload round trip is hidden by local work.
    pub fn n_local_min(&self) -> usize {
        let hide = (self.t_inv + self.latency).as_secs_f64();
        let t = self.t_local.as_secs_f64();
        if t <= 0.0 {
            return usize::MAX; // nothing local to hide behind: keep all
        }
        (hide / t).ceil() as usize
    }

    /// Bandwidth-saturation bound on concurrently in-flight invocations:
    /// `B / Data_inv` invocations per second, times the per-invocation
    /// round-trip duration.
    pub fn max_in_flight(&self) -> usize {
        if self.data_per_inv == 0 {
            return usize::MAX;
        }
        let inv_per_s = self.bandwidth_bps / self.data_per_inv as f64;
        let rtt_s = (self.t_inv + self.latency).as_secs_f64();
        ((inv_per_s * rtt_s).floor() as usize).max(1)
    }

    /// Aggregate remote throughput (tasks/s): executors working in parallel,
    /// capped by what the link can carry.
    fn remote_rate(&self, remote_executors: usize) -> f64 {
        if remote_executors == 0 {
            return 0.0;
        }
        let exec_rate = remote_executors as f64 / self.t_inv.as_secs_f64().max(1e-12);
        let link_rate = if self.data_per_inv == 0 {
            f64::INFINITY
        } else {
            self.bandwidth_bps / self.data_per_inv as f64
        };
        exec_rate.min(link_rate)
    }

    /// Split `n_tasks` between `local_workers` threads and remote executors
    /// so both sides finish together (rate-proportional split), subject to
    /// the Eq. (1) constraint that at least `n_local_min` tasks stay local to
    /// hide the offload round trip.
    pub fn plan_with_workers(
        &self,
        n_tasks: usize,
        local_workers: usize,
        remote_executors: usize,
    ) -> OffloadPlan {
        let n_min = self.n_local_min();
        let remote_rate = self.remote_rate(remote_executors);
        if n_tasks <= n_min || remote_rate <= 0.0 {
            return OffloadPlan {
                local: n_tasks,
                remote: 0,
                max_in_flight: self.max_in_flight(),
            };
        }
        let local_rate = local_workers.max(1) as f64 / self.t_local.as_secs_f64().max(1e-12);
        let remote_frac = remote_rate / (local_rate + remote_rate);
        let remote = ((n_tasks as f64 * remote_frac).floor() as usize).min(n_tasks - n_min);
        OffloadPlan {
            local: n_tasks - remote,
            remote,
            max_in_flight: self.max_in_flight(),
        }
    }

    /// Predicted makespan (seconds) of a plan with `local_workers` threads
    /// and `remote_executors` leased executors.
    pub fn predicted_makespan_s(
        &self,
        plan: &OffloadPlan,
        local_workers: usize,
        remote_executors: usize,
    ) -> f64 {
        let local_s = plan.local as f64 * self.t_local.as_secs_f64() / local_workers.max(1) as f64;
        let remote_s = if plan.remote == 0 {
            0.0
        } else {
            self.latency.as_secs_f64()
                + plan.remote as f64 / self.remote_rate(remote_executors).max(1e-12)
        };
        local_s.max(remote_s)
    }

    /// Predicted speedup over serial execution for the Fig. 13 sweep:
    /// `workers` local threads plus (optionally) one remote executor per
    /// thread ("doubling parallel resources with cheap serverless
    /// allocation").
    pub fn predicted_speedup(&self, n_tasks: usize, workers: usize, with_remote: bool) -> f64 {
        let serial = n_tasks as f64 * self.t_local.as_secs_f64();
        let remote_executors = if with_remote { workers } else { 0 };
        let plan = self.plan_with_workers(n_tasks, workers, remote_executors);
        let t = self.predicted_makespan_s(&plan, workers, remote_executors);
        if t <= 0.0 {
            f64::NAN
        } else {
            serial / t
        }
    }

    /// Speedup of running *everything* remotely (the paper's pure-rFaaS
    /// series in Fig. 13): no local workers, `remote_executors` executors.
    pub fn predicted_remote_only_speedup(&self, n_tasks: usize, remote_executors: usize) -> f64 {
        let serial = n_tasks as f64 * self.t_local.as_secs_f64();
        let rate = self.remote_rate(remote_executors);
        if rate <= 0.0 {
            return 0.0;
        }
        let t = self.latency.as_secs_f64() + n_tasks as f64 / rate;
        serial / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(t_local_ms: u64, t_inv_ms: u64) -> OffloadPlanner {
        OffloadPlanner {
            t_local: SimTime::from_millis(t_local_ms),
            t_inv: SimTime::from_millis(t_inv_ms),
            latency: SimTime::from_micros(50),
            bandwidth_bps: 10e9,
            data_per_inv: 1 << 20,
        }
    }

    #[test]
    fn eq1_threshold() {
        // t_inv + L = 10.05 ms; t_local = 2 ms → N_local ≥ 6.
        let p = planner(2, 10);
        assert_eq!(p.n_local_min(), 6);
    }

    #[test]
    fn small_batches_stay_local() {
        let p = planner(2, 10);
        let plan = p.plan_with_workers(5, 1, 8);
        assert_eq!(
            plan,
            OffloadPlan {
                local: 5,
                remote: 0,
                max_in_flight: plan.max_in_flight
            }
        );
    }

    #[test]
    fn large_batches_offload_the_excess() {
        let p = planner(2, 10);
        let plan = p.plan_with_workers(1000, 1, 8);
        assert!(plan.remote > 0);
        assert!(plan.local >= p.n_local_min());
        assert_eq!(plan.local + plan.remote, 1000);
    }

    #[test]
    fn no_executors_no_offload() {
        let p = planner(2, 10);
        let plan = p.plan_with_workers(1000, 1, 0);
        assert_eq!(plan.remote, 0);
        assert_eq!(plan.local, 1000);
    }

    #[test]
    fn zero_local_cost_keeps_everything() {
        let p = planner(0, 10);
        assert_eq!(p.n_local_min(), usize::MAX);
        assert_eq!(p.plan_with_workers(100, 1, 8).remote, 0);
    }

    #[test]
    fn bandwidth_bounds_in_flight() {
        // 10 GB/s / 1 MiB ≈ 9537 inv/s; rtt 10.05 ms → ~95 in flight.
        let p = planner(2, 10);
        let m = p.max_in_flight();
        assert!(m > 50 && m < 150, "m={m}");
    }

    #[test]
    fn speedup_grows_with_workers_until_saturation() {
        let p = planner(5, 6);
        let mut prev = 0.0;
        for workers in [1usize, 2, 4, 8, 16, 32] {
            let s = p.predicted_speedup(10_000, workers, false);
            assert!(s >= prev * 0.99, "workers={workers}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn remote_doubling_improves_speedup() {
        let p = planner(5, 6);
        for workers in [4usize, 8, 16] {
            let local_only = p.predicted_speedup(10_000, workers, false);
            let doubled = p.predicted_speedup(10_000, workers, true);
            assert!(
                doubled > local_only * 1.2,
                "workers={workers}: {doubled} vs {local_only}"
            );
        }
    }

    #[test]
    fn eq1_break_even_point_local_wins_below_it() {
        // Eq. (1) break-even: with t_inv + L = 10.05 ms and t_local = 2 ms,
        // N_local_min = ⌈10.05 / 2⌉ = 6. Any batch of at most 6 tasks cannot
        // hide a round trip behind local work — offloading would leave the
        // application waiting on the network, so the whole batch stays local
        // no matter how many executors are offered.
        let p = planner(2, 10);
        let n_min = p.n_local_min();
        assert_eq!(n_min, 6);
        for n in 1..=n_min {
            for executors in [1usize, 8, 64] {
                let plan = p.plan_with_workers(n, 1, executors);
                assert_eq!(plan.remote, 0, "n={n}, executors={executors}");
                assert_eq!(plan.local, n);
            }
        }
    }

    #[test]
    fn eq1_break_even_point_offload_wins_above_it() {
        // One task past the break-even point, offloading becomes legal and
        // the rate-proportional split uses it; Eq. (1) still caps how few
        // tasks may stay local.
        let p = planner(2, 10);
        let n_min = p.n_local_min();
        let plan = p.plan_with_workers(n_min + 1, 1, 8);
        assert!(plan.remote > 0, "past break-even the planner must offload");
        assert!(
            plan.local >= n_min,
            "Eq. (1) floor must hold at the boundary"
        );
        assert_eq!(plan.local + plan.remote, n_min + 1);
    }

    #[test]
    fn offload_wins_regime_improves_makespan() {
        // Deep in the offload-wins regime (n ≫ N_local_min, fast remote
        // side), the planned split must beat keeping everything local.
        let p = planner(2, 10);
        let (workers, executors, n) = (4usize, 8usize, 10_000usize);
        let plan = p.plan_with_workers(n, workers, executors);
        assert!(plan.remote > 0);
        let split_s = p.predicted_makespan_s(&plan, workers, executors);
        let local_only = OffloadPlan {
            local: n,
            remote: 0,
            max_in_flight: plan.max_in_flight,
        };
        let local_s = p.predicted_makespan_s(&local_only, workers, executors);
        assert!(
            split_s < local_s,
            "offload must win: split {split_s}s vs local-only {local_s}s"
        );
    }

    #[test]
    fn local_wins_regime_rejects_offload() {
        // Local-wins regime: remote execution is an order of magnitude
        // slower than local (t_inv ≫ t_local over a thin link), so the
        // break-even point exceeds the batch and the planner keeps all work
        // local — which is also the faster choice.
        let slow_remote = OffloadPlanner {
            t_local: SimTime::from_millis(1),
            t_inv: SimTime::from_millis(200),
            latency: SimTime::from_millis(50),
            bandwidth_bps: 1e6,
            data_per_inv: 1 << 20,
        };
        let n = 100;
        assert!(slow_remote.n_local_min() > n);
        let plan = slow_remote.plan_with_workers(n, 4, 8);
        assert_eq!(plan.remote, 0);
        let local_s = slow_remote.predicted_makespan_s(&plan, 4, 8);
        let forced = OffloadPlan {
            local: n / 2,
            remote: n - n / 2,
            max_in_flight: plan.max_in_flight,
        };
        let forced_s = slow_remote.predicted_makespan_s(&forced, 4, 8);
        assert!(
            local_s < forced_s,
            "staying local must win: {local_s}s vs forced offload {forced_s}s"
        );
    }

    #[test]
    fn from_network_derives_latency() {
        let params = fabric::LogGpParams::ugni();
        let p = OffloadPlanner::from_network(
            &params,
            SimTime::from_millis(1),
            SimTime::from_millis(1),
            4096,
            1024,
        );
        assert!(p.latency > SimTime::from_micros(3));
        assert_eq!(p.data_per_inv, 5120);
    }
}
