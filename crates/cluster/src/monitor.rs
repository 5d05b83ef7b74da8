//! Utilization sampling, reproducing the methodology behind Fig. 1: the
//! paper queried SLURM every two minutes for a month and derived idle-CPU
//! rates, the free-memory split, and idle-period durations *estimated from
//! discrete sampling* (hence the "minimal" and "maximal" estimation panels of
//! Fig. 1c). We record both the sampled estimates and the simulator's ground
//! truth.

use crate::scheduler::Cluster;
use des::{Percentiles, SimTime};

/// Summary statistics over idle-period durations.
#[derive(Debug, Clone)]
pub struct IdlePeriodStats {
    pub events: usize,
    pub median_min: f64,
    pub mean_min: f64,
    /// Fraction of idle events shorter than ten minutes — the paper's
    /// headline "70–80% of idle events last less than 10 minutes".
    pub frac_below_10min: f64,
}
json::impl_to_json!(IdlePeriodStats {
    events,
    median_min,
    mean_min,
    frac_below_10min,
});

impl IdlePeriodStats {
    fn from_percentiles(p: &mut Percentiles) -> Self {
        if p.is_empty() {
            return IdlePeriodStats {
                events: 0,
                median_min: f64::NAN,
                mean_min: f64::NAN,
                frac_below_10min: f64::NAN,
            };
        }
        IdlePeriodStats {
            events: p.len(),
            median_min: p.median() / 60.0,
            mean_min: p.mean() / 60.0,
            frac_below_10min: p.cdf_at(600.0),
        }
    }
}

/// Full monitoring report (Fig. 1 panels).
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// (time, idle CPU %) — Fig. 1a.
    pub idle_cpu_pct: Vec<(f64, f64)>,
    /// (time, used %, free-on-allocated %, free-on-idle %) — Fig. 1b.
    pub memory_split_pct: Vec<(f64, f64, f64, f64)>,
    /// Idle node count at each sample.
    pub idle_nodes: Vec<usize>,
    pub median_idle_nodes: f64,
    /// Ground-truth idle periods (exact transition times).
    pub exact: IdlePeriodStats,
    /// Discrete-sampling lower bound: `(k-1) * interval` for `k` consecutive
    /// idle samples.
    pub minimal_estimation: IdlePeriodStats,
    /// Discrete-sampling upper bound: `(k+1) * interval`.
    pub maximal_estimation: IdlePeriodStats,
}
json::impl_to_json!(MonitorReport {
    idle_cpu_pct,
    memory_split_pct,
    idle_nodes,
    median_idle_nodes,
    exact,
    minimal_estimation,
    maximal_estimation,
});

/// Node indices of the set bits of word `w` of a bitmap, ascending.
fn set_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

/// Samples a [`Cluster`] at a fixed interval.
///
/// A sample costs O(nodes whose idle state changed since the previous
/// sample): the aggregate figures are the cluster's running totals, and the
/// idle-run bookkeeping compares the cluster's idle bitmap with the
/// monitor's own word by word, touching only the bits that differ.
pub struct UtilizationMonitor {
    interval: SimTime,
    idle_cpu_pct: Vec<(f64, f64)>,
    memory_split_pct: Vec<(f64, f64, f64, f64)>,
    idle_nodes: Vec<usize>,
    exact_periods: Percentiles,
    /// Bit per node, set while the node is in a run of consecutive idle
    /// samples (same layout as the cluster's idle bitmap).
    run_open: Vec<u64>,
    /// Per node, the index of the sample that opened its current run.
    run_start: Vec<u32>,
    minimal: Percentiles,
    maximal: Percentiles,
}

impl UtilizationMonitor {
    /// The paper samples every two minutes.
    pub fn two_minute() -> Self {
        Self::new(SimTime::from_mins(2))
    }

    pub fn new(interval: SimTime) -> Self {
        assert!(!interval.is_zero());
        UtilizationMonitor {
            interval,
            idle_cpu_pct: Vec::new(),
            memory_split_pct: Vec::new(),
            idle_nodes: Vec::new(),
            exact_periods: Percentiles::new(),
            run_open: Vec::new(),
            run_start: Vec::new(),
            minimal: Percentiles::new(),
            maximal: Percentiles::new(),
        }
    }

    pub fn interval(&self) -> SimTime {
        self.interval
    }

    /// Record a ground-truth idle period (from the scheduler's allocation
    /// path).
    pub fn record_exact_idle_period(&mut self, period: SimTime) {
        self.exact_periods.push(period.as_secs_f64());
    }

    /// Append one sample's aggregate figures: `cores` as
    /// [`Cluster::core_usage`] returns them, `memory` as
    /// [`Cluster::memory_usage`] does.
    fn record_usage(
        &mut self,
        now: SimTime,
        (used_cores, total_cores): (u64, u64),
        (mem_used, free_alloc, free_idle): (u64, u64, u64),
        idle_nodes: usize,
    ) {
        let t_days = now.as_secs_f64() / 86_400.0;
        let idle_pct = 100.0 * (total_cores - used_cores) as f64 / total_cores.max(1) as f64;
        self.idle_cpu_pct.push((t_days, idle_pct));
        let total_mem = (mem_used + free_alloc + free_idle).max(1) as f64;
        self.memory_split_pct.push((
            t_days,
            100.0 * mem_used as f64 / total_mem,
            100.0 * free_alloc as f64 / total_mem,
            100.0 * free_idle as f64 / total_mem,
        ));
        self.idle_nodes.push(idle_nodes);
    }

    /// Take one sample of the cluster state.
    pub fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        let sample_index =
            u32::try_from(self.idle_nodes.len()).expect("fewer than 2^32 monitor samples");
        self.record_usage(
            now,
            cluster.core_usage(),
            cluster.memory_usage(),
            cluster.idle_node_count(),
        );

        // Discrete idle-period estimation: a run opens at a node's first
        // idle sample and closes, `k` samples long, at its first non-idle
        // one. Runs close in ascending node id within a sample.
        let interval_s = self.interval.as_secs_f64();
        let idle = cluster.idle_bits();
        if self.run_open.len() < idle.len() {
            self.run_open.resize(idle.len(), 0);
            self.run_start.resize(idle.len() * 64, 0);
        }
        for (w, &idle_word) in idle.iter().enumerate() {
            let open_word = self.run_open[w];
            if open_word == idle_word {
                continue;
            }
            for node in set_bits(w, open_word & !idle_word) {
                self.close_run(sample_index - self.run_start[node], interval_s);
            }
            for node in set_bits(w, idle_word & !open_word) {
                self.run_start[node] = sample_index;
            }
            self.run_open[w] = idle_word;
        }
    }

    fn close_run(&mut self, k: u32, interval_s: f64) {
        debug_assert!(k > 0);
        self.minimal.push((k.saturating_sub(1)) as f64 * interval_s);
        self.maximal.push((k + 1) as f64 * interval_s);
    }

    /// Close all open runs (end of trace) and produce the report.
    pub fn finish(mut self) -> MonitorReport {
        let interval_s = self.interval.as_secs_f64();
        let samples = self.idle_nodes.len() as u32;
        for w in 0..self.run_open.len() {
            for node in set_bits(w, self.run_open[w]) {
                self.close_run(samples - self.run_start[node], interval_s);
            }
        }
        let median_idle_nodes = {
            let mut p = Percentiles::new();
            for &n in &self.idle_nodes {
                p.push(n as f64);
            }
            if p.is_empty() {
                f64::NAN
            } else {
                p.median()
            }
        };
        MonitorReport {
            idle_cpu_pct: self.idle_cpu_pct,
            memory_split_pct: self.memory_split_pct,
            idle_nodes: self.idle_nodes,
            median_idle_nodes,
            exact: IdlePeriodStats::from_percentiles(&mut self.exact_periods),
            minimal_estimation: IdlePeriodStats::from_percentiles(&mut self.minimal),
            maximal_estimation: IdlePeriodStats::from_percentiles(&mut self.maximal),
        }
    }
}

/// The sampling loop this module used before the cluster kept running
/// totals and an idle bitmap: every sample walks every node and keeps a run
/// length per idle node in a hash map. Frozen as the oracle the bitmap
/// monitor is compared against; it reads nothing but `Cluster::nodes`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::node::Node;
    use fabric::NodeId;
    use std::collections::HashMap;

    /// What the monitor reads from a cluster in one sample.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Usage {
        cores: (u64, u64),
        memory: (u64, u64, u64),
        idle_nodes: usize,
        idle_bits: Vec<u64>,
    }

    /// [`Usage`] as the cluster's accessors report it.
    pub(crate) fn cluster_usage(c: &Cluster) -> Usage {
        Usage {
            cores: c.core_usage(),
            memory: c.memory_usage(),
            idle_nodes: c.idle_node_count(),
            idle_bits: c.idle_bits().to_vec(),
        }
    }

    /// [`Usage`] by scanning `nodes`.
    pub(crate) fn scan_usage(nodes: &[Node]) -> Usage {
        let (mut used, mut total) = (0, 0);
        let (mut mem_used, mut free_alloc, mut free_idle) = (0, 0, 0);
        let mut idle_nodes = 0;
        let mut idle_bits = vec![0u64; nodes.len().div_ceil(64)];
        for (i, n) in nodes.iter().enumerate() {
            used += u64::from(n.used().cores);
            total += u64::from(n.capacity.cores);
            mem_used += n.used().memory_mb;
            if n.is_idle() {
                free_idle += n.capacity.memory_mb;
                idle_nodes += 1;
                idle_bits[i / 64] |= 1 << (i % 64);
            } else {
                free_alloc += n.capacity.memory_mb - n.used().memory_mb;
            }
        }
        Usage {
            cores: (used, total),
            memory: (mem_used, free_alloc, free_idle),
            idle_nodes,
            idle_bits,
        }
    }

    pub(crate) struct RefMonitor {
        inner: UtilizationMonitor,
        idle_runs: HashMap<NodeId, u32>,
    }

    impl RefMonitor {
        pub fn two_minute() -> Self {
            RefMonitor {
                inner: UtilizationMonitor::two_minute(),
                idle_runs: HashMap::new(),
            }
        }

        pub fn record_exact_idle_period(&mut self, period: SimTime) {
            self.inner.record_exact_idle_period(period);
        }

        pub fn sample(&mut self, cluster: &Cluster, now: SimTime) {
            let m = &mut self.inner;
            let scanned = scan_usage(cluster.nodes());
            m.record_usage(now, scanned.cores, scanned.memory, scanned.idle_nodes);
            let interval_s = m.interval.as_secs_f64();
            for node in cluster.nodes() {
                if node.is_idle() {
                    *self.idle_runs.entry(node.id).or_insert(0) += 1;
                } else if let Some(k) = self.idle_runs.remove(&node.id) {
                    m.close_run(k, interval_s);
                }
            }
        }

        pub fn finish(mut self) -> MonitorReport {
            let interval_s = self.inner.interval.as_secs_f64();
            let mut runs: Vec<(NodeId, u32)> = self.idle_runs.drain().collect();
            runs.sort_unstable();
            for (_, k) in runs {
                self.inner.close_run(k, interval_s);
            }
            // `inner` never sampled, so it has no open runs of its own.
            self.inner.finish()
        }
    }

    /// Every number in a report, floats by bit pattern, for exact equality
    /// (the statistics of an empty series are NaN).
    pub(crate) fn report_bits(r: &MonitorReport) -> Vec<u64> {
        let mut bits = Vec::new();
        for &(t, idle) in &r.idle_cpu_pct {
            bits.extend([t.to_bits(), idle.to_bits()]);
        }
        for &(t, used, free_alloc, free_idle) in &r.memory_split_pct {
            bits.extend([t, used, free_alloc, free_idle].map(f64::to_bits));
        }
        bits.extend(r.idle_nodes.iter().map(|&n| n as u64));
        bits.push(r.median_idle_nodes.to_bits());
        for s in [&r.exact, &r.minimal_estimation, &r.maximal_estimation] {
            bits.push(s.events as u64);
            bits.extend([s.median_min, s.mean_min, s.frac_below_10min].map(f64::to_bits));
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::node::NodeResources;

    fn spec(nodes: u32) -> JobSpec {
        JobSpec::exclusive(
            nodes,
            NodeResources::daint_mc(),
            SimTime::from_mins(30),
            "t",
        )
    }

    #[test]
    fn samples_capture_idle_fraction() {
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        m.sample(&c, SimTime::ZERO);
        c.submit(spec(2), SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        m.sample(&c, SimTime::from_mins(2));
        let report = m.finish();
        assert_eq!(report.idle_cpu_pct[0].1, 100.0);
        assert_eq!(report.idle_cpu_pct[1].1, 50.0);
        assert_eq!(report.idle_nodes, vec![4, 2]);
    }

    #[test]
    fn memory_split_sums_to_100() {
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let half = NodeResources {
            cores: 18,
            memory_mb: 64 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::shared(2, half, SimTime::from_mins(30), "t"),
            SimTime::from_mins(30),
            SimTime::ZERO,
        );
        c.try_schedule(SimTime::ZERO);
        let mut m = UtilizationMonitor::two_minute();
        m.sample(&c, SimTime::ZERO);
        let r = m.finish();
        let (_, used, fa, fi) = r.memory_split_pct[0];
        assert!((used + fa + fi - 100.0).abs() < 1e-9);
        assert!((used - 25.0).abs() < 1e-9); // 2×64 GB of 4×128 GB
        assert!((fi - 50.0).abs() < 1e-9); // 2 idle nodes
    }

    #[test]
    fn discrete_estimation_brackets_truth() {
        // Node idle for exactly 5 samples (k=5) at 2-min interval:
        // minimal (k-1)*2 = 8 min, maximal (k+1)*2 = 12 min.
        let mut c = Cluster::homogeneous(1, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        for i in 0..5 {
            m.sample(&c, SimTime::from_mins(2 * i));
        }
        let id = c.submit(spec(1), SimTime::from_mins(30), SimTime::from_mins(9));
        let (_, periods) = c.try_schedule(SimTime::from_mins(9));
        for p in periods {
            m.record_exact_idle_period(p);
        }
        m.sample(&c, SimTime::from_mins(10));
        c.finish(id, SimTime::from_mins(11)).unwrap();
        let r = m.finish();
        assert_eq!(r.minimal_estimation.events, 1);
        assert!((r.minimal_estimation.median_min - 8.0).abs() < 1e-9);
        assert!((r.maximal_estimation.median_min - 12.0).abs() < 1e-9);
        assert!((r.exact.median_min - 9.0).abs() < 1e-9);
        assert!(
            r.minimal_estimation.median_min <= r.exact.median_min
                && r.exact.median_min <= r.maximal_estimation.median_min
        );
    }

    #[test]
    fn open_runs_closed_at_finish() {
        let c = Cluster::homogeneous(3, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        for i in 0..4 {
            m.sample(&c, SimTime::from_mins(2 * i));
        }
        let r = m.finish();
        assert_eq!(r.minimal_estimation.events, 3, "one event per idle node");
    }

    #[test]
    fn empty_monitor_reports_nan() {
        let m = UtilizationMonitor::two_minute();
        let r = m.finish();
        assert!(r.median_idle_nodes.is_nan());
        assert_eq!(r.exact.events, 0);
    }
}
