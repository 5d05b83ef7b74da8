//! Oracle property tests: the indexed scheduler must make bit-identical
//! decisions to the frozen scan implementation ([`crate::reference`]) under
//! arbitrary interleavings of arrivals, completions, and cancellations on a
//! heterogeneous (multi-capacity-class) cluster, for shared and exclusive
//! jobs alike. "Bit-identical" here means every observable the simulation
//! driver consumes: the started-job sequence and ended idle periods returned
//! by each `try_schedule`, the pending queue (the same ids in the same
//! order), the idle count, every job's state and timestamps,
//! `next_completion`, and the usage totals and idle bitmap the utilization
//! monitor reads (bit for bit, against a scan);
//! after every op each index structure is also rebuilt from a scan of the
//! nodes and compared (`SchedIndex::assert_consistent`), so index drift
//! fails before it changes a decision. A second family drives the bitmap
//! [`UtilizationMonitor`] and the frozen per-node sampling loop ([`crate::monitor::reference`]) over one cluster,
//! sampling between submits, scheduling passes, completions and
//! cancellations, and compares the full reports bit for bit. A third replays two long synthetic streams through
//! both schedulers on a 256-node homogeneous cluster and compares a hash of
//! every start decision.
//!
//! These tests are unit tests (not integration tests) on purpose: the
//! reference module is `cfg(test)`, so only unit tests see it.

use crate::monitor::reference::{cluster_usage, report_bits, scan_usage, RefMonitor};
use crate::reference::RefCluster;
use crate::scheduler::Cluster;
use crate::{JobId, JobSpec, Node, NodeResources, UtilizationMonitor};
use des::SimTime;
use fabric::NodeId;
use proptest::prelude::*;

/// Three capacity classes: multicore, GPU, and a fat-memory variant — so
/// class partitioning, the k-way class merge, and per-class shadow sets all
/// participate.
fn hetero_nodes(mc: usize, gpu: usize, fat: usize) -> Vec<Node> {
    let fat_cap = NodeResources {
        cores: 36,
        memory_mb: 256 * 1024,
        gpus: 0,
    };
    (0..mc)
        .map(|_| NodeResources::daint_mc())
        .chain((0..gpu).map(|_| NodeResources::daint_gpu()))
        .chain((0..fat).map(|_| fat_cap))
        .enumerate()
        .map(|(i, cap)| Node::new(NodeId(i as u32), cap))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a job and run a scheduling pass.
    Submit { spec: JobSpec, actual_mins: u64 },
    /// Finish the earliest-completing running job (if any), then schedule.
    FinishEarliest,
    /// Cancel the `k % submitted`-th job regardless of its state, then
    /// schedule — exercises pending removal and running release.
    Cancel { k: usize },
    /// Let simulated time pass before the next op.
    Advance { mins: u64 },
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        0u32..6,   // nodes (a zero-node job starts anywhere, even when full)
        0usize..4, // shape selector
        5u64..600, // walltime minutes
        any::<bool>(),
    )
        .prop_map(|(nodes, shape, wall, shared)| {
            // Shapes chosen to fit one, two, or all three capacity classes,
            // and (for shared) to leave room for co-location.
            let per_node = match shape {
                0 => NodeResources {
                    cores: 9,
                    memory_mb: 16 * 1024,
                    gpus: 0,
                }, // fits everywhere, shares 4-way
                1 => NodeResources::daint_mc(), // excludes the 12-core GPU class
                2 => NodeResources {
                    cores: 4,
                    memory_mb: 8 * 1024,
                    gpus: 1,
                }, // GPU class only
                _ => NodeResources {
                    cores: 18,
                    memory_mb: 192 * 1024,
                    gpus: 0,
                }, // fat-memory class only
            };
            let wall_t = SimTime::from_mins(wall);
            if shared {
                JobSpec::shared(nodes, per_node, wall_t, "oracle")
            } else {
                JobSpec::exclusive(nodes, per_node, wall_t, "oracle")
            }
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, arb_spec(), 1u64..400, 0usize..64, 1u64..90).prop_map(
        |(sel, spec, actual_mins, k, mins)| match sel {
            0..=4 => Op::Submit { spec, actual_mins },
            5 | 6 => Op::FinishEarliest,
            7 | 8 => Op::Cancel { k },
            _ => Op::Advance { mins },
        },
    )
}

/// Apply one op to both clusters and compare every observable.
fn step(
    c: &mut Cluster,
    r: &mut RefCluster,
    op: &Op,
    now: &mut SimTime,
    submitted: &mut Vec<JobId>,
) -> Result<(), TestCaseError> {
    let schedule_both = |c: &mut Cluster, r: &mut RefCluster, now: SimTime| {
        let got = c.try_schedule(now);
        let want = r.try_schedule(now);
        (got, want)
    };
    match op {
        Op::Submit { spec, actual_mins } => {
            let actual = SimTime::from_mins(*actual_mins);
            let a = c.submit(spec.clone(), actual, *now);
            let b = r.submit(spec.clone(), actual, *now);
            prop_assert_eq!(a, b, "job ids diverged");
            submitted.push(a);
            let (got, want) = schedule_both(c, r, *now);
            prop_assert_eq!(got, want, "schedule after submit @ {:?}", now);
        }
        Op::FinishEarliest => {
            let a = c.next_completion();
            let b = r.next_completion();
            prop_assert_eq!(a, b, "next_completion diverged");
            if let Some((when, id)) = a {
                *now = (*now).max(when);
                prop_assert_eq!(c.finish(id, *now).is_ok(), r.finish(id, *now).is_ok());
                let (got, want) = schedule_both(c, r, *now);
                prop_assert_eq!(got, want, "schedule after finish @ {:?}", now);
            }
        }
        Op::Cancel { k } => {
            if submitted.is_empty() {
                return Ok(());
            }
            let id = submitted[k % submitted.len()];
            prop_assert_eq!(
                c.cancel(id, *now).is_ok(),
                r.cancel(id, *now).is_ok(),
                "cancel outcome diverged for {:?}",
                id
            );
            let (got, want) = schedule_both(c, r, *now);
            prop_assert_eq!(got, want, "schedule after cancel @ {:?}", now);
        }
        Op::Advance { mins } => {
            *now += SimTime::from_mins(*mins);
        }
    }
    // Cross-cutting invariants after every op.
    c.assert_index_consistent();
    prop_assert_eq!(
        c.pending_queue(),
        r.pending_queue(),
        "pending queue diverged"
    );
    prop_assert_eq!(
        c.idle_node_count(),
        r.idle_node_count(),
        "idle nodes diverged"
    );
    prop_assert_eq!(c.next_completion(), r.next_completion());
    // The running totals and the bitmap against a scan of the oracle's
    // nodes.
    prop_assert_eq!(cluster_usage(c), scan_usage(r.nodes()), "usage diverged");
    for &id in submitted.iter() {
        let a = c.job(id).expect("tracked");
        let b = r.job(id).expect("tracked");
        prop_assert_eq!(a.state, b.state, "state diverged for {:?}", id);
        prop_assert_eq!(a.started_at, b.started_at, "start diverged for {:?}", id);
        prop_assert_eq!(a.finished_at, b.finished_at, "finish diverged for {:?}", id);
        prop_assert_eq!(&a.assigned, &b.assigned, "placement diverged for {:?}", id);
    }
    Ok(())
}

/// One step of the monitor differential test. Unlike [`Op`], scheduling is
/// its own step, so samples also land between a mutation and the next
/// scheduling pass.
#[derive(Debug, Clone)]
enum MonitorOp {
    Submit {
        spec: JobSpec,
        actual_mins: u64,
    },
    Schedule,
    FinishEarliest,
    Cancel {
        k: usize,
    },
    /// Advance one sampling interval and sample with both monitors.
    Sample,
}

fn arb_monitor_op() -> impl Strategy<Value = MonitorOp> {
    (0u8..14, arb_spec(), 1u64..400, 0usize..64).prop_map(|(sel, spec, actual_mins, k)| match sel {
        0..=3 => MonitorOp::Submit { spec, actual_mins },
        4..=6 => MonitorOp::Schedule,
        7 | 8 => MonitorOp::FinishEarliest,
        9 => MonitorOp::Cancel { k },
        _ => MonitorOp::Sample,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_monitor_matches_per_node_sampling_loop(
        ops in prop::collection::vec(arb_monitor_op(), 1..200),
    ) {
        let mut c = Cluster::new(hetero_nodes(40, 50, 45));
        let mut monitor = UtilizationMonitor::two_minute();
        let mut oracle = RefMonitor::two_minute();
        let mut now = SimTime::ZERO;
        let mut submitted = Vec::new();
        for op in &ops {
            match op {
                MonitorOp::Submit { spec, actual_mins } => {
                    submitted.push(c.submit(spec.clone(), SimTime::from_mins(*actual_mins), now));
                }
                MonitorOp::Schedule => {
                    for period in c.try_schedule(now).1 {
                        monitor.record_exact_idle_period(period);
                        oracle.record_exact_idle_period(period);
                    }
                }
                MonitorOp::FinishEarliest => {
                    if let Some((when, id)) = c.next_completion() {
                        now = now.max(when);
                        c.finish(id, now).expect("running job finishes");
                    }
                }
                MonitorOp::Cancel { k } => {
                    if !submitted.is_empty() {
                        let _ = c.cancel(submitted[k % submitted.len()], now);
                    }
                }
                MonitorOp::Sample => {
                    now += monitor.interval();
                    monitor.sample(&c, now);
                    oracle.sample(&c, now);
                }
            }
            prop_assert_eq!(cluster_usage(&c), scan_usage(c.nodes()));
        }
        prop_assert_eq!(report_bits(&monitor.finish()), report_bits(&oracle.finish()));
    }

    #[test]
    fn indexed_scheduler_matches_scan_oracle(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut c = Cluster::new(hetero_nodes(8, 5, 3));
        let mut r = RefCluster::new(hetero_nodes(8, 5, 3));
        let mut now = SimTime::ZERO;
        let mut submitted = Vec::new();
        for op in &ops {
            step(&mut c, &mut r, op, &mut now, &mut submitted)?;
        }
    }

    #[test]
    fn indexed_scheduler_matches_oracle_on_homogeneous_backlog(
        ops in prop::collection::vec(arb_op(), 1..160),
    ) {
        // Few nodes => deep queues => the backfill loop and its mid-queue
        // removals dominate.
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let mut r = RefCluster::homogeneous(4, NodeResources::daint_mc());
        let mut now = SimTime::ZERO;
        let mut submitted = Vec::new();
        for op in &ops {
            step(&mut c, &mut r, op, &mut now, &mut submitted)?;
        }
    }
}

/// One synthetic submission of [`replay_stream`]: arrival time, spec,
/// trace-side actual runtime.
struct Arrival {
    at: SimTime,
    spec: JobSpec,
    actual: SimTime,
    /// Cancel-heavy streams only: cancel the job submitted this many
    /// arrivals earlier (if it is still live) when this job arrives.
    cancel_back: Option<usize>,
}

/// A loaded-but-stable exclusive+shared mix on `nodes` homogeneous nodes:
/// small jobs dominate, and 2 % are wide (`nodes/16`–`nodes/8` nodes)
/// head-blockers that force the backfill path. Interarrival times are
/// derived from the mean node-seconds the mix demands, so offered load is
/// ~75 % of capacity: the queue stays occupied and backfill fires
/// constantly, but queue depth stays bounded. With `cancel_heavy`, every
/// third arrival from the 16th on also cancels the job submitted 13
/// arrivals earlier, waiting or running.
fn replay_stream(nodes: usize, jobs: usize, seed: u64, cancel_heavy: bool) -> Vec<Arrival> {
    let mut rng = des::RngStream::from_seed(seed);
    let wide_lo = (nodes as u64 / 16).max(2);
    let wide_hi = (nodes as u64 / 8).max(4);
    // Actual runtime is walltime × U(0.3, 1.0), i.e. 0.65 × mean walltime.
    let wide_node_secs = (wide_lo + wide_hi) as f64 / 2.0 * (0.65 * 5_500.0);
    let small_node_secs = (19.0 / 7.0) * (0.65 * 1_260.0);
    let node_secs_per_job = 0.02 * wide_node_secs + 0.98 * small_node_secs;
    let mean_interarrival_s = node_secs_per_job / (nodes as f64 * 0.75);
    let mut now = 0.0f64;
    (0..jobs)
        .map(|i| {
            now += rng.exponential(mean_interarrival_s);
            let wide = rng.chance(0.02);
            let n = if wide {
                rng.u64_range(wide_lo..wide_hi + 1) as u32
            } else {
                [1u64, 1, 1, 2, 2, 4, 8][rng.u64_range(0..7) as usize] as u32
            };
            let walltime_s = if wide {
                rng.u64_range(3_000..8_000)
            } else {
                rng.u64_range(120..2_400)
            };
            let actual_s = (walltime_s as f64 * (0.3 + 0.7 * rng.f64())) as u64;
            let walltime = SimTime::from_secs(walltime_s);
            let spec = if !wide && rng.chance(0.15) {
                let per_node = NodeResources {
                    cores: 9,
                    memory_mb: 16 * 1024,
                    gpus: 0,
                };
                JobSpec::shared(n, per_node, walltime, "replay")
            } else {
                JobSpec::exclusive(n, NodeResources::daint_mc(), walltime, "replay")
            };
            Arrival {
                at: SimTime::from_secs(now as u64),
                spec,
                actual: SimTime::from_secs(actual_s.max(1)),
                cancel_back: (cancel_heavy && i % 3 == 0 && i >= 16).then_some(13),
            }
        })
        .collect()
}

/// The scheduler surface [`replay`] needs, so one replay loop runs both the
/// indexed cluster and the scan oracle.
trait Sched {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId;
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>);
    fn finish(&mut self, id: JobId, now: SimTime);
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool;
    fn actual_runtime(&self, id: JobId) -> SimTime;
}

impl Sched for Cluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        Cluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        Cluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        Cluster::finish(self, id, now).expect("the replay only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        Cluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

impl Sched for RefCluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        RefCluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        RefCluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        RefCluster::finish(self, id, now).expect("the replay only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        RefCluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

/// Replay `stream` through arrivals, completions and cancellations, and
/// return an order-sensitive FNV hash of every `(start index, job, time)`
/// start decision. The replay keeps its own completion heap rather than
/// asking the scheduler for its next completion.
fn replay<S: Sched>(cluster: &mut S, stream: &[Arrival]) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut completions: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut started_events = 0u64;
    let fold = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut on_started =
        |started: Vec<JobId>,
         now: SimTime,
         cluster: &S,
         completions: &mut BinaryHeap<Reverse<(SimTime, JobId)>>| {
            for id in started {
                started_events += 1;
                fold(&mut hash, started_events);
                fold(&mut hash, id.0);
                fold(&mut hash, now.as_nanos());
                completions.push(Reverse((now + cluster.actual_runtime(id), id)));
            }
        };
    let mut submitted: Vec<JobId> = Vec::with_capacity(stream.len());
    let mut live: Vec<bool> = Vec::with_capacity(stream.len());
    for arrival in stream {
        // Drain completions that precede this arrival.
        while let Some(&Reverse((t, id))) = completions.peek() {
            if t > arrival.at {
                break;
            }
            completions.pop();
            if !live[id.0 as usize - 1] {
                continue; // cancelled while running; nodes already released
            }
            cluster.finish(id, t);
            live[id.0 as usize - 1] = false;
            let (started, _) = cluster.try_schedule(t);
            on_started(started, t, cluster, &mut completions);
        }
        if let Some(back) = arrival.cancel_back {
            let victim = submitted[submitted.len() - back];
            if live[victim.0 as usize - 1] && cluster.cancel(victim, arrival.at) {
                live[victim.0 as usize - 1] = false;
                let (started, _) = cluster.try_schedule(arrival.at);
                on_started(started, arrival.at, cluster, &mut completions);
            }
        }
        let id = cluster.submit(arrival.spec.clone(), arrival.actual, arrival.at);
        assert_eq!(id.0 as usize, submitted.len() + 1, "ids are dense from 1");
        submitted.push(id);
        live.push(true);
        let (started, _) = cluster.try_schedule(arrival.at);
        on_started(started, arrival.at, cluster, &mut completions);
    }
    while let Some(Reverse((t, id))) = completions.pop() {
        if !live[id.0 as usize - 1] {
            continue;
        }
        cluster.finish(id, t);
        live[id.0 as usize - 1] = false;
        let (started, _) = cluster.try_schedule(t);
        on_started(started, t, cluster, &mut completions);
    }
    fold(&mut hash, started_events);
    hash
}

/// The proptests above run small heterogeneous clusters. This regime is
/// theirs to miss: a 256-node homogeneous cluster under steady load, where
/// wide `n/16`–`n/8` head-blockers keep EASY backfill busy for thousands of
/// decisions, once steady and once with a cancel every third arrival.
#[test]
fn indexed_scheduler_matches_oracle_on_long_replay_streams() {
    for (name, stream) in [
        ("steady", replay_stream(256, 2_000, 3, false)),
        ("cancel_backfill", replay_stream(256, 2_000, 5, true)),
    ] {
        let indexed = replay(
            &mut Cluster::homogeneous(256, NodeResources::daint_mc()),
            &stream,
        );
        let scan = replay(
            &mut RefCluster::homogeneous(256, NodeResources::daint_mc()),
            &stream,
        );
        assert_eq!(
            indexed, scan,
            "the indexed scheduler diverged from the scan oracle on the {name} stream"
        );
    }
}
