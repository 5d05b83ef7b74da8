//! Oracle property tests: the indexed scheduler must make bit-identical
//! decisions to the frozen scan implementation ([`crate::reference`]) under
//! arbitrary interleavings of arrivals, completions, and cancellations on a
//! heterogeneous (multi-capacity-class) cluster, for shared and exclusive
//! jobs alike. "Bit-identical" here means every observable the simulation
//! driver consumes: the started-job sequence and ended idle periods returned
//! by each `try_schedule`, the pending/idle/running counts, every job's
//! state and timestamps, `next_completion`, and the usage totals and idle
//! bitmap the utilization monitor reads (bit for bit, against a scan). A
//! second family drives the bitmap [`UtilizationMonitor`] and the frozen
//! per-node sampling loop ([`crate::monitor::reference`]) over one cluster,
//! with nodes going down and draining between samples, and compares the full
//! reports bit for bit.
//!
//! These tests are unit tests (not integration tests) on purpose: the
//! reference module is `cfg(any(test, feature = "oracle"))`, and unit tests
//! see it without requiring callers to enable the feature.

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
    /// schedule — exercises pending tombstones and running release.
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
    prop_assert_eq!(c.pending_count(), r.pending_count(), "pending diverged");
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
    // The terminal ledgers partition the terminal jobs (indexed side only;
    // the reference predates the cancelled ledger).
    let terminal = submitted
        .iter()
        .filter(|id| {
            matches!(
                c.job(**id).unwrap().state,
                crate::JobState::Completed | crate::JobState::Cancelled
            )
        })
        .count();
    prop_assert_eq!(
        c.completed_jobs().count() + c.cancelled_count(),
        terminal,
        "terminal ledgers lost or duplicated a job"
    );
    Ok(())
}

/// One step of the monitor differential test. Unlike [`Op`], scheduling is
/// its own step, so samples also land between a mutation and the pass that
/// rebuilds the index.
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
    /// Mark node `node % n` down through `Cluster::set_node_down`.
    Down {
        node: usize,
    },
    /// Start draining node `node % n` through `Cluster::set_node_draining`.
    Drain {
        node: usize,
    },
    /// Advance one sampling interval and sample with both monitors.
    Sample,
}

fn arb_monitor_op() -> impl Strategy<Value = MonitorOp> {
    (0u8..16, arb_spec(), 1u64..400, 0usize..64).prop_map(|(sel, spec, actual_mins, k)| match sel {
        0..=3 => MonitorOp::Submit { spec, actual_mins },
        4..=6 => MonitorOp::Schedule,
        7 | 8 => MonitorOp::FinishEarliest,
        9 => MonitorOp::Cancel { k },
        10 => MonitorOp::Down { node: k },
        11 => MonitorOp::Drain { node: k },
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
                MonitorOp::Down { node } => {
                    let id = NodeId((node % c.node_count()) as u32);
                    prop_assert!(c.set_node_down(id));
                }
                MonitorOp::Drain { node } => {
                    let id = NodeId((node % c.node_count()) as u32);
                    prop_assert!(c.set_node_draining(id));
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
        // Few nodes => deep queues => the backfill loop and tombstone
        // compaction dominate.
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let mut r = RefCluster::homogeneous(4, NodeResources::daint_mc());
        let mut now = SimTime::ZERO;
        let mut submitted = Vec::new();
        for op in &ops {
            step(&mut c, &mut r, op, &mut now, &mut submitted)?;
        }
    }
}
