//! Container swap-out/restore and migration (Sec. III-C):
//!
//! > "When the batch system needs to reclaim idle memory, function containers
//! > can be migrated to other nodes and swapped to the parallel filesystem."
//!
//! Costs are bandwidth-bound: checkpointing a container writes its memory
//! image to the PFS; migration streams it over the interconnect.

use crate::pool::WarmContainer;
use des::SimTime;
use fabric::NodeId;

/// Where a displaced warm container should go.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationPlan {
    /// Move to another node with pool headroom.
    Migrate { to: NodeId, cost: SimTime },
    /// Checkpoint to the parallel filesystem.
    SwapToPfs { cost: SimTime },
}

/// Time to checkpoint `memory_mb` to the PFS at `pfs_write_mbps` (MB/s),
/// plus CRIU-style freeze overhead.
pub fn swap_out_cost(memory_mb: u64, pfs_write_mbps: f64) -> SimTime {
    SimTime::from_millis(120) + SimTime::from_secs_f64(memory_mb as f64 / pfs_write_mbps)
}

/// Time to restore a swapped container from the PFS.
pub fn swap_in_cost(memory_mb: u64, pfs_read_mbps: f64) -> SimTime {
    SimTime::from_millis(80) + SimTime::from_secs_f64(memory_mb as f64 / pfs_read_mbps)
}

/// Time to stream a container image node-to-node at `link_mbps` (MB/s).
pub fn migration_cost(memory_mb: u64, link_mbps: f64) -> SimTime {
    SimTime::from_millis(50) + SimTime::from_secs_f64(memory_mb as f64 / link_mbps)
}

/// Choose the cheaper displacement for an evicted container, given candidate
/// nodes with available pool headroom (MB).
pub fn plan_displacement(
    container: &WarmContainer,
    candidates: &[(NodeId, u64)],
    link_mbps: f64,
    pfs_write_mbps: f64,
) -> MigrationPlan {
    let migrate = candidates
        .iter()
        .filter(|(node, headroom)| *node != container.node && *headroom >= container.memory_mb)
        .map(|(node, _)| *node)
        .next()
        .map(|to| MigrationPlan::Migrate {
            to,
            cost: migration_cost(container.memory_mb, link_mbps),
        });
    let swap = MigrationPlan::SwapToPfs {
        cost: swap_out_cost(container.memory_mb, pfs_write_mbps),
    };
    match migrate {
        Some(m) => {
            let mc = match &m {
                MigrationPlan::Migrate { cost, .. } => *cost,
                _ => unreachable!(),
            };
            let sc = match &swap {
                MigrationPlan::SwapToPfs { cost } => *cost,
                _ => unreachable!(),
            };
            if mc <= sc {
                m
            } else {
                swap
            }
        }
        None => swap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageId;

    fn container(mb: u64) -> WarmContainer {
        WarmContainer {
            image: ImageId(1),
            node: NodeId(0),
            memory_mb: mb,
            parked_at: SimTime::ZERO,
        }
    }

    #[test]
    fn costs_scale_with_size() {
        let small = swap_out_cost(100, 1000.0);
        let big = swap_out_cost(10_000, 1000.0);
        assert!(big > small * 5);
        assert!(swap_in_cost(1000, 2000.0) < swap_out_cost(1000, 1000.0));
    }

    #[test]
    fn migration_preferred_when_faster_and_room_exists() {
        let c = container(2048);
        // Fast interconnect (10 GB/s) vs slow PFS writes (500 MB/s).
        let plan = plan_displacement(&c, &[(NodeId(1), 4096)], 10_000.0, 500.0);
        match plan {
            MigrationPlan::Migrate { to, cost } => {
                assert_eq!(to, NodeId(1));
                assert!(cost < SimTime::from_secs(1));
            }
            _ => panic!("expected migration"),
        }
    }

    #[test]
    fn swap_when_no_headroom() {
        let c = container(2048);
        let plan = plan_displacement(&c, &[(NodeId(1), 1024)], 10_000.0, 500.0);
        assert!(matches!(plan, MigrationPlan::SwapToPfs { .. }));
    }

    #[test]
    fn swap_when_pfs_faster() {
        let c = container(2048);
        // Degenerate: slow link (10 MB/s), fast PFS (5 GB/s).
        let plan = plan_displacement(&c, &[(NodeId(1), 4096)], 10.0, 5000.0);
        assert!(matches!(plan, MigrationPlan::SwapToPfs { .. }));
    }

    #[test]
    fn own_node_is_not_a_migration_target() {
        let c = container(1024);
        let plan = plan_displacement(&c, &[(NodeId(0), 10_000)], 10_000.0, 500.0);
        assert!(matches!(plan, MigrationPlan::SwapToPfs { .. }));
    }
}
