//! Property tests of the fabric: region-table safety, DRC authority, and
//! cost-model sanity under arbitrary operation sequences.

use fabric::{
    CompletionMode, DrcManager, Fabric, JobToken, LogGpParams, MrKey, NodeId, QueuePair,
    RegionTable, Transport,
};
use proptest::prelude::*;

/// A fabric with a QP connected to node 1 and a `size`-byte region
/// there: the path the memory service's one-sided ops take.
fn connected(size: usize) -> (Fabric, QueuePair, MrKey) {
    let mut fabric = Fabric::new(Transport::Ugni);
    let (owner, client) = (JobToken(2), JobToken(1));
    let cred = fabric.drc.allocate(owner);
    fabric.drc.grant(cred, owner, client).unwrap();
    let (qp, _) = fabric.connect(NodeId(1), cred, client).unwrap();
    let mr = fabric.register_buffer(NodeId(1), size);
    (fabric, qp, mr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn region_reads_never_exceed_bounds(
        size in 1usize..4096,
        offset in 0usize..8192,
        len in 0usize..8192,
    ) {
        let (mut fabric, qp, mr) = connected(size);
        match fabric.rdma_read(&qp, mr, offset, len) {
            Ok((data, _)) => {
                prop_assert!(offset + len <= size);
                prop_assert_eq!(data.len(), len);
            }
            Err(_) => prop_assert!(offset.checked_add(len).is_none_or(|end| end > size)),
        }
    }

    #[test]
    fn write_read_roundtrip_any_offset(
        size in 64usize..4096,
        offset in 0usize..4096,
        payload in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let (mut fabric, qp, mr) = connected(size);
        if offset + payload.len() <= size {
            fabric.rdma_write(&qp, mr, offset, &payload).unwrap();
            let (back, _) = fabric.rdma_read(&qp, mr, offset, payload.len()).unwrap();
            prop_assert_eq!(&back[..], &payload[..]);
        } else {
            prop_assert!(fabric.rdma_write(&qp, mr, offset, &payload).is_err());
        }
    }

    #[test]
    fn pinned_accounting_balances(
        sizes in prop::collection::vec(1usize..10_000, 1..20),
    ) {
        // Deregistering every region hands back exactly the bytes pinned.
        let mut t = RegionTable::new();
        let keys: Vec<_> = sizes.iter().map(|&s| t.register(NodeId(3), s)).collect();
        let freed: Vec<usize> = keys.iter().map(|&k| t.deregister(k).unwrap().len()).collect();
        prop_assert_eq!(freed, sizes);
        for k in keys {
            prop_assert!(t.deregister(k).is_err());
        }
    }

    #[test]
    fn drc_only_granted_jobs_validate(
        owner in 0u64..50,
        grantees in prop::collection::vec(0u64..50, 0..10),
        probe in 0u64..50,
    ) {
        let mut drc = DrcManager::new();
        let owner = JobToken(owner);
        let cred = drc.allocate(owner);
        for g in &grantees {
            drc.grant(cred, owner, JobToken(*g)).unwrap();
        }
        let probe_token = JobToken(probe);
        let should_pass = probe_token == owner || grantees.contains(&probe);
        prop_assert_eq!(drc.validate(cred, probe_token).is_ok(), should_pass);
    }

    #[test]
    fn loggp_round_trip_is_sum_of_one_ways(
        out in 0usize..1 << 20,
        inn in 0usize..1 << 20,
    ) {
        let p = LogGpParams::ugni();
        for mode in [CompletionMode::BusyPoll, CompletionMode::EventWait] {
            let rt = p.round_trip(out, inn, mode);
            let sum = p.one_way(out, mode) + p.one_way(inn, mode);
            prop_assert_eq!(rt, sum);
        }
    }
}
