//! Memory-service scenario (Sec. III-C / Fig. 11): a batch job that ran out
//! of local memory pages to a 1 GB block pinned by a memory-service function
//! on another node, over one-sided RDMA.
//!
//! ```bash
//! cargo run --example remote_memory
//! ```

use hpc_serverless_disagg::fabric::{Fabric, JobToken, NodeId, Transport};
use hpc_serverless_disagg::rfaas::memservice::{MemoryServiceFunction, RemoteMemoryClient};

fn main() {
    let mut fabric = Fabric::new(Transport::Ugni);

    // The function pins 1 GB of otherwise idle memory on node 2.
    let service_job = JobToken(100);
    let service = MemoryServiceFunction::deploy(&mut fabric, NodeId(2), 1 << 30, service_job);
    println!(
        "memory service deployed on {}: {} MB pinned, {} cores",
        service.node,
        service.requirements().memory_mb,
        service.requirements().cores
    );

    // The batch job connects (DRC credential exchange included).
    let batch_job = JobToken(7);
    let (mut remote, setup) = RemoteMemoryClient::connect(&mut fabric, &service, batch_job)
        .expect("service granted access");
    println!("connected in {setup}");

    // Page out a 10 MB working-set slab, then page it back in.
    let page = vec![0x5Au8; 10 << 20];
    let w = remote.write(&mut fabric, 0, &page).expect("page out");
    let (data, r) = remote.read(&mut fabric, 0, 10 << 20).expect("page in");
    assert_eq!(&data[..64], &page[..64], "payload integrity");
    println!("10 MB page-out: {w}; page-in: {r}");

    // Sustained paging traffic — the paper's Fig. 11 pattern: 10 MB chunks.
    for i in 0..16 {
        let offset = (i % 8) * (10 << 20);
        if i % 2 == 0 {
            remote.write(&mut fabric, offset, &page).unwrap();
        } else {
            remote.read(&mut fabric, offset, 10 << 20).unwrap();
        }
    }
    println!(
        "sustained: {} reads, {} writes, {:.2} GB/s achieved",
        remote.stats.reads,
        remote.stats.writes,
        remote.achieved_bps() / 1e9
    );
    assert!(
        remote.achieved_bps() / 1e9 > 1.0,
        "paper headline: ≥ 1 GB/s remote-memory traffic"
    );

    // Reclaim: the batch system wants the memory back.
    let freed = service.teardown(&mut fabric);
    println!("service torn down, {} MB unpinned", freed >> 20);
}
