//! Verbs-style operations: queue pairs combining the LogGP timing model,
//! the region table (real data), DRC credential checks, and congestion
//! accounting into a single API that higher layers (rFaaS executors, the
//! memory service) call.
//!
//! Operations are synchronous-with-cost: they validate, move the bytes, and
//! return the virtual duration the operation takes. Callers running inside a
//! [`des::Simulation`] schedule their continuations after that duration.
//! [`Fabric::rdma_time`] is the one-sided op without the byte move, for
//! callers that need only the duration: same checks, same timing.

use crate::drc::{Credential, DrcError, DrcManager, JobToken};
use crate::loggp::{CompletionMode, LogGpParams, Transport};
use crate::mr::{AccessFlags, MrError, MrKey, RegionTable};
use crate::network::{Network, NodeId};
use des::SimTime;
use std::fmt;

/// Errors surfaced by verbs operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbsError {
    Drc(DrcError),
    Mr(MrError),
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::Drc(e) => write!(f, "credential error: {e}"),
            VerbsError::Mr(e) => write!(f, "memory region error: {e}"),
        }
    }
}

impl std::error::Error for VerbsError {}

impl From<DrcError> for VerbsError {
    fn from(e: DrcError) -> Self {
        VerbsError::Drc(e)
    }
}
impl From<MrError> for VerbsError {
    fn from(e: MrError) -> Self {
        VerbsError::Mr(e)
    }
}

/// The kind of one-sided operation, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaOp {
    Read,
    Write,
}

/// A connected queue pair between two nodes under a DRC credential.
#[derive(Debug, Clone, Copy)]
pub struct QueuePair {
    pub local: NodeId,
    pub remote: NodeId,
    pub credential: Credential,
    pub job: JobToken,
    pub transport: Transport,
    pub completion: CompletionMode,
}

/// The fabric façade owning all shared state.
pub struct Fabric {
    pub params: LogGpParams,
    pub regions: RegionTable,
    pub drc: DrcManager,
    pub network: Network,
    transport: Transport,
}

impl Fabric {
    pub fn new(transport: Transport, nodes: usize) -> Self {
        let params = LogGpParams::for_transport(transport);
        let network = Network::new(
            params.bandwidth_bps(),
            params.bandwidth_bps() * nodes as f64 * 0.6,
        );
        Fabric {
            params,
            regions: RegionTable::new(),
            drc: DrcManager::new(),
            network,
            transport,
        }
    }

    /// Time to connect a new QP: a control round trip plus endpoint setup.
    /// This is the dominant part of an rFaaS "cold" connection cost.
    pub fn connect_cost(&self) -> SimTime {
        // QP exchange: 2 control messages + endpoint allocation (~100 us on
        // real hardware: memory registration, CQ creation).
        self.params.round_trip(256, 256, CompletionMode::EventWait) + SimTime::from_micros(95)
    }

    /// Establish a connected queue pair. Validates the credential.
    pub fn connect(
        &mut self,
        local: NodeId,
        remote: NodeId,
        credential: Credential,
        job: JobToken,
        completion: CompletionMode,
    ) -> Result<(QueuePair, SimTime), VerbsError> {
        self.drc.validate(credential, job)?;
        Ok((
            QueuePair {
                local,
                remote,
                credential,
                job,
                transport: self.transport,
                completion,
            },
            self.connect_cost(),
        ))
    }

    /// Congestion-aware cost of moving `size` bytes between the QP endpoints:
    /// LogGP fixed costs plus serialisation at the current fair-share
    /// bandwidth (never faster than the uncontended LogGP time).
    fn timed_transfer(&mut self, qp: &QueuePair, op: RdmaOp, size: usize) -> SimTime {
        let base = match op {
            RdmaOp::Read => self.params.rma(true, size, qp.completion),
            RdmaOp::Write => self.params.rma(false, size, qp.completion),
        };
        let flow = self.network.open_flow(qp.local, qp.remote);
        let contended = self.network.transfer_time(flow, size);
        self.network.close_flow(flow);
        base.max(contended)
    }

    /// The validation every one-sided op runs, in order: the QP's
    /// credential still grants the job, the region is
    /// registered on the QP's remote node, its flags allow `op`, and
    /// `[offset, offset + len)` lies inside it. Returns those bytes.
    fn one_sided(
        &mut self,
        qp: &QueuePair,
        region: MrKey,
        offset: usize,
        len: usize,
        op: RdmaOp,
    ) -> Result<&mut [u8], VerbsError> {
        self.drc.validate(qp.credential, qp.job)?;
        let need = match op {
            RdmaOp::Read => AccessFlags::REMOTE_READ,
            RdmaOp::Write => AccessFlags::REMOTE_WRITE,
        };
        Ok(self.regions.reach(qp.remote, region, need, offset, len)?)
    }

    /// One-sided RDMA WRITE of `data` into `(region, offset)`.
    pub fn rdma_write(
        &mut self,
        qp: &QueuePair,
        region: MrKey,
        offset: usize,
        data: &[u8],
    ) -> Result<SimTime, VerbsError> {
        self.one_sided(qp, region, offset, data.len(), RdmaOp::Write)?
            .copy_from_slice(data);
        Ok(self.timed_transfer(qp, RdmaOp::Write, data.len()))
    }

    /// One-sided RDMA READ of `len` bytes from `(region, offset)`.
    pub fn rdma_read(
        &mut self,
        qp: &QueuePair,
        region: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<(Vec<u8>, SimTime), VerbsError> {
        let data = self
            .one_sided(qp, region, offset, len, RdmaOp::Read)?
            .to_vec();
        let t = self.timed_transfer(qp, RdmaOp::Read, len);
        Ok((data, t))
    }

    /// The one-sided `op` of `len` bytes at `(region, offset)`, timed but
    /// not performed: it refuses exactly what
    /// [`Fabric::rdma_read`]/[`Fabric::rdma_write`] refuse and returns the
    /// duration they would, without touching the region's bytes.
    pub fn rdma_time(
        &mut self,
        qp: &QueuePair,
        region: MrKey,
        offset: usize,
        len: usize,
        op: RdmaOp,
    ) -> Result<SimTime, VerbsError> {
        self.one_sided(qp, region, offset, len, op)?;
        Ok(self.timed_transfer(qp, op, len))
    }

    /// Register an RMA-exposed buffer of `len` zeroed bytes on `node`.
    pub fn register_buffer(&mut self, node: NodeId, len: usize) -> MrKey {
        self.regions.register(node, len, AccessFlags::all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Fabric, QueuePair, MrKey) {
        setup_sized(4096)
    }

    /// A QP from node 0 to node 1 and a `region_len`-byte region on node 1.
    fn setup_sized(region_len: usize) -> (Fabric, QueuePair, MrKey) {
        let mut fabric = Fabric::new(Transport::Ugni, 4);
        let client_job = JobToken(1);
        let exec_job = JobToken(2);
        let cred = fabric.drc.allocate(exec_job);
        fabric.drc.grant(cred, exec_job, client_job).unwrap();
        let (qp, _t) = fabric
            .connect(
                NodeId(0),
                NodeId(1),
                cred,
                client_job,
                CompletionMode::BusyPoll,
            )
            .unwrap();
        let mr = fabric.register_buffer(NodeId(1), region_len);
        (fabric, qp, mr)
    }

    #[test]
    fn rdma_time_matches_the_real_ops_on_a_twin_fabric() {
        for len in [0, 1, 4 << 10, 10 << 20] {
            let (mut real, qp, mr) = setup_sized(10 << 20);
            let (mut timed, tqp, tmr) = setup_sized(10 << 20);
            let write = real.rdma_write(&qp, mr, 0, &vec![7u8; len]).unwrap();
            let (_, read) = real.rdma_read(&qp, mr, 0, len).unwrap();
            assert_eq!(
                timed.rdma_time(&tqp, tmr, 0, len, RdmaOp::Write).unwrap(),
                write,
                "write of {len} B"
            );
            assert_eq!(
                timed.rdma_time(&tqp, tmr, 0, len, RdmaOp::Read).unwrap(),
                read,
                "read of {len} B"
            );
            let region = |f: &mut Fabric, mr| {
                f.regions
                    .reach(NodeId(1), mr, AccessFlags::REMOTE_READ, 0, len)
                    .unwrap()
                    .to_vec()
            };
            assert!(region(&mut real, mr).iter().all(|&b| b == 7));
            assert!(
                region(&mut timed, tmr).iter().all(|&b| b == 0),
                "rdma_time moved bytes"
            );
        }
    }

    /// Each case breaks one thing about a fresh fabric and names the target
    /// `(region, offset, len)`. On twin fabrics, `rdma_time` must return
    /// exactly what `rdma_write`/`rdma_read` return, and those must be the
    /// listed outcome for `[write, read]`.
    #[test]
    fn rdma_time_refuses_exactly_what_the_real_ops_refuse() {
        type Break = fn(&mut Fabric, &mut QueuePair, MrKey) -> (MrKey, usize, usize);
        type Outcome = Result<(), VerbsError>;
        let mr_err = |e| Err(VerbsError::Mr(e));
        let cases: [(&str, Break, [Outcome; 2]); 7] = [
            ("valid", |_, _, mr| (mr, 8, 64), [Ok(()), Ok(())]),
            (
                "revoked credential",
                |f, qp, mr| {
                    f.drc
                        .revoke(qp.credential, JobToken(2), JobToken(1))
                        .unwrap();
                    (mr, 0, 8)
                },
                [Err(VerbsError::Drc(DrcError::NotGranted)); 2],
            ),
            (
                "out of bounds",
                |_, _, mr| (mr, 4090, 9),
                [mr_err(MrError::OutOfBounds); 2],
            ),
            (
                "offset + len overflows",
                |_, _, mr| (mr, usize::MAX, 2),
                [mr_err(MrError::OutOfBounds); 2],
            ),
            (
                "region on another node",
                |f, _, _| (f.register_buffer(NodeId(3), 4096), 0, 8),
                [mr_err(MrError::UnknownRegion); 2],
            ),
            (
                "no REMOTE_WRITE",
                |f, _, _| {
                    (
                        f.regions
                            .register(NodeId(1), 4096, AccessFlags::REMOTE_READ),
                        0,
                        8,
                    )
                },
                [mr_err(MrError::AccessDenied), Ok(())],
            ),
            (
                "no REMOTE_READ",
                |f, _, _| {
                    (
                        f.regions
                            .register(NodeId(1), 4096, AccessFlags::REMOTE_WRITE),
                        0,
                        8,
                    )
                },
                [Ok(()), mr_err(MrError::AccessDenied)],
            ),
        ];
        for (name, break_it, expected) in cases {
            for (op, expected) in [RdmaOp::Write, RdmaOp::Read].into_iter().zip(expected) {
                let (mut real, mut qp, mr) = setup();
                let (region, offset, len) = break_it(&mut real, &mut qp, mr);
                let real_result = match op {
                    RdmaOp::Write => real.rdma_write(&qp, region, offset, &vec![1u8; len]),
                    _ => real.rdma_read(&qp, region, offset, len).map(|(_, t)| t),
                };
                let (mut timed, mut tqp, tmr) = setup();
                let (region, offset, len) = break_it(&mut timed, &mut tqp, tmr);
                let timed_result = timed.rdma_time(&tqp, region, offset, len, op);
                assert_eq!(real_result.map(|_| ()), expected, "{name}: {op:?}");
                assert_eq!(timed_result, real_result, "{name}: {op:?}");
            }
        }
    }

    #[test]
    fn one_sided_ops_reach_only_regions_on_the_qp_remote_node() {
        // The QP runs from node 0 to node 1; a region on node 3 is not
        // addressable through it, whatever its key and flags.
        let (mut fabric, qp, _) = setup();
        let elsewhere = fabric.register_buffer(NodeId(3), 4096);
        let unknown = VerbsError::Mr(MrError::UnknownRegion);
        assert_eq!(
            fabric.rdma_write(&qp, elsewhere, 0, b"x").unwrap_err(),
            unknown
        );
        assert_eq!(fabric.rdma_read(&qp, elsewhere, 0, 1).unwrap_err(), unknown);
        assert_eq!(
            fabric
                .regions
                .reach(NodeId(3), elsewhere, AccessFlags::REMOTE_READ, 0, 1)
                .unwrap(),
            &[0],
            "the refused write must not land"
        );
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut fabric, qp, mr) = setup();
        let t_w = fabric.rdma_write(&qp, mr, 100, b"disaggregate").unwrap();
        let (data, t_r) = fabric.rdma_read(&qp, mr, 100, 12).unwrap();
        assert_eq!(&data[..], b"disaggregate");
        assert!(t_w > SimTime::ZERO);
        assert!(t_r > t_w, "read pays an extra latency vs write");
    }

    #[test]
    fn unauthorized_job_rejected() {
        let mut fabric = Fabric::new(Transport::Ugni, 4);
        let cred = fabric.drc.allocate(JobToken(2));
        let err = fabric
            .connect(
                NodeId(0),
                NodeId(1),
                cred,
                JobToken(99),
                CompletionMode::BusyPoll,
            )
            .unwrap_err();
        assert_eq!(err, VerbsError::Drc(DrcError::NotGranted));
    }

    #[test]
    fn revoked_credential_stops_traffic() {
        let (mut fabric, qp, mr) = setup();
        fabric
            .drc
            .revoke(qp.credential, JobToken(2), JobToken(1))
            .unwrap();
        assert!(matches!(
            fabric.rdma_read(&qp, mr, 0, 8).unwrap_err(),
            VerbsError::Drc(DrcError::NotGranted)
        ));
    }

    #[test]
    fn out_of_bounds_write_is_mr_error() {
        let (mut fabric, qp, mr) = setup();
        assert!(matches!(
            fabric.rdma_write(&qp, mr, 4090, b"overflow!").unwrap_err(),
            VerbsError::Mr(MrError::OutOfBounds)
        ));
    }

    #[test]
    fn connect_cost_dominated_by_setup() {
        let fabric = Fabric::new(Transport::Ugni, 4);
        let t = fabric.connect_cost();
        assert!(t > SimTime::from_micros(95));
        assert!(t < SimTime::from_millis(1));
    }
}
