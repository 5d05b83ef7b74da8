//! Leases: rFaaS's mechanism for ephemeral resource allocation.
//!
//! A lease grants a client a set of executor resources on a node for a
//! bounded time. Leases expire silently, or are cancelled by the resource
//! manager when the batch system reclaims the node — in which case the
//! client library redirects subsequent invocations to a replacement lease
//! (Sec. III-A). An expired lease keeps its `Active` state: it stops
//! counting against its node because it is no longer usable at `now`.

use crate::functions::FunctionRequirements;
use des::SimTime;
use fabric::NodeId;
use std::collections::BTreeMap;

/// Unique lease identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(pub u64);

/// Lease lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    Active,
    /// Cancelled by the manager; client must redirect.
    Cancelled,
    /// Cancelled but still finishing in-flight invocations (graceful drain).
    Draining,
}

/// An executor lease.
#[derive(Debug, Clone)]
pub struct Lease {
    pub id: LeaseId,
    pub node: NodeId,
    pub resources: FunctionRequirements,
    pub expires_at: SimTime,
    pub state: LeaseState,
}

impl Lease {
    pub fn is_usable(&self, now: SimTime) -> bool {
        self.state == LeaseState::Active && now < self.expires_at
    }
}

/// Tracks all leases in the system, in grant order.
#[derive(Debug, Default)]
pub struct LeaseManager {
    next: u64,
    leases: BTreeMap<LeaseId, Lease>,
}

impl LeaseManager {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn grant(
        &mut self,
        node: NodeId,
        resources: FunctionRequirements,
        now: SimTime,
        duration: SimTime,
    ) -> LeaseId {
        self.next += 1;
        let id = LeaseId(self.next);
        self.leases.insert(
            id,
            Lease {
                id,
                node,
                resources,
                expires_at: now + duration,
                state: LeaseState::Active,
            },
        );
        id
    }

    pub fn get(&self, id: LeaseId) -> Option<&Lease> {
        self.leases.get(&id)
    }

    /// Cancel an active lease; `None` if it is unknown or no longer active.
    /// `graceful` lets in-flight invocations finish (Sec. IV-E: "active
    /// invocations are allowed to finish").
    pub fn cancel(&mut self, id: LeaseId, graceful: bool) -> Option<LeaseState> {
        let lease = self
            .leases
            .get_mut(&id)
            .filter(|l| l.state == LeaseState::Active)?;
        lease.state = if graceful {
            LeaseState::Draining
        } else {
            LeaseState::Cancelled
        };
        Some(lease.state)
    }

    /// Leases usable at `now` on `node`, in grant order: the draw on the
    /// node's donation.
    pub(crate) fn usable_on(&self, node: NodeId, now: SimTime) -> impl Iterator<Item = &Lease> {
        self.leases
            .values()
            .filter(move |l| l.node == node && l.is_usable(now))
    }

    /// All active leases on a node (the set to cancel on reclaim).
    pub fn active_on(&self, node: NodeId) -> Vec<LeaseId> {
        self.leases
            .values()
            .filter(|l| l.node == node && l.state == LeaseState::Active)
            .map(|l| l.id)
            .collect()
    }

    pub fn active_count(&self) -> usize {
        self.leases
            .values()
            .filter(|l| l.state == LeaseState::Active)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs() -> FunctionRequirements {
        FunctionRequirements::cpu(2.0, 1024)
    }

    #[test]
    fn grant_then_expire() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_secs(30));
        assert!(lm.get(id).unwrap().is_usable(SimTime::from_secs(10)));
        assert_eq!(lm.usable_on(NodeId(0), SimTime::from_secs(10)).count(), 1);
        // Expiry needs no sweep: past `expires_at` the lease is unusable and
        // draws nothing, though it stays active until someone cancels it.
        assert!(!lm.get(id).unwrap().is_usable(SimTime::from_secs(30)));
        assert_eq!(lm.usable_on(NodeId(0), SimTime::from_secs(30)).count(), 0);
        assert_eq!(lm.active_on(NodeId(0)), vec![id]);
    }

    #[test]
    fn graceful_cancel_drains_then_closes() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        assert_eq!(lm.cancel(id, true), Some(LeaseState::Draining));
        assert!(!lm.get(id).unwrap().is_usable(SimTime::from_secs(1)));
        assert_eq!(lm.usable_on(NodeId(1), SimTime::from_secs(1)).count(), 0);
        assert_eq!(lm.cancel(id, false), None, "a draining lease is closed");
        assert_eq!(lm.get(id).unwrap().state, LeaseState::Draining);
    }

    #[test]
    fn immediate_cancel() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        assert_eq!(lm.cancel(id, false), Some(LeaseState::Cancelled));
        assert_eq!(lm.cancel(id, false), None);
    }

    #[test]
    fn active_on_node_filters() {
        let mut lm = LeaseManager::new();
        let a = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        let b = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        let c = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        let _d = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        lm.cancel(b, false).unwrap();
        assert_eq!(lm.active_on(NodeId(0)), vec![a, c], "grant order");
        assert_eq!(lm.active_count(), 3);
    }

    #[test]
    fn unknown_lease_errors() {
        let mut lm = LeaseManager::new();
        assert_eq!(lm.cancel(LeaseId(9), false), None);
        assert!(lm.get(LeaseId(9)).is_none());
    }
}
