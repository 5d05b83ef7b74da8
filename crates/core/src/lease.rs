//! Leases: rFaaS's mechanism for ephemeral resource allocation.
//!
//! A lease grants a client a set of executor resources on a node for a
//! bounded time. Leases can be renewed while active, expire silently, or be
//! cancelled by the resource manager when the batch system reclaims the node
//! — in which case the client library redirects subsequent invocations to a
//! replacement lease (Sec. III-A).

use crate::functions::FunctionRequirements;
use des::SimTime;
use fabric::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Unique lease identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId(pub u64);

/// Lease lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    Active,
    /// Cancelled by the manager; client must redirect.
    Cancelled,
    /// Ran past its expiry without renewal.
    Expired,
    /// Cancelled but still finishing in-flight invocations (graceful drain).
    Draining,
}

/// An executor lease.
#[derive(Debug, Clone)]
pub struct Lease {
    pub id: LeaseId,
    pub node: NodeId,
    pub resources: FunctionRequirements,
    pub granted_at: SimTime,
    pub expires_at: SimTime,
    pub state: LeaseState,
}

impl Lease {
    pub fn is_usable(&self, now: SimTime) -> bool {
        self.state == LeaseState::Active && now < self.expires_at
    }
}

/// Lease bookkeeping errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    Unknown,
    NotActive,
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Unknown => write!(f, "unknown lease"),
            LeaseError::NotActive => write!(f, "lease is not active"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// Tracks all leases in the system.
#[derive(Debug, Default)]
pub struct LeaseManager {
    next: u64,
    leases: HashMap<LeaseId, Lease>,
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
                granted_at: now,
                expires_at: now + duration,
                state: LeaseState::Active,
            },
        );
        id
    }

    pub fn get(&self, id: LeaseId) -> Option<&Lease> {
        self.leases.get(&id)
    }

    /// Extend an active lease.
    pub fn renew(
        &mut self,
        id: LeaseId,
        now: SimTime,
        duration: SimTime,
    ) -> Result<(), LeaseError> {
        let lease = self.leases.get_mut(&id).ok_or(LeaseError::Unknown)?;
        if !lease.is_usable(now) {
            return Err(LeaseError::NotActive);
        }
        lease.expires_at = now + duration;
        Ok(())
    }

    /// Cancel a lease. `graceful` lets in-flight invocations finish
    /// (Sec. IV-E: "active invocations are allowed to finish").
    pub fn cancel(&mut self, id: LeaseId, graceful: bool) -> Result<LeaseState, LeaseError> {
        let lease = self.leases.get_mut(&id).ok_or(LeaseError::Unknown)?;
        if lease.state != LeaseState::Active && lease.state != LeaseState::Draining {
            return Err(LeaseError::NotActive);
        }
        lease.state = if graceful {
            LeaseState::Draining
        } else {
            LeaseState::Cancelled
        };
        Ok(lease.state)
    }

    /// A draining lease finished its last invocation.
    pub fn finish_drain(&mut self, id: LeaseId) -> Result<(), LeaseError> {
        let lease = self.leases.get_mut(&id).ok_or(LeaseError::Unknown)?;
        if lease.state != LeaseState::Draining {
            return Err(LeaseError::NotActive);
        }
        lease.state = LeaseState::Cancelled;
        Ok(())
    }

    /// Mark expired leases; returns the ids that flipped.
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<LeaseId> {
        let mut flipped = Vec::new();
        for (id, lease) in self.leases.iter_mut() {
            if lease.state == LeaseState::Active && now >= lease.expires_at {
                lease.state = LeaseState::Expired;
                flipped.push(*id);
            }
        }
        flipped.sort();
        flipped
    }

    /// All active leases on a node (the set to cancel on reclaim).
    pub fn active_on(&self, node: NodeId) -> Vec<LeaseId> {
        let mut v: Vec<LeaseId> = self
            .leases
            .values()
            .filter(|l| l.node == node && l.state == LeaseState::Active)
            .map(|l| l.id)
            .collect();
        v.sort();
        v
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
    fn grant_renew_expire() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_secs(30));
        assert!(lm.get(id).unwrap().is_usable(SimTime::from_secs(10)));
        lm.renew(id, SimTime::from_secs(10), SimTime::from_secs(30))
            .unwrap();
        assert!(lm.get(id).unwrap().is_usable(SimTime::from_secs(35)));
        let flipped = lm.sweep_expired(SimTime::from_secs(50));
        assert_eq!(flipped, vec![id]);
        assert_eq!(lm.get(id).unwrap().state, LeaseState::Expired);
        assert_eq!(
            lm.renew(id, SimTime::from_secs(51), SimTime::from_secs(1)),
            Err(LeaseError::NotActive)
        );
    }

    #[test]
    fn graceful_cancel_drains_then_closes() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        assert_eq!(lm.cancel(id, true).unwrap(), LeaseState::Draining);
        assert!(!lm.get(id).unwrap().is_usable(SimTime::from_secs(1)));
        lm.finish_drain(id).unwrap();
        assert_eq!(lm.get(id).unwrap().state, LeaseState::Cancelled);
    }

    #[test]
    fn immediate_cancel() {
        let mut lm = LeaseManager::new();
        let id = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        assert_eq!(lm.cancel(id, false).unwrap(), LeaseState::Cancelled);
        assert_eq!(lm.cancel(id, false), Err(LeaseError::NotActive));
    }

    #[test]
    fn active_on_node_filters() {
        let mut lm = LeaseManager::new();
        let a = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        let b = lm.grant(NodeId(0), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        let _c = lm.grant(NodeId(1), reqs(), SimTime::ZERO, SimTime::from_mins(5));
        lm.cancel(b, false).unwrap();
        assert_eq!(lm.active_on(NodeId(0)), vec![a]);
        assert_eq!(lm.active_count(), 2);
    }

    #[test]
    fn unknown_lease_errors() {
        let mut lm = LeaseManager::new();
        assert_eq!(lm.cancel(LeaseId(9), false), Err(LeaseError::Unknown));
        assert_eq!(lm.finish_drain(LeaseId(9)), Err(LeaseError::Unknown));
    }
}
