//! Dynamic RDMA Credentials (DRC).
//!
//! On Cray systems, uGNI communication is confined to a single batch job's
//! protection domain. rFaaS clients and executors live in *different* batch
//! jobs, so the paper implements allocation and distribution of DRC
//! credentials (Sec. IV-A, citing Shimek et al.). This module reproduces that
//! mechanism: a job allocates a credential, explicitly grants other jobs
//! access, and every verbs operation validates the credential of its issuer
//! against the target region's owner.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// A batch-job identity (protection-domain owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobToken(pub u64);

/// An allocated communication credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Credential(pub u64);

/// Errors from credential management and validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrcError {
    UnknownCredential,
    NotOwner,
    NotGranted,
}

impl fmt::Display for DrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcError::UnknownCredential => write!(f, "unknown DRC credential"),
            DrcError::NotOwner => write!(f, "caller does not own this credential"),
            DrcError::NotGranted => write!(f, "job has not been granted access to this credential"),
        }
    }
}

impl std::error::Error for DrcError {}

#[derive(Debug)]
struct CredentialState {
    owner: JobToken,
    granted: HashSet<JobToken>,
}

/// System-wide credential manager (the `drc` kernel service on a Cray).
#[derive(Debug, Default)]
pub struct DrcManager {
    next: u64,
    credentials: HashMap<Credential, CredentialState>,
}

impl DrcManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh credential owned by `job`. The owner is implicitly
    /// granted access.
    pub fn allocate(&mut self, job: JobToken) -> Credential {
        self.next += 1;
        let cred = Credential(self.next);
        let mut granted = HashSet::new();
        granted.insert(job);
        self.credentials.insert(
            cred,
            CredentialState {
                owner: job,
                granted,
            },
        );
        cred
    }

    /// Grant `grantee` access to `cred`; only the owner may grant.
    pub fn grant(
        &mut self,
        cred: Credential,
        owner: JobToken,
        grantee: JobToken,
    ) -> Result<(), DrcError> {
        let state = self
            .credentials
            .get_mut(&cred)
            .ok_or(DrcError::UnknownCredential)?;
        if state.owner != owner {
            return Err(DrcError::NotOwner);
        }
        state.granted.insert(grantee);
        Ok(())
    }

    /// Check that `job` may communicate under `cred`.
    pub fn validate(&self, cred: Credential, job: JobToken) -> Result<(), DrcError> {
        let state = self
            .credentials
            .get(&cred)
            .ok_or(DrcError::UnknownCredential)?;
        if state.granted.contains(&job) {
            Ok(())
        } else {
            Err(DrcError::NotGranted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: JobToken = JobToken(1);
    const EXECUTOR: JobToken = JobToken(2);
    const INTRUDER: JobToken = JobToken(3);

    #[test]
    fn owner_is_implicitly_granted() {
        let mut drc = DrcManager::new();
        let cred = drc.allocate(CLIENT);
        assert!(drc.validate(cred, CLIENT).is_ok());
    }

    #[test]
    fn cross_job_requires_grant() {
        let mut drc = DrcManager::new();
        let cred = drc.allocate(CLIENT);
        assert_eq!(
            drc.validate(cred, EXECUTOR).unwrap_err(),
            DrcError::NotGranted
        );
        drc.grant(cred, CLIENT, EXECUTOR).unwrap();
        assert!(drc.validate(cred, EXECUTOR).is_ok());
        assert_eq!(
            drc.validate(cred, INTRUDER).unwrap_err(),
            DrcError::NotGranted
        );
    }

    #[test]
    fn only_owner_may_grant() {
        let mut drc = DrcManager::new();
        let cred = drc.allocate(CLIENT);
        assert_eq!(
            drc.grant(cred, EXECUTOR, INTRUDER).unwrap_err(),
            DrcError::NotOwner
        );
        assert_eq!(
            drc.validate(cred, INTRUDER).unwrap_err(),
            DrcError::NotGranted,
            "a refused grant changes nothing"
        );
    }
}
