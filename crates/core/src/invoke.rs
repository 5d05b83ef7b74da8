//! Client library: connect to an executor under a lease and invoke
//! functions, transparently redirecting to a fresh lease when the current
//! one is cancelled (a node was reclaimed, Sec. III-A) or expires.

use crate::executor::{Executor, ExecutorMode, InvocationTiming};
use crate::functions::FunctionDef;
use crate::lease::LeaseId;
use crate::manager::{ManagerError, ResourceManager};
use des::SimTime;
use fabric::{LogGpParams, NodeId};
use std::fmt;

/// Invocation failures surfaced to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum InvokeError {
    /// No resources anywhere in the system.
    NoResources(String),
    /// The invocation was aborted by an immediate reclaim.
    Aborted,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::NoResources(r) => write!(f, "no resources available: {r}"),
            InvokeError::Aborted => write!(f, "invocation aborted by resource reclaim"),
        }
    }
}

impl std::error::Error for InvokeError {}

/// Statistics the client keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    pub invocations: u64,
    pub redirects: u64,
    pub cold_starts: u64,
}

/// A client session for one function.
pub struct Client {
    pub function: FunctionDef,
    pub mode: ExecutorMode,
    params: LogGpParams,
    current: Option<(LeaseId, NodeId, Executor)>,
    pub stats: ClientStats,
}

impl Client {
    pub fn new(function: FunctionDef, mode: ExecutorMode, params: LogGpParams) -> Self {
        Client {
            function,
            mode,
            params,
            current: None,
            stats: ClientStats::default(),
        }
    }

    /// Current lease, if connected.
    pub fn lease(&self) -> Option<LeaseId> {
        self.current.as_ref().map(|(l, _, _)| *l)
    }

    /// Current executor node, if connected.
    pub fn node(&self) -> Option<NodeId> {
        self.current.as_ref().map(|(_, n, _)| *n)
    }

    fn connect(&mut self, mgr: &mut ResourceManager, now: SimTime) -> Result<SimTime, InvokeError> {
        let (lease, node, adopted) =
            mgr.request_lease(&self.function, now)
                .map_err(|e| match e {
                    ManagerError::NoCapacity => {
                        InvokeError::NoResources("no donated capacity".into())
                    }
                    other => InvokeError::NoResources(other.to_string()),
                })?;
        let mut executor = Executor::new(self.function.clone(), self.mode);
        let mut setup = SimTime::from_micros(150); // QP connect + credential
        if adopted {
            executor.adopt_warm_container();
        } else {
            self.stats.cold_starts += 1;
            // Cold start cost is charged on first invocation by the
            // executor; nothing extra here.
            setup += SimTime::ZERO;
        }
        self.current = Some((lease, node, executor));
        Ok(setup)
    }

    /// Invoke once. Handles (re)connection and lease redirection; returns
    /// the timing breakdown plus any connection setup that was needed.
    pub fn invoke(
        &mut self,
        mgr: &mut ResourceManager,
        payload_bytes: usize,
        result_bytes: usize,
        now: SimTime,
    ) -> Result<(InvocationTiming, SimTime), InvokeError> {
        let mut setup = SimTime::ZERO;
        // Validate the current lease; redirect if unusable.
        let need_reconnect = match &self.current {
            None => true,
            Some((lease, _, _)) => {
                let usable = mgr
                    .leases
                    .get(*lease)
                    .map(|l| l.is_usable(now))
                    .unwrap_or(false);
                if !usable && self.stats.invocations > 0 {
                    self.stats.redirects += 1;
                }
                !usable
            }
        };
        if need_reconnect {
            self.current = None;
            setup = self.connect(mgr, now)?;
        }
        let (_, node, executor) = self.current.as_mut().expect("connected");
        let slowdown = mgr.slowdown_on(*node, &self.function.demand);
        let timing = executor.invoke(&self.params, payload_bytes, result_bytes, slowdown);
        self.stats.invocations += 1;
        Ok((timing, setup))
    }

    /// Disconnect, returning resources (and the sandbox to the warm pool).
    pub fn disconnect(&mut self, mgr: &mut ResourceManager, now: SimTime) {
        if let Some((lease, node, executor)) = self.current.take() {
            let park = executor.sandbox_ready.then_some(containers::WarmContainer {
                image: self.function.image.id,
                node,
                memory_mb: self.function.requirements.memory_mb,
                parked_at: now,
            });
            let _ = mgr.release_lease(lease, park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{FunctionRegistry, FunctionRequirements};
    use crate::manager::DonationSource;
    use containers::{ContainerImage, ContainerRuntime};
    use interference::NodeCapacity;

    fn manager_with_idle_nodes(n: u32) -> ResourceManager {
        let mut mgr = ResourceManager::new();
        for i in 0..n {
            mgr.register_resources(
                NodeId(i),
                FunctionRequirements::cpu(36.0, 100 * 1024),
                DonationSource::IdleNode,
                None,
                NodeCapacity::daint_mc(),
            );
        }
        mgr
    }

    fn fast_function() -> FunctionDef {
        let mut reg = FunctionRegistry::new();
        let id = reg.register(
            "fast",
            ContainerImage::new(7, "fast", 10.0),
            ContainerRuntime::Sarus,
            FunctionRequirements::cpu(1.0, 1024),
            SimTime::from_millis(5),
            interference::Demand {
                name: "fast".into(),
                cores: 1.0,
                membw_bps: 0.5e9,
                llc_mb: 1.0,
                cache_reuse: 0.2,
                net_bps: 0.0,
                mem_frac: 0.1,
                net_frac: 0.0,
            },
        );
        reg.get(id).unwrap().clone()
    }

    #[test]
    fn first_invocation_connects_and_pays_cold_start() {
        let mut mgr = manager_with_idle_nodes(2);
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        let (t, setup) = client.invoke(&mut mgr, 1024, 64, SimTime::ZERO).unwrap();
        assert!(setup > SimTime::ZERO);
        assert!(t.sandbox > SimTime::from_millis(50), "cold sandbox");
        assert_eq!(client.stats.cold_starts, 1);
        let (t2, setup2) = client
            .invoke(&mut mgr, 1024, 64, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(setup2, SimTime::ZERO);
        assert_eq!(t2.sandbox, SimTime::ZERO, "sandbox retained");
    }

    #[test]
    fn redirection_after_node_reclaim() {
        let mut mgr = manager_with_idle_nodes(2);
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        client.invoke(&mut mgr, 64, 64, SimTime::ZERO).unwrap();
        let first_node = client.node().unwrap();
        mgr.remove_resources(first_node, false);
        let (_, setup) = client
            .invoke(&mut mgr, 64, 64, SimTime::from_secs(1))
            .unwrap();
        assert!(setup > SimTime::ZERO, "reconnect paid");
        assert_ne!(client.node().unwrap(), first_node);
        assert_eq!(client.stats.redirects, 1);
    }

    #[test]
    fn lease_expiry_triggers_redirect() {
        let mut mgr = manager_with_idle_nodes(1);
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        client.invoke(&mut mgr, 64, 64, SimTime::ZERO).unwrap();
        // Default lease is 5 minutes; invoke at 10 minutes.
        let (_, setup) = client
            .invoke(&mut mgr, 64, 64, SimTime::from_mins(10))
            .unwrap();
        assert!(setup > SimTime::ZERO);
        assert_eq!(client.stats.redirects, 1);
    }

    #[test]
    fn expired_leases_give_their_capacity_back() {
        // Every invocation finds the previous 5-minute lease expired and
        // redirects. An expired lease draws nothing, so the 4-core donation
        // never fills up with leases nobody can use.
        let mut mgr = ResourceManager::new();
        mgr.register_resources(
            NodeId(0),
            FunctionRequirements::cpu(4.0, 100 * 1024),
            DonationSource::IdleNode,
            None,
            NodeCapacity::daint_mc(),
        );
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        for i in 0..8 {
            client
                .invoke(&mut mgr, 64, 64, SimTime::from_mins(10 * i))
                .unwrap_or_else(|e| panic!("invocation {i}: {e}"));
        }
        assert_eq!(client.stats.redirects, 7);
    }

    #[test]
    fn no_resources_error() {
        let mut mgr = ResourceManager::new();
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        let err = client.invoke(&mut mgr, 64, 64, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, InvokeError::NoResources(_)));
    }

    #[test]
    fn disconnect_parks_warm_container() {
        let mut mgr = manager_with_idle_nodes(1);
        let mut client = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        client.invoke(&mut mgr, 64, 64, SimTime::ZERO).unwrap();
        client.disconnect(&mut mgr, SimTime::from_secs(1));
        // A second client for the same function adopts the parked container.
        let mut client2 = Client::new(fast_function(), ExecutorMode::Hot, LogGpParams::ugni());
        let (t, _) = client2
            .invoke(&mut mgr, 64, 64, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(t.sandbox, SimTime::ZERO, "warm container adopted");
        assert_eq!(client2.stats.cold_starts, 0, "no cold start needed");
    }
}
