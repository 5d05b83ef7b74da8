//! Function registry: code images, resource requirements, execution models.

use containers::{ContainerImage, ContainerRuntime};
use des::SimTime;
use std::collections::HashMap;

/// Unique function identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u64);

/// What a function needs from the node — the paper's point (Sec. IV-E) is
/// that CPU, memory, and GPU are requested *independently*, unlike cloud FaaS
/// where CPU is proportional to memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionRequirements {
    pub cores: f64,
    pub memory_mb: u64,
    pub gpus: u32,
}

impl FunctionRequirements {
    pub fn cpu(cores: f64, memory_mb: u64) -> Self {
        FunctionRequirements {
            cores,
            memory_mb,
            gpus: 0,
        }
    }
}

/// A registered function.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub id: FunctionId,
    pub name: String,
    pub image: ContainerImage,
    pub runtime: ContainerRuntime,
    pub requirements: FunctionRequirements,
    /// Uncontended execution time of one invocation (from profiling — the
    /// paper mandates profiling new functions on registration, Sec. III-E).
    pub exec_time: SimTime,
    /// Interference demand vector of one running invocation.
    pub demand: interference::Demand,
}

/// The function registry held by the resource manager.
#[derive(Debug, Default)]
pub struct FunctionRegistry {
    next: u64,
    functions: HashMap<FunctionId, FunctionDef>,
    by_name: HashMap<String, FunctionId>,
}

impl FunctionRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function; profiling data (exec time + demand vector) must
    /// accompany the registration.
    pub fn register(
        &mut self,
        name: &str,
        image: ContainerImage,
        runtime: ContainerRuntime,
        requirements: FunctionRequirements,
        exec_time: SimTime,
        demand: interference::Demand,
    ) -> FunctionId {
        self.next += 1;
        let id = FunctionId(self.next);
        self.functions.insert(
            id,
            FunctionDef {
                id,
                name: name.to_string(),
                image,
                runtime,
                requirements,
                exec_time,
                demand,
            },
        );
        self.by_name.insert(name.to_string(), id);
        id
    }

    pub fn get(&self, id: FunctionId) -> Option<&FunctionDef> {
        self.functions.get(&id)
    }

    pub fn by_name(&self, name: &str) -> Option<&FunctionDef> {
        self.by_name.get(name).and_then(|id| self.functions.get(id))
    }

    /// A no-op function for latency microbenchmarks (Fig. 7).
    pub fn register_noop(&mut self) -> FunctionId {
        self.register(
            "noop",
            ContainerImage::new(9999, "noop", 5.0),
            ContainerRuntime::Sarus,
            FunctionRequirements::cpu(1.0, 128),
            SimTime::ZERO,
            interference::Demand {
                name: "noop".into(),
                cores: 1.0,
                membw_bps: 0.0,
                llc_mb: 0.0,
                cache_reuse: 0.0,
                net_bps: 0.0,
                mem_frac: 0.0,
                net_frac: 0.0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = FunctionRegistry::new();
        let id = reg.register_noop();
        assert_eq!(reg.get(id).unwrap().name, "noop");
        assert_eq!(reg.by_name("noop").unwrap().id, id);
        assert!(reg.by_name("missing").is_none());
    }

    #[test]
    fn independent_resource_requests() {
        // Unlike cloud FaaS, memory and GPU are independent of cores.
        let r = FunctionRequirements::cpu(0.05, 64 * 1024);
        assert!(r.cores < 1.0);
        assert_eq!(r.memory_mb, 64 * 1024);
        assert_eq!(r.gpus, 0);
        let g = FunctionRequirements {
            gpus: 1,
            ..FunctionRequirements::cpu(1.0, 2048)
        };
        assert_eq!((g.cores, g.memory_mb, g.gpus), (1.0, 2048, 1));
    }

    #[test]
    fn ids_unique() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register_noop();
        let b = reg.register_noop();
        assert_ne!(a, b);
    }
}
