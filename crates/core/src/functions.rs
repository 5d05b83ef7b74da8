//! Function registry: code images, resource requirements, execution models.

use containers::ContainerImage;
use des::SimTime;
use std::collections::BTreeMap;

/// Unique function identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u64);

/// What a function needs from the node — the paper's point (Sec. IV-E) is
/// that CPU and memory are requested *independently*, unlike cloud FaaS
/// where CPU is proportional to memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionRequirements {
    pub cores: f64,
    pub memory_mb: u64,
}

/// A registered function.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub id: FunctionId,
    pub image: ContainerImage,
    /// Uncontended execution time of one invocation (from profiling — the
    /// paper mandates profiling new functions on registration, Sec. III-E).
    pub exec_time: SimTime,
}

/// The function registry.
#[derive(Debug, Default)]
pub struct FunctionRegistry {
    next: u64,
    functions: BTreeMap<FunctionId, FunctionDef>,
}

impl FunctionRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function; its profiled exec time must accompany the
    /// registration.
    pub fn register(&mut self, image: ContainerImage, exec_time: SimTime) -> FunctionId {
        self.next += 1;
        let id = FunctionId(self.next);
        self.functions.insert(
            id,
            FunctionDef {
                id,
                image,
                exec_time,
            },
        );
        id
    }

    pub fn get(&self, id: FunctionId) -> Option<&FunctionDef> {
        self.functions.get(&id)
    }

    /// A no-op function for latency microbenchmarks (Fig. 7).
    pub fn register_noop(&mut self) -> FunctionId {
        self.register(ContainerImage::new(5.0), SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = FunctionRegistry::new();
        let id = reg.register_noop();
        let noop = reg.get(id).unwrap();
        assert_eq!((noop.id, noop.exec_time), (id, SimTime::ZERO));
        assert!(reg.get(FunctionId(id.0 + 1)).is_none());
    }

    #[test]
    fn ids_unique() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register_noop();
        let b = reg.register_noop();
        assert_ne!(a, b);
    }
}
