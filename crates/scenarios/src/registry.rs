//! The scenario registry: every figure/table experiment under one roof.

use crate::scenarios as s;
use crate::Scenario;

/// Ordered collection of registered scenarios (registration order is the
/// `--all` execution and JSON emission order).
#[derive(Default)]
pub struct Registry {
    items: Vec<Box<dyn Scenario>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a scenario. Names must be unique.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        assert!(
            self.get(scenario.name()).is_none(),
            "duplicate scenario name: {}",
            scenario.name()
        );
        self.items.push(scenario);
    }

    /// Every experiment the repository reproduces: the 11 figure/table
    /// scenarios plus the design-choice ablations.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        r.register(Box::new(s::fig01::Fig01Utilization));
        r.register(Box::new(s::fig07::Fig07Latency));
        r.register(Box::new(s::fig08::Fig08Io));
        r.register(Box::new(s::fig09::Fig09CpuSharing));
        r.register(Box::new(s::fig10::Fig10Utilization));
        r.register(Box::new(s::fig11::Fig11MemorySharing));
        r.register(Box::new(s::fig12::Fig12GpuSharing));
        r.register(Box::new(s::fig13::Fig13Offload));
        r.register(Box::new(s::tab02::Tab02Containers));
        r.register(Box::new(s::tab03::Tab03IdleNode));
        r.register(Box::new(s::ablations::Ablations));
        r
    }

    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.items
            .iter()
            .find(|s| s.name() == name)
            .map(|b| b.as_ref())
    }

    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.items.iter().map(|b| b.as_ref())
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.items.iter().map(|s| s.name()).collect()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_complete_and_unique() {
        let r = Registry::standard();
        assert_eq!(
            r.len(),
            11,
            "10 fig/tab scenarios + ablations: {:?}",
            r.names()
        );
        let names = r.names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names unique");
        for expected in [
            "fig01_utilization",
            "fig07_latency",
            "fig08_io",
            "fig09_cpu_sharing",
            "fig10_utilization",
            "fig11_memory_sharing",
            "fig12_gpu_sharing",
            "fig13_offload",
            "tab02_containers",
            "tab03_idle_node",
            "ablations",
        ] {
            assert!(r.get(expected).is_some(), "missing scenario {expected}");
        }
    }
}
