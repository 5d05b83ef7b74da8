//! GPU sharing policy (Sec. III-E):
//!
//! > "We do not consider GPU sharing due to security and interference
//! > issues. Instead, GPU virtualization and partitioning can create
//! > isolated sub-devices in the GRES system."
//!
//! A whole GPU (or an isolated partition registered as its own GRES entry)
//! is assigned to exactly one function at a time; the function additionally
//! reserves one host core for management.

use std::collections::HashMap;

/// How devices may be handed to functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuSharingPolicy {
    /// One function per physical device (the paper's stance).
    ExclusiveDevice,
    /// Devices pre-partitioned into `n` isolated sub-devices (MIG-style),
    /// each exposed as its own GRES entry.
    Partitioned { per_device: u32 },
}

/// Tracks which GRES entries are assigned.
#[derive(Debug)]
pub struct GpuAssignment {
    policy: GpuSharingPolicy,
    /// (node, device, partition) -> holder
    assigned: HashMap<(u32, u32, u32), u64>,
    devices_per_node: u32,
}

impl GpuAssignment {
    pub fn new(policy: GpuSharingPolicy, devices_per_node: u32) -> Self {
        GpuAssignment {
            policy,
            assigned: HashMap::new(),
            devices_per_node,
        }
    }

    fn partitions_per_device(&self) -> u32 {
        match self.policy {
            GpuSharingPolicy::ExclusiveDevice => 1,
            GpuSharingPolicy::Partitioned { per_device } => per_device,
        }
    }

    /// Acquire one slot on `node` for `holder`; returns the GRES tuple.
    pub fn acquire(&mut self, node: u32, holder: u64) -> Option<(u32, u32, u32)> {
        for dev in 0..self.devices_per_node {
            for part in 0..self.partitions_per_device() {
                let key = (node, dev, part);
                if let std::collections::hash_map::Entry::Vacant(e) = self.assigned.entry(key) {
                    e.insert(holder);
                    return Some(key);
                }
            }
        }
        None
    }

    /// Release a slot.
    pub fn release(&mut self, key: (u32, u32, u32)) -> bool {
        self.assigned.remove(&key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_device_one_holder() {
        let mut a = GpuAssignment::new(GpuSharingPolicy::ExclusiveDevice, 1);
        let slot = a.acquire(0, 100).unwrap();
        assert!(a.acquire(0, 101).is_none(), "no GPU sharing");
        a.release(slot);
        assert!(a.acquire(0, 101).is_some());
    }

    #[test]
    fn partitioning_multiplies_slots() {
        let mut a = GpuAssignment::new(GpuSharingPolicy::Partitioned { per_device: 4 }, 2);
        for i in 0..8 {
            assert!(a.acquire(3, i).is_some());
        }
        assert!(a.acquire(3, 99).is_none());
        assert!(a.acquire(4, 99).is_some(), "other nodes unaffected");
    }

    #[test]
    fn release_unknown_is_false() {
        let mut a = GpuAssignment::new(GpuSharingPolicy::ExclusiveDevice, 1);
        assert!(!a.release((0, 0, 0)));
    }
}
