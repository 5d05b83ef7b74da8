//! GPU assignment (Sec. III-E):
//!
//! > "We do not consider GPU sharing due to security and interference
//! > issues. Instead, GPU virtualization and partitioning can create
//! > isolated sub-devices in the GRES system."
//!
//! A whole GPU is assigned to exactly one function at a time; the function
//! additionally reserves one host core for management.

use std::collections::HashMap;

/// Tracks how many of each node's GPUs (GRES entries) are assigned.
#[derive(Debug)]
pub struct GpuAssignment {
    devices_per_node: u32,
    /// node -> devices assigned there
    assigned: HashMap<u32, u32>,
}

impl GpuAssignment {
    pub fn new(devices_per_node: u32) -> Self {
        GpuAssignment {
            devices_per_node,
            assigned: HashMap::new(),
        }
    }

    /// Assign one free GPU on `node`; false when every device there is
    /// taken.
    pub fn acquire(&mut self, node: u32) -> bool {
        let taken = self.assigned.entry(node).or_insert(0);
        if *taken == self.devices_per_node {
            return false;
        }
        *taken += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_device_one_holder() {
        let mut a = GpuAssignment::new(1);
        assert!(a.acquire(0));
        assert!(!a.acquire(0), "no GPU sharing");
        let mut two = GpuAssignment::new(2);
        assert!(two.acquire(3) && two.acquire(3));
        assert!(!two.acquire(3), "one function per device");
        assert!(two.acquire(4), "other nodes unaffected");
    }
}
