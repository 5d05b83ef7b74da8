//! Registered memory regions for one-sided RMA.
//!
//! Remote memory access in the paper (memory-service functions, Sec. III-C)
//! requires pinned, registered buffers addressable by an `(rkey, offset)`
//! pair. Real bytes live here; every access is checked against the region's
//! node and bounds at operation time, after the DRC credential (see
//! [`crate::drc`]).

use crate::NodeId;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Remote key identifying a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrKey(pub u64);

impl fmt::Display for MrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr:{:#x}", self.0)
    }
}

/// A pinned, registered buffer. Owns its bytes; the simulated NIC reads and
/// writes through [`RegionTable`].
#[derive(Debug)]
pub struct MemoryRegion {
    data: Vec<u8>,
    /// Node hosting the region: only a NIC on this node reaches it.
    pub node: NodeId,
}

impl MemoryRegion {
    /// The check every access runs: `[offset, offset + len)` lies inside
    /// the region (an overflowing end is out of bounds, not a panic).
    fn range(&self, offset: usize, len: usize) -> Result<Range<usize>, MrError> {
        let end = offset.checked_add(len).ok_or(MrError::OutOfBounds)?;
        if end > self.data.len() {
            return Err(MrError::OutOfBounds);
        }
        Ok(offset..end)
    }
}

/// Errors from region registration and access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrError {
    UnknownRegion,
    OutOfBounds,
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::UnknownRegion => write!(f, "unknown memory region"),
            MrError::OutOfBounds => write!(f, "access outside registered region"),
        }
    }
}

impl std::error::Error for MrError {}

/// Registry of all registered regions in the fabric (the simulated NIC's
/// translation table).
#[derive(Debug, Default)]
pub struct RegionTable {
    next_key: u64,
    regions: HashMap<MrKey, MemoryRegion>,
}

impl RegionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a zeroed region of `len` bytes on `node`.
    pub fn register(&mut self, node: NodeId, len: usize) -> MrKey {
        self.next_key += 1;
        let key = MrKey(self.next_key);
        self.regions.insert(
            key,
            MemoryRegion {
                data: vec![0; len],
                node,
            },
        );
        key
    }

    /// Deregister, returning the buffer so callers can reuse it.
    pub fn deregister(&mut self, key: MrKey) -> Result<Vec<u8>, MrError> {
        let region = self.regions.remove(&key).ok_or(MrError::UnknownRegion)?;
        Ok(region.data)
    }

    /// The `len` bytes at `(key, offset)` as a NIC on `node` reaches them:
    /// a region registered on another node is unknown there, and the range
    /// must lie inside the region. Every one-sided verb runs this one check.
    pub(crate) fn reach(
        &mut self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<&mut [u8], MrError> {
        let region = self.get_mut(key)?;
        if region.node != node {
            return Err(MrError::UnknownRegion);
        }
        let range = region.range(offset, len)?;
        Ok(&mut region.data[range])
    }

    fn get_mut(&mut self, key: MrKey) -> Result<&mut MemoryRegion, MrError> {
        self.regions.get_mut(&key).ok_or(MrError::UnknownRegion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_region() -> (RegionTable, MrKey) {
        let mut t = RegionTable::new();
        let key = t.register(NodeId(0), 64);
        (t, key)
    }

    #[test]
    fn register_read_write_roundtrip() {
        let (mut t, key) = table_with_region();
        t.reach(NodeId(0), key, 8, 5)
            .unwrap()
            .copy_from_slice(b"hello");
        assert_eq!(t.reach(NodeId(0), key, 8, 5).unwrap(), b"hello");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (mut t, key) = table_with_region();
        assert_eq!(
            t.reach(NodeId(0), key, 60, 8).unwrap_err(),
            MrError::OutOfBounds
        );
        assert_eq!(
            t.reach(NodeId(0), key, 64, 1).unwrap_err(),
            MrError::OutOfBounds
        );
        // Overflowing offset+len must not panic.
        assert_eq!(
            t.reach(NodeId(0), key, usize::MAX, 2).unwrap_err(),
            MrError::OutOfBounds
        );
    }

    #[test]
    fn deregister_returns_the_buffer_once() {
        let mut t = RegionTable::new();
        let k1 = t.register(NodeId(3), 1000);
        let k2 = t.register(NodeId(3), 500);
        let buf = t.deregister(k1).unwrap();
        assert_eq!(buf.len(), 1000);
        assert_eq!(t.deregister(k1).unwrap_err(), MrError::UnknownRegion);
        assert_eq!(
            t.reach(NodeId(3), k1, 0, 1).unwrap_err(),
            MrError::UnknownRegion
        );
        assert_eq!(t.reach(NodeId(3), k2, 0, 500).unwrap().len(), 500);
    }

    #[test]
    fn keys_are_unique() {
        let mut t = RegionTable::new();
        let a = t.register(NodeId(0), 8);
        let b = t.register(NodeId(0), 8);
        assert_ne!(a, b);
    }
}
