//! Registered memory regions for one-sided RMA.
//!
//! Remote memory access in the paper (memory-service functions, Sec. III-C)
//! requires pinned, registered buffers addressable by an `(rkey, offset)`
//! pair. Real bytes live here; access rights are expressed through
//! [`AccessFlags`] and checked at operation time together with the DRC
//! credential (see [`crate::drc`]).

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Remote key identifying a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MrKey(pub u64);

impl fmt::Display for MrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr:{:#x}", self.0)
    }
}

/// A tiny bitflags implementation (avoids pulling in the `bitflags` crate,
/// which is not on the offline allow-list).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub struct $name(pub $ty);

        impl $name {
            $(pub const $flag: $name = $name($val);)*

            pub const fn empty() -> Self { $name(0) }
            pub const fn all() -> Self { $name($($val |)* 0) }
            pub const fn contains(self, other: $name) -> bool {
                (self.0 & other.0) == other.0
            }
            pub const fn union(self, other: $name) -> Self { $name(self.0 | other.0) }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }
    };
}

bitflags_lite! {
    /// Access permissions of a memory region.
    pub struct AccessFlags: u8 {
        const LOCAL_READ = 0b0001;
        const LOCAL_WRITE = 0b0010;
        const REMOTE_READ = 0b0100;
        const REMOTE_WRITE = 0b1000;
    }
}

/// A pinned, registered buffer. Owns its bytes; the simulated NIC reads and
/// writes through [`RegionTable`].
#[derive(Debug)]
pub struct MemoryRegion {
    key: MrKey,
    data: BytesMut,
    access: AccessFlags,
    /// Node hosting the region (for routing / congestion accounting).
    pub node: crate::network::NodeId,
}

impl MemoryRegion {
    pub fn key(&self) -> MrKey {
        self.key
    }
    pub fn len(&self) -> usize {
        self.data.len()
    }
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
    pub fn access(&self) -> AccessFlags {
        self.access
    }

    /// Local read (no permission machinery beyond LOCAL_READ).
    pub fn read_local(&self, offset: usize, len: usize) -> Result<Bytes, MrError> {
        let range = self.range(AccessFlags::LOCAL_READ, offset, len)?;
        Ok(Bytes::copy_from_slice(&self.data[range]))
    }

    /// The check every access runs: the flags grant `need`, and
    /// `[offset, offset + len)` lies inside the region (an overflowing end
    /// is out of bounds, not a panic).
    fn range(&self, need: AccessFlags, offset: usize, len: usize) -> Result<Range<usize>, MrError> {
        if !self.access.contains(need) {
            return Err(MrError::AccessDenied);
        }
        let end = offset.checked_add(len).ok_or(MrError::OutOfBounds)?;
        if end > self.data.len() {
            return Err(MrError::OutOfBounds);
        }
        Ok(offset..end)
    }

    fn write(&mut self, need: AccessFlags, offset: usize, data: &[u8]) -> Result<(), MrError> {
        let range = self.range(need, offset, data.len())?;
        self.data[range].copy_from_slice(data);
        Ok(())
    }
}

/// Errors from region registration and access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrError {
    UnknownRegion,
    OutOfBounds,
    AccessDenied,
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::UnknownRegion => write!(f, "unknown memory region"),
            MrError::OutOfBounds => write!(f, "access outside registered region"),
            MrError::AccessDenied => write!(f, "region access flags deny the operation"),
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
    pinned_bytes_per_node: HashMap<crate::network::NodeId, usize>,
}

impl RegionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a zeroed region of `len` bytes on `node`.
    pub fn register(
        &mut self,
        node: crate::network::NodeId,
        len: usize,
        access: AccessFlags,
    ) -> MrKey {
        self.register_with_data(node, BytesMut::zeroed(len), access)
    }

    /// Register a region initialised with `data`.
    pub fn register_with_data(
        &mut self,
        node: crate::network::NodeId,
        data: BytesMut,
        access: AccessFlags,
    ) -> MrKey {
        self.next_key += 1;
        let key = MrKey(self.next_key);
        *self.pinned_bytes_per_node.entry(node).or_insert(0) += data.len();
        self.regions.insert(
            key,
            MemoryRegion {
                key,
                data,
                access,
                node,
            },
        );
        key
    }

    /// Deregister, returning the buffer so callers can reuse it.
    pub fn deregister(&mut self, key: MrKey) -> Result<BytesMut, MrError> {
        let region = self.regions.remove(&key).ok_or(MrError::UnknownRegion)?;
        if let Some(b) = self.pinned_bytes_per_node.get_mut(&region.node) {
            *b = b.saturating_sub(region.data.len());
        }
        Ok(region.data)
    }

    pub fn get(&self, key: MrKey) -> Result<&MemoryRegion, MrError> {
        self.regions.get(&key).ok_or(MrError::UnknownRegion)
    }

    /// Total pinned bytes on a node (counts against its free memory).
    pub fn pinned_bytes(&self, node: crate::network::NodeId) -> usize {
        self.pinned_bytes_per_node.get(&node).copied().unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.regions.len()
    }
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Remote read: permission-checked copy out of the region.
    pub fn remote_read(&self, key: MrKey, offset: usize, len: usize) -> Result<Bytes, MrError> {
        let region = self.get(key)?;
        let range = region.range(AccessFlags::REMOTE_READ, offset, len)?;
        Ok(Bytes::copy_from_slice(&region.data[range]))
    }

    /// Remote write: permission-checked copy into the region.
    pub fn remote_write(&mut self, key: MrKey, offset: usize, data: &[u8]) -> Result<(), MrError> {
        self.get_mut(key)?
            .write(AccessFlags::REMOTE_WRITE, offset, data)
    }

    /// Local write by the owner.
    pub fn local_write(&mut self, key: MrKey, offset: usize, data: &[u8]) -> Result<(), MrError> {
        self.get_mut(key)?
            .write(AccessFlags::LOCAL_WRITE, offset, data)
    }

    /// The `len` bytes at `(key, offset)` as a NIC on `node` reaches them:
    /// a region registered on another node is unknown there, then the
    /// flags must grant `need` and the range must lie inside the region.
    /// Every one-sided verb runs this one check.
    pub(crate) fn reach(
        &mut self,
        node: crate::network::NodeId,
        key: MrKey,
        need: AccessFlags,
        offset: usize,
        len: usize,
    ) -> Result<&mut [u8], MrError> {
        let region = self.get_mut(key)?;
        if region.node != node {
            return Err(MrError::UnknownRegion);
        }
        let range = region.range(need, offset, len)?;
        Ok(&mut region.data[range])
    }

    fn get_mut(&mut self, key: MrKey) -> Result<&mut MemoryRegion, MrError> {
        self.regions.get_mut(&key).ok_or(MrError::UnknownRegion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeId;

    fn table_with_region(access: AccessFlags) -> (RegionTable, MrKey) {
        let mut t = RegionTable::new();
        let key = t.register(NodeId(0), 64, access);
        (t, key)
    }

    #[test]
    fn register_read_write_roundtrip() {
        let (mut t, key) = table_with_region(AccessFlags::all());
        t.remote_write(key, 8, b"hello").unwrap();
        let out = t.remote_read(key, 8, 5).unwrap();
        assert_eq!(&out[..], b"hello");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (mut t, key) = table_with_region(AccessFlags::all());
        assert_eq!(t.remote_read(key, 60, 8).unwrap_err(), MrError::OutOfBounds);
        assert_eq!(
            t.remote_write(key, 64, b"x").unwrap_err(),
            MrError::OutOfBounds
        );
        // Overflowing offset+len must not panic.
        assert_eq!(
            t.remote_read(key, usize::MAX, 2).unwrap_err(),
            MrError::OutOfBounds
        );
    }

    #[test]
    fn permissions_enforced() {
        let (mut t, key) = table_with_region(AccessFlags::REMOTE_READ);
        assert!(t.remote_read(key, 0, 4).is_ok());
        assert_eq!(
            t.remote_write(key, 0, b"x").unwrap_err(),
            MrError::AccessDenied
        );
        let (t2, key2) = table_with_region(AccessFlags::REMOTE_WRITE);
        assert_eq!(
            t2.remote_read(key2, 0, 4).unwrap_err(),
            MrError::AccessDenied
        );
    }

    #[test]
    fn deregister_frees_pinned_bytes() {
        let mut t = RegionTable::new();
        let k1 = t.register(NodeId(3), 1000, AccessFlags::all());
        let _k2 = t.register(NodeId(3), 500, AccessFlags::all());
        assert_eq!(t.pinned_bytes(NodeId(3)), 1500);
        let buf = t.deregister(k1).unwrap();
        assert_eq!(buf.len(), 1000);
        assert_eq!(t.pinned_bytes(NodeId(3)), 500);
        assert_eq!(t.deregister(k1).unwrap_err(), MrError::UnknownRegion);
    }

    #[test]
    fn keys_are_unique() {
        let mut t = RegionTable::new();
        let a = t.register(NodeId(0), 8, AccessFlags::all());
        let b = t.register(NodeId(0), 8, AccessFlags::all());
        assert_ne!(a, b);
    }

    #[test]
    fn flags_algebra() {
        let rw = AccessFlags::REMOTE_READ | AccessFlags::REMOTE_WRITE;
        assert!(rw.contains(AccessFlags::REMOTE_READ));
        assert!(rw.contains(AccessFlags::REMOTE_WRITE));
        assert!(!rw.contains(AccessFlags::LOCAL_WRITE));
        assert!(AccessFlags::all().contains(rw));
        assert!(!AccessFlags::empty().contains(AccessFlags::LOCAL_READ));
    }
}
