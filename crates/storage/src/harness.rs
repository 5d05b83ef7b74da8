//! The Fig. 8 measurement sweeps: read latency with one reader across sizes
//! 1 KB – 1 GB, and per-reader throughput with 16 readers across 1 MB – 1 GB.

use crate::{Lustre, ObjectStore, ReadService};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct IoRow {
    pub size_bytes: u64,
    pub lustre: f64,
    pub object_store: f64,
}

/// Fig. 8 left panel sizes.
pub fn latency_sizes() -> Vec<u64> {
    vec![1 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30]
}

/// Fig. 8 right panel sizes.
pub fn throughput_sizes() -> Vec<u64> {
    vec![1 << 20, 10 << 20, 100 << 20, 1 << 30]
}

/// Latency (seconds), one reader.
pub fn latency_sweep(lustre: &Lustre, minio: &ObjectStore) -> Vec<IoRow> {
    latency_sizes()
        .into_iter()
        .map(|size| IoRow {
            size_bytes: size,
            lustre: lustre.latency_s(size),
            object_store: minio.latency_s(size),
        })
        .collect()
}

/// Per-reader throughput (GB/s), `readers` concurrent clients.
pub fn throughput_sweep(lustre: &Lustre, minio: &ObjectStore, readers: u32) -> Vec<IoRow> {
    throughput_sizes()
        .into_iter()
        .map(|size| IoRow {
            size_bytes: size,
            lustre: lustre.per_reader_throughput_gbps(size, readers),
            object_store: minio.per_reader_throughput_gbps(size, readers),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_shape_matches_fig8() {
        let rows = latency_sweep(&Lustre::piz_daint(), &ObjectStore::minio_daint());
        assert_eq!(rows.len(), 5);
        // Small: object store wins; large: Lustre wins.
        assert!(rows[0].object_store < rows[0].lustre);
        assert!(rows.last().unwrap().object_store > rows.last().unwrap().lustre);
    }

    #[test]
    fn throughput_sweep_shape_matches_fig8() {
        let rows = throughput_sweep(&Lustre::piz_daint(), &ObjectStore::minio_daint(), 16);
        // At 1 GB Lustre sustains more per reader.
        let last = rows.last().unwrap();
        assert!(last.lustre > last.object_store);
        // Throughput grows with size for both (request cost amortised).
        for w in rows.windows(2) {
            assert!(w[1].lustre >= w[0].lustre);
            assert!(w[1].object_store >= w[0].object_store);
        }
    }
}
