//! MinIO-like object store model.
//!
//! Objects are served by a gateway over HTTP: a small per-request latency
//! (no separate metadata service — the paper's point about small-file
//! latency) and a modest per-connection bandwidth, with an aggregate gateway
//! cap shared by concurrent readers. Object storage here doubles as the
//! *warm cache* for small files in the paper's hybrid I/O design (Sec. IV-D).

use crate::ReadService;
use des::SimTime;

/// Object-store parameters.
#[derive(Debug, Clone, Copy)]
pub struct ObjectStore {
    /// Per-request latency (connection reuse assumed), seconds.
    pub request_latency_s: f64,
    /// Per-connection streaming bandwidth, bytes/s.
    pub per_connection_bps: f64,
    /// Aggregate gateway bandwidth, bytes/s.
    pub gateway_bps: f64,
}

impl ObjectStore {
    /// MinIO deployed on a Piz Daint node as in Fig. 8.
    pub fn minio_daint() -> Self {
        ObjectStore {
            request_latency_s: 0.008,
            per_connection_bps: 0.5e9,
            gateway_bps: 7.0e9,
        }
    }

    /// Per-reader effective bandwidth with `readers` concurrent clients.
    pub fn effective_bps(&self, readers: u32) -> f64 {
        self.per_connection_bps
            .min(self.gateway_bps / f64::from(readers.max(1)))
    }
}

impl ReadService for ObjectStore {
    fn read_time(&self, size: u64, concurrent_readers: u32) -> SimTime {
        let bw = self.effective_bps(concurrent_readers);
        SimTime::from_secs_f64(self.request_latency_s + size as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lustre::Lustre;

    #[test]
    fn small_object_latency_beats_lustre() {
        let minio = ObjectStore::minio_daint();
        let lustre = Lustre::piz_daint();
        for size in [1u64 << 10, 1 << 20, 10 << 20] {
            assert!(
                minio.latency_s(size) < lustre.latency_s(size),
                "object store wins at {size}B"
            );
        }
    }

    #[test]
    fn large_file_latency_loses_to_lustre() {
        let minio = ObjectStore::minio_daint();
        let lustre = Lustre::piz_daint();
        for size in [200u64 << 20, 1 << 30] {
            assert!(
                minio.latency_s(size) > lustre.latency_s(size),
                "Lustre wins at {size}B"
            );
        }
    }

    #[test]
    fn crossover_in_tens_of_megabytes() {
        let minio = ObjectStore::minio_daint();
        let lustre = Lustre::piz_daint();
        // Find where the curves cross; the paper's Fig. 8 places it between
        // 10 MB and 100 MB.
        let mut crossover = None;
        let mut size = 1u64 << 10;
        while size <= 1 << 30 {
            if minio.latency_s(size) > lustre.latency_s(size) {
                crossover = Some(size);
                break;
            }
            size *= 2;
        }
        let c = crossover.expect("curves must cross");
        assert!(
            (10 << 20..=100 << 20).contains(&c),
            "crossover at {} MB",
            c >> 20
        );
    }

    #[test]
    fn sixteen_reader_throughput_below_lustre_at_1gb() {
        let minio = ObjectStore::minio_daint();
        let lustre = Lustre::piz_daint();
        let gb = 1u64 << 30;
        let m = minio.per_reader_throughput_gbps(gb, 16);
        let l = lustre.per_reader_throughput_gbps(gb, 16);
        assert!(m < l, "minio={m} lustre={l}");
        assert!(m > 0.3 && m < 0.5, "minio={m} in Fig. 8's band");
    }

    #[test]
    fn gateway_caps_aggregate() {
        let minio = ObjectStore::minio_daint();
        assert_eq!(minio.effective_bps(1), 0.5e9);
        assert_eq!(minio.effective_bps(14), 0.5e9);
        assert!(minio.effective_bps(28) < 0.5e9);
    }
}
