//! Lustre-like parallel filesystem model.
//!
//! Reads pay a metadata round trip (MDS) plus data movement striped over
//! OSTs. Small files cannot amortise the metadata cost and use a single
//! stripe; large files fan out across stripes and approach the aggregate OST
//! bandwidth. Contention: concurrent readers share the OST pool fairly.

use crate::ReadService;
use des::SimTime;

/// Parallel filesystem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Lustre {
    /// Metadata (open + layout) latency, seconds.
    pub mds_latency_s: f64,
    /// Number of object storage targets.
    pub ost_count: u32,
    /// Per-OST sequential read bandwidth, bytes/s.
    pub per_ost_bps: f64,
    /// Stripe size, bytes.
    pub stripe_bytes: u64,
    /// Default stripe count for a file.
    pub stripe_count: u32,
    /// Per-client network limit, bytes/s.
    pub client_link_bps: f64,
}

impl Lustre {
    /// Calibrated to the Piz Daint `/scratch` behaviour visible in Fig. 8:
    /// tens-of-ms small-file latency, ~0.6 GB/s per reader at 16 readers for
    /// 1 GB files, ~1 s single-reader latency at 1 GB.
    pub fn piz_daint() -> Self {
        Lustre {
            mds_latency_s: 0.030,
            ost_count: 16,
            per_ost_bps: 0.6e9,
            stripe_bytes: 1 << 20, // 1 MiB
            stripe_count: 4,
            client_link_bps: 1.2e9,
        }
    }

    /// How many stripes a read of `size` actually touches.
    fn stripes_used(&self, size: u64) -> u32 {
        let touched = size.div_ceil(self.stripe_bytes.max(1));
        touched
            .min(u64::from(self.stripe_count))
            .max(1)
            .try_into()
            .expect("bounded by stripe_count")
    }

    /// Effective bandwidth for one reader of a `size`-byte file with
    /// `readers` total concurrent clients.
    pub fn effective_bps(&self, size: u64, readers: u32) -> f64 {
        let stripes = self.stripes_used(size) as f64;
        // All readers share the OST pool; each file's stripes give it
        // parallelism up to its stripe count.
        let ost_pool = self.per_ost_bps * f64::from(self.ost_count);
        let fair_pool_share = ost_pool / f64::from(readers.max(1));
        (self.per_ost_bps * stripes)
            .min(fair_pool_share)
            .min(self.client_link_bps)
    }
}

impl ReadService for Lustre {
    fn read_time(&self, size: u64, concurrent_readers: u32) -> SimTime {
        let bw = self.effective_bps(size, concurrent_readers);
        SimTime::from_secs_f64(self.mds_latency_s + size as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_file_latency_dominated_by_mds() {
        let l = Lustre::piz_daint();
        let t = l.latency_s(1024);
        assert!((t - l.mds_latency_s).abs() < 0.01, "t={t}");
    }

    #[test]
    fn large_file_throughput_near_client_link() {
        let l = Lustre::piz_daint();
        let gb = 1u64 << 30;
        let gbps = l.per_reader_throughput_gbps(gb, 1);
        // 4 stripes × 0.6 GB/s capped by the 1.2 GB/s client link.
        assert!(gbps > 0.9 && gbps < 1.3, "gbps={gbps}");
    }

    #[test]
    fn sixteen_readers_share_ost_pool() {
        let l = Lustre::piz_daint();
        let gb = 1u64 << 30;
        let alone = l.per_reader_throughput_gbps(gb, 1);
        let crowded = l.per_reader_throughput_gbps(gb, 16);
        assert!(crowded < alone);
        // 16 OSTs × 0.6 / 16 = 0.6 GB/s fair share — Fig. 8's ~0.55-0.6.
        assert!(crowded > 0.4 && crowded < 0.65, "gbps={crowded}");
    }

    #[test]
    fn tiny_read_uses_single_stripe() {
        let l = Lustre::piz_daint();
        assert_eq!(l.stripes_used(10), 1);
        assert_eq!(l.stripes_used(1 << 20), 1);
        assert_eq!(l.stripes_used((1 << 20) + 1), 2);
        assert_eq!(l.stripes_used(1 << 30), l.stripe_count);
    }

    #[test]
    fn read_time_monotone_in_size_and_readers() {
        let l = Lustre::piz_daint();
        let mut prev = SimTime::ZERO;
        for size in [1u64 << 10, 1 << 20, 1 << 24, 1 << 30] {
            let t = l.read_time(size, 1);
            assert!(t > prev);
            prev = t;
        }
        assert!(l.read_time(1 << 30, 32) >= l.read_time(1 << 30, 2));
    }
}
