//! FIG8 — I/O performance on Piz Daint: Lustre vs MinIO (Fig. 8).
//!
//! Left panel: read latency, one reader, 1 KB – 1 GB.
//! Right panel: per-reader throughput, 16 readers, 1 MB – 1 GB.

use crate::report::{banner, fmt, print_table, size_label};
use crate::{Metrics, Params, Scenario};
use des::Simulation;
use storage::harness::{latency_sweep, throughput_sweep, IoRow};
use storage::{Lustre, ObjectStore};

fn compute(params: &Params) -> (Vec<IoRow>, Vec<IoRow>) {
    let readers = params.u64("readers", 16) as u32;
    let lustre = Lustre::piz_daint();
    let minio = ObjectStore::minio_daint();
    let lat = latency_sweep(&lustre, &minio);
    let thr = throughput_sweep(&lustre, &minio, readers);
    (lat, thr)
}

pub struct Fig08Io;

impl Scenario for Fig08Io {
    fn name(&self) -> &'static str {
        "fig08_io"
    }

    fn title(&self) -> &'static str {
        "Lustre parallel filesystem vs MinIO object storage"
    }

    fn default_params(&self) -> Params {
        Params::new().with("readers", 16u64)
    }

    fn run(&self, _sim: &mut Simulation, params: &Params) -> Metrics {
        let (lat, thr) = compute(params);
        let mut m = Metrics::new();
        m.push("minio_latency_small_s", lat[0].object_store);
        m.push("lustre_latency_small_s", lat[0].lustre);
        m.push("minio_latency_1gb_s", lat.last().unwrap().object_store);
        m.push("lustre_latency_1gb_s", lat.last().unwrap().lustre);
        m.push(
            "minio_latency_wins",
            lat.iter().filter(|r| r.object_store < r.lustre).count() as f64,
        );
        m.push("minio_thr_1gb_gbps", thr.last().unwrap().object_store);
        m.push("lustre_thr_1gb_gbps", thr.last().unwrap().lustre);
        m
    }

    fn report(&self) {
        banner("FIG8", self.title());
        let (lat, thr) = compute(&self.default_params());

        print_table(
            "Fig. 8 (left) — read latency, one reader [s]",
            &["size", "MinIO", "Lustre", "winner"],
            &lat.iter()
                .map(|r| {
                    vec![
                        size_label(r.size_bytes),
                        fmt(r.object_store),
                        fmt(r.lustre),
                        if r.object_store < r.lustre {
                            "MinIO"
                        } else {
                            "Lustre"
                        }
                        .to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );

        print_table(
            "Fig. 8 (right) — per-reader throughput, 16 readers [GB/s]",
            &["size", "MinIO", "Lustre", "winner"],
            &thr.iter()
                .map(|r| {
                    vec![
                        size_label(r.size_bytes),
                        fmt(r.object_store),
                        fmt(r.lustre),
                        if r.object_store > r.lustre {
                            "MinIO"
                        } else {
                            "Lustre"
                        }
                        .to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );

        println!("\nshape checks (the paper's claims):");
        println!(
            "  object storage delivers lower latency for smaller file sizes: MinIO wins ≤10MB"
        );
        println!(
            "  Lustre achieves higher throughput at scale: Lustre wins the 16-reader 1GB point"
        );
        assert!(
            lat[0].object_store < lat[0].lustre,
            "small-file latency: MinIO wins"
        );
        assert!(
            lat.last().unwrap().object_store > lat.last().unwrap().lustre,
            "1 GB latency: Lustre wins"
        );
        assert!(
            thr.last().unwrap().lustre > thr.last().unwrap().object_store,
            "16-reader throughput at 1 GB: Lustre wins"
        );
    }
}
