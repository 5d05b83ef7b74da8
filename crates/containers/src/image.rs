//! Container images and the node-local image cache.
//!
//! Pull costs matter for the *first* cold start of a function on a node; the
//! paper's platform stores images on the parallel filesystem and keeps a
//! node-local cache.

use des::SimTime;
use std::collections::HashMap;

/// Image identifier (content hash in a real registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u64);

/// A function's code image.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerImage {
    pub id: ImageId,
    pub name: String,
    pub size_mb: f64,
    /// Layers shared between images (layer id, size MB).
    pub layers: Vec<(u64, f64)>,
}

impl ContainerImage {
    pub fn new(id: u64, name: &str, size_mb: f64) -> Self {
        ContainerImage {
            id: ImageId(id),
            name: name.to_string(),
            size_mb,
            layers: vec![(id, size_mb)],
        }
    }

    /// Replace the layer list. Layer sizes must be finite and non-negative:
    /// a NaN or negative size would otherwise surface later as a mid-
    /// simulation panic (or nonsense pull time) deep inside cache eviction.
    pub fn with_layers(mut self, layers: Vec<(u64, f64)>) -> Self {
        for (layer, size) in &layers {
            assert!(
                size.is_finite() && *size >= 0.0,
                "layer {layer} of image `{}` has invalid size {size} MB",
                self.name
            );
        }
        self.size_mb = layers.iter().map(|(_, s)| s).sum();
        self.layers = layers;
        self
    }
}

/// Node-local image cache with layer dedup.
#[derive(Debug, Default)]
pub struct ImageCache {
    layers_present: HashMap<u64, f64>,
    capacity_mb: f64,
    hits: u64,
    misses: u64,
}

impl ImageCache {
    pub fn new(capacity_mb: f64) -> Self {
        ImageCache {
            layers_present: HashMap::new(),
            capacity_mb,
            hits: 0,
            misses: 0,
        }
    }

    pub fn used_mb(&self) -> f64 {
        self.layers_present.values().sum()
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            f64::NAN
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Ensure `image` is present; returns the time to fetch missing layers
    /// at `pull_bandwidth_mbps` (MB/s) from the registry / PFS.
    /// Layers already cached (possibly via another image) are free.
    pub fn ensure(&mut self, image: &ContainerImage, pull_bandwidth_mbps: f64) -> SimTime {
        let mut missing_mb = 0.0;
        for (layer, size) in &image.layers {
            if self.layers_present.contains_key(layer) {
                self.hits += 1;
            } else {
                self.misses += 1;
                missing_mb += size;
                self.layers_present.insert(*layer, *size);
            }
        }
        // Naive eviction: if over capacity, charge the refetch next time by
        // dropping the largest layers not in this image. The victim must not
        // depend on HashMap iteration order — equal-size layers tie-break on
        // layer id (highest first) so every run evicts identically, and
        // `total_cmp` keeps the comparison total even for sizes that slipped
        // past validation.
        while self.used_mb() > self.capacity_mb {
            let candidate = self
                .layers_present
                .iter()
                .filter(|(l, _)| !image.layers.iter().any(|(il, _)| il == *l))
                .max_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .map(|(l, _)| *l);
            match candidate {
                Some(l) => {
                    self.layers_present.remove(&l);
                }
                None => break, // this image alone exceeds capacity; keep it
            }
        }
        if missing_mb == 0.0 {
            SimTime::ZERO
        } else {
            // A pull also pays a registry round trip.
            SimTime::from_millis(30) + SimTime::from_secs_f64(missing_mb / pull_bandwidth_mbps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_pull_pays_then_cached() {
        let mut cache = ImageCache::new(10_000.0);
        let img = ContainerImage::new(1, "nas-bt", 200.0);
        let t1 = cache.ensure(&img, 1000.0);
        assert!(t1 >= SimTime::from_millis(200), "pull 200MB at 1GB/s + RTT");
        let t2 = cache.ensure(&img, 1000.0);
        assert_eq!(t2, SimTime::ZERO);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn shared_layers_are_deduplicated() {
        let mut cache = ImageCache::new(10_000.0);
        let base = ContainerImage::new(1, "base", 500.0).with_layers(vec![(100, 500.0)]);
        let app = ContainerImage::new(2, "app", 0.0).with_layers(vec![(100, 500.0), (200, 50.0)]);
        cache.ensure(&base, 1000.0);
        let t = cache.ensure(&app, 1000.0);
        // Only the 50 MB layer is fetched.
        assert!(t < SimTime::from_millis(120), "{t}");
        assert!((cache.used_mb() - 550.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut cache = ImageCache::new(600.0);
        let a = ContainerImage::new(1, "a", 400.0);
        let b = ContainerImage::new(2, "b", 400.0);
        cache.ensure(&a, 1000.0);
        cache.ensure(&b, 1000.0);
        assert!(cache.used_mb() <= 600.0);
        // b must still be present (it is the most recent image).
        let t = cache.ensure(&b, 1000.0);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn eviction_is_deterministic_across_equal_sizes() {
        // Three same-size cached layers competing for eviction: the victim
        // must be chosen by (size, layer_id), not HashMap iteration order.
        // Before the tie-break this failed intermittently (random survivor
        // set run to run), breaking bit-identical reruns.
        for _ in 0..32 {
            let mut cache = ImageCache::new(350.0);
            let old = ContainerImage::new(1, "old", 0.0).with_layers(vec![
                (10, 100.0),
                (11, 100.0),
                (12, 100.0),
            ]);
            cache.ensure(&old, 1000.0);
            let new = ContainerImage::new(2, "new", 150.0);
            cache.ensure(&new, 1000.0);
            // 400 MB > 350 MB: exactly one of the equal-size layers goes —
            // the highest layer id, 12.
            assert!((cache.used_mb() - 350.0).abs() < 1e-9);
            let survivors =
                ContainerImage::new(3, "probe", 0.0).with_layers(vec![(10, 100.0), (11, 100.0)]);
            assert_eq!(
                cache.ensure(&survivors, 1000.0),
                SimTime::ZERO,
                "layers 10 and 11 must survive, 12 must be the victim"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid size")]
    fn nan_layer_size_is_rejected_at_construction() {
        let _ = ContainerImage::new(1, "bad", 0.0).with_layers(vec![(10, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "invalid size")]
    fn negative_layer_size_is_rejected_at_construction() {
        let _ = ContainerImage::new(1, "bad", 0.0).with_layers(vec![(10, -5.0)]);
    }

    #[test]
    fn infinite_layer_size_is_rejected_at_construction() {
        let res = std::panic::catch_unwind(|| {
            ContainerImage::new(1, "bad", 0.0).with_layers(vec![(10, f64::INFINITY)])
        });
        assert!(res.is_err());
    }

    #[test]
    fn oversized_image_is_kept_anyway() {
        let mut cache = ImageCache::new(100.0);
        let big = ContainerImage::new(1, "big", 400.0);
        cache.ensure(&big, 1000.0);
        assert_eq!(cache.ensure(&big, 1000.0), SimTime::ZERO);
    }
}
