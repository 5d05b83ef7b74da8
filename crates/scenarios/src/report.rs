//! Shared report formatting for every scenario: markdown tables, compact
//! float formatting, paper-vs-ours comparisons, `mean ± std` cells, byte-size
//! labels and noisy repeated measurements.
//!
//! This is the single home of the helpers that used to be copy-pasted across
//! the `fig*`/`tab*` binaries (they now live behind the scenario registry).

use des::{OnlineStats, RngStream};

/// Render a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format a float compactly.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Compare a measured value with the paper's and annotate the deviation.
pub fn compare(paper: f64, ours: f64) -> String {
    if !paper.is_finite() || !ours.is_finite() || paper == 0.0 {
        return format!("{} vs {}", fmt(paper), fmt(ours));
    }
    format!(
        "{} vs {} ({:+.0}%)",
        fmt(paper),
        fmt(ours),
        100.0 * (ours / paper - 1.0)
    )
}

/// `mean ± std` table cell.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{} ± {}", fmt(mean), fmt(std))
}

/// Human byte-size label (powers of two, as the paper's axes use).
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{}GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

/// Mean ± std over `reps` noisy repetitions of a modelled base value — the
/// "ten repetitions with measurement noise" pattern shared by the CPU-,
/// memory- and GPU-sharing figures.
pub fn noisy_mean_std(base: f64, rng: &mut RngStream, reps: usize, noise_std: f64) -> (f64, f64) {
    let mut stats = OnlineStats::new();
    for _ in 0..reps {
        stats.push(base + rng.normal(0.0, noise_std));
    }
    (stats.mean(), stats.std_dev())
}

/// Standard banner for every scenario report.
pub fn banner(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id} — {caption}");
    println!("(reproduction: simulated substrate, seed-deterministic)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(1234.5), "1234"); // ties-to-even
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(f64::NAN), "-");
        assert_eq!(fmt(0.0), "0");
    }

    #[test]
    fn compare_shows_deviation() {
        let s = compare(10.0, 12.0);
        assert!(s.contains("+20%"), "{s}");
    }

    #[test]
    fn pm_formats_both_moments() {
        assert_eq!(pm(3.0, 0.5), "3.00 ± 0.500");
    }

    #[test]
    fn size_labels_cover_units() {
        assert_eq!(size_label(1 << 10), "1KB");
        assert_eq!(size_label(10 << 20), "10MB");
        assert_eq!(size_label(1 << 30), "1GB");
    }

    #[test]
    fn noisy_mean_std_centers_on_base() {
        let mut rng = RngStream::from_seed(1);
        let (mean, std) = noisy_mean_std(50.0, &mut rng, 1000, 2.0);
        assert!((mean - 50.0).abs() < 0.5, "mean={mean}");
        assert!((std - 2.0).abs() < 0.5, "std={std}");
    }
}
