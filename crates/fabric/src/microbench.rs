//! Ping-pong microbenchmark harness: the latency distribution of one
//! transport/completion combination at one message size, with
//! deterministic jitter. Fig. 7's two libfabric baseline series are
//! [`ping_pong`] at each of [`fig7_sizes`]; the rFaaS hot/warm series are
//! produced by the executor in `crates/core` and plotted against these.
//! The samples are one [`RngStream::noisy_samples`] draw.

use crate::loggp::{CompletionMode, LogGpParams};
use des::{Percentiles, RngStream};

/// Probability that one ping-pong is a straggler (scheduler preemption),
/// which fattens the p95 — pronounced for event-wait.
fn straggler_p(completion: CompletionMode) -> f64 {
    match completion {
        CompletionMode::BusyPoll => 0.01,
        CompletionMode::EventWait => 0.06,
    }
}

/// Run `reps` simulated ping-pongs of `size` bytes and collect round-trip
/// latencies in microseconds.
pub fn ping_pong(
    params: &LogGpParams,
    completion: CompletionMode,
    size: usize,
    reps: usize,
    rng: &mut RngStream,
) -> Percentiles {
    let base = params.round_trip(size, size, completion).as_micros_f64();
    rng.noisy_samples(base, params.jitter_rel_std, straggler_p(completion), reps)
}

/// The message sizes of Fig. 7: 1 B .. 4 KiB in powers of two.
pub fn fig7_sizes() -> Vec<usize> {
    (0..=12).map(|i| 1usize << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loggp::LogGpParams;

    /// Median of `ping_pong` at each size, all drawn from one stream.
    fn sweep_medians(
        completion: CompletionMode,
        sizes: &[usize],
        reps: usize,
        rng: &mut RngStream,
    ) -> Vec<f64> {
        let p = LogGpParams::ugni();
        sizes
            .iter()
            .map(|&size| ping_pong(&p, completion, size, reps, rng).median())
            .collect()
    }

    #[test]
    fn fig7_sizes_are_powers_of_two_up_to_4k() {
        let s = fig7_sizes();
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&4096));
        assert_eq!(s.len(), 13);
    }

    #[test]
    fn median_close_to_model() {
        let p = LogGpParams::ugni();
        let mut rng = RngStream::from_seed(7);
        let mut dist = ping_pong(&p, CompletionMode::BusyPoll, 64, 2000, &mut rng);
        let model = p
            .round_trip(64, 64, CompletionMode::BusyPoll)
            .as_micros_f64();
        let med = dist.median();
        assert!(
            (med - model).abs() / model < 0.05,
            "median={med} model={model}"
        );
    }

    #[test]
    fn p95_above_median() {
        let p = LogGpParams::ugni();
        let mut rng = RngStream::from_seed(7);
        for completion in [CompletionMode::BusyPoll, CompletionMode::EventWait] {
            let mut dist = ping_pong(&p, completion, 1024, 2000, &mut rng);
            assert!(dist.p95() > dist.median());
        }
    }

    #[test]
    fn sweep_is_monotone_in_size() {
        let mut rng = RngStream::from_seed(3);
        let medians = sweep_medians(CompletionMode::BusyPoll, &fig7_sizes(), 500, &mut rng);
        for w in medians.windows(2) {
            // Jitter can wiggle adjacent medians slightly; allow 3%.
            assert!(w[1] > w[0] * 0.97);
        }
    }

    #[test]
    fn event_wait_sweep_slower_than_busy_poll() {
        let sizes = fig7_sizes();
        let mut r1 = RngStream::from_seed(3);
        let mut r2 = RngStream::from_seed(3);
        let busy = sweep_medians(CompletionMode::BusyPoll, &sizes, 300, &mut r1);
        let wait = sweep_medians(CompletionMode::EventWait, &sizes, 300, &mut r2);
        for ((b, w), size) in busy.iter().zip(&wait).zip(&sizes) {
            assert!(w > &(b + 5.0), "wakeup penalty visible at {size}B");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rng = RngStream::from_seed(seed);
            sweep_medians(CompletionMode::BusyPoll, &[64, 1024], 200, &mut rng)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
