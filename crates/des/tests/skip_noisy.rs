//! `RngStream::skip_noisy` is `noisy`'s twin: it must leave the stream
//! exactly where `noisy` with the same straggler probability leaves it, so
//! a model may pass over samples it does not read without moving any later
//! draw. Random seeds and random interleavings of the two, each step
//! checked against a stream that only ever calls `noisy`.

use des::RngStream;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn skip_noisy_draws_the_same_words_as_noisy(
        seed in any::<u64>(),
        steps in prop::collection::vec((any::<bool>(), 0.0f64..=1.0, 0.0f64..1.0), 1..200)
    ) {
        let mut mixed = RngStream::from_seed(seed);
        let mut reference = RngStream::from_seed(seed);
        for (i, &(skip, straggler_p, rel_std)) in steps.iter().enumerate() {
            if skip {
                mixed.skip_noisy(straggler_p);
            } else {
                let sample = mixed.noisy(10.0, rel_std, straggler_p);
                prop_assert!(sample > 0.0);
            }
            reference.noisy(10.0, rel_std, straggler_p);
            prop_assert_eq!(
                mixed.clone().u64(),
                reference.clone().u64(),
                "streams diverged after step {} (skip = {}, straggler_p = {})",
                i,
                skip,
                straggler_p
            );
        }
    }
}
