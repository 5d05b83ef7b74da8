//! Offline stand-in for the `rand_chacha` crate.
//!
//! [`ChaCha8Rng`] is a genuine ChaCha stream cipher with 8 rounds driving a
//! 64-bit block counter — the same construction as the real crate, though
//! the exact output stream is not guaranteed to match it bit-for-bit
//! (nothing in this workspace pins absolute draw values, only determinism
//! and statistical quality).

use rand::{RngCore, SeedableRng};

const WORDS_PER_BLOCK: usize = 16;

/// ChaCha with 8 rounds, keyed by a 256-bit seed.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; WORDS_PER_BLOCK],
    /// Next unread word in `buf`; `WORDS_PER_BLOCK` means exhausted.
    idx: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            // "expand 32-byte k"
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        // ChaCha8: 8 rounds = 4 double rounds (column + diagonal).
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(input.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; WORDS_PER_BLOCK],
            idx: WORDS_PER_BLOCK,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= WORDS_PER_BLOCK {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// The next two words, low first. With both in the current block this
    /// is one bounds check; across a block boundary, two `next_u32`s.
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return lo as u64 | (hi as u64) << 32;
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_u64_is_two_next_u32s_from_every_word_offset() {
        // Start at each of the 16 word offsets (and 16, 17: one block in),
        // then draw 64 u64s — 128 words, so at least 7 block boundaries,
        // each crossed in phase and out of phase with the u64 pairs.
        for offset in 0..=17 {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for _ in 0..offset {
                rng.next_u32();
            }
            let mut words = rng.clone();
            for i in 0..64 {
                let lo = words.next_u32() as u64;
                let hi = words.next_u32() as u64;
                assert_eq!(rng.next_u64(), lo | hi << 32, "offset {offset}, draw {i}");
            }
        }
    }

    #[test]
    fn known_answer_vector() {
        // Every golden artifact depends on these exact words.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x31159ef987c91afc,
                0x17559844b4169001,
                0xf7d0afbf9ad9a69f,
                0xb9207ad5fd37495a,
                0x072db0db61329c11,
                0x4051bc3beca26593,
                0xbfaab970cc4703b6,
                0xaff5425d8f89d223,
            ]
        );
    }

    #[test]
    fn output_is_well_distributed() {
        // Crude equidistribution check: mean of 64k unit floats near 0.5.
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 1 << 16;
        let sum: f64 = (0..n)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
