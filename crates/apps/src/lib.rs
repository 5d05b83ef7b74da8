//! # apps — mini-application workloads
//!
//! Scaled-down but *real* compute kernels standing in for some of the
//! paper's evaluation workloads: a MILC-like SU(3) lattice sweep, the PARSEC
//! Black-Scholes pricer, an OpenMC-like Monte Carlo neutron-transport
//! kernel, and Rodinia-like GPU kernels executed on the CPU. Every kernel is
//! deterministic, parameterised by a problem size, and returns a checksum so
//! tests can pin behaviour.
//!
//! Nothing the figures, tables, examples or benchmarks run depends on these
//! kernels: the scenarios reproduce the paper from `interference::profiles`
//! (whose `NasKernel`/`NasClass` demand vectors stand in for the NAS
//! benchmarks), `gpu::kernels` and `scenarios::paper`. Only this crate's own
//! tests and one root proptest exercise them.

// Index-based loops are the lingua franca of these numerical kernels
// (stencils, 3×3 SU(3) blocks); iterator rewrites would obscure the
// correspondence with the reference benchmarks.
#![allow(clippy::needless_range_loop)]

pub mod blackscholes;
pub mod milc;
pub mod openmc;
pub mod rodinia;

/// A tiny deterministic LCG (NAS-style) used by kernels that need
/// reproducible pseudo-random input without threading a generator through.
#[derive(Debug, Clone, Copy)]
pub struct Lcg(pub u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.max(1))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // Numerical Recipes 64-bit LCG.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_deterministic_and_uniformish() {
        let mut a = Lcg::new(7);
        let mut b = Lcg::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Lcg::new(42);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn lcg_zero_seed_survives() {
        let mut r = Lcg::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
