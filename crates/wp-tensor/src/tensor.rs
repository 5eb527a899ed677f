//! Seeded tensor initialisation.
//!
//! Every buffer in the stack is a flat `f32` slice; [`Tensor`] exists only to
//! fill one deterministically from a seed, so every rank of a distributed job
//! can build identical weights without communicating.

use crate::shape::Shape;
use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense, contiguous, row-major buffer of `f32` values.
#[derive(Debug, Clone)]
pub struct Tensor {
    data: Vec<f32>,
}

impl Tensor {
    /// Deterministic N(0, std²) initialisation from a seed.
    ///
    /// Uses Box–Muller over a seeded PRNG so every rank of a distributed job
    /// can materialise identical weights without communicating.
    pub fn randn(shape: impl Into<Shape>, std: f32, seed: u64) -> Self {
        let n = shape.into().numel();
        let mut rng = StdRng::seed_from_u64(seed);
        let unif = Uniform::new(f32::EPSILON, 1.0f32).expect("valid range");
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = unif.sample(&mut rng);
            let u2: f32 = unif.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { data }
    }

    /// Uniform init in `[lo, hi)` from a seed.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Self {
        let n = shape.into().numel();
        let mut rng = StdRng::seed_from_u64(seed);
        let unif = Uniform::new(lo, hi).expect("valid range");
        let data = (0..n).map(|_| unif.sample(&mut rng)).collect();
        Tensor { data }
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_is_deterministic_and_normal_ish() {
        let a = Tensor::randn([1000], 1.0, 42).into_vec();
        let b = Tensor::randn([1000], 1.0, 42).into_vec();
        assert_eq!(a, b, "same seed must give identical tensors");
        let c = Tensor::randn([1000], 1.0, 43).into_vec();
        assert_ne!(a, c, "different seeds must differ");
        let mean = a.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean} too far from 0");
        let var: f32 = a.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 999.0;
        assert!((var - 1.0).abs() < 0.2, "variance {var} too far from 1");
    }
}
