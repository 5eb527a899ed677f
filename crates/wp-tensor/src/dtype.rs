//! Numeric storage formats used by the training stack.
//!
//! The paper's implementation (§4.3) stores activations, weights and weight
//! gradients in `fp16`, activation gradients in `bf16`, and optimizer states
//! in `fp32`. We have no hardware half-precision on the CPU, so compute is
//! always carried out in `f32` and the 16-bit formats exist as *storage*
//! formats: values are quantized on store and dequantized on load. The
//! encode/decode routines below implement IEEE 754 binary16 and bfloat16
//! with round-to-nearest-even, which matches what a GPU cast does.

/// Storage precision of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
    F16,
    /// bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
    BF16,
}

impl DType {
    /// Size of one element in bytes. This is the number the communication
    /// layer charges per element, so it must agree with what a real NCCL
    /// transfer of the same dtype would move.
    #[inline]
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::BF16 => 2,
        }
    }

    /// Largest finite value representable in this format.
    pub const fn max_finite(self) -> f32 {
        match self {
            DType::F32 => f32::MAX,
            DType::F16 => 65504.0,
            DType::BF16 => 3.3895314e38,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "fp32"),
            DType::F16 => write!(f, "fp16"),
            DType::BF16 => write!(f, "bf16"),
        }
    }
}

/// Encode an `f32` as IEEE 754 binary16 with round-to-nearest-even.
///
/// Overflow saturates to infinity, exactly like a CUDA `__float2half_rn`
/// followed by the hardware's overflow behaviour.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: preserve NaN-ness by keeping a mantissa bit set.
        let nan = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    if unbiased >= 16 {
        // Overflow -> infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal range. Keep the top 10 mantissa bits, round-to-nearest-even
        // on the 13 dropped bits.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        let round_bits = mant & 0x1fff;
        let mut out = sign | half_exp | half_mant;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
            out = out.wrapping_add(1); // carries correctly into the exponent
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal half. Add the implicit leading 1, then shift.
        let mant = mant | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let half_mant = (mant >> shift) as u16;
        let round_mask = (1u32 << shift) - 1;
        let round_bits = mant & round_mask;
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | half_mant;
        if round_bits > halfway || (round_bits == halfway && (half_mant & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    // Underflows to signed zero.
    sign
}

/// Decode an IEEE 754 binary16 bit pattern into `f32`.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;

    let bits = if exp == 0x1f {
        // Inf / NaN.
        sign | 0x7f80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal half: value is mant × 2⁻²⁴, exactly representable
            // in f32, so build it with float arithmetic.
            let mag = mant as f32 * 2f32.powi(-24);
            return if sign != 0 { -mag } else { mag };
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Encode an `f32` as bfloat16 with round-to-nearest-even.
#[inline]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Quiet NaN, preserving sign.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = 0x0000_8000u32;
    let lower = bits & 0xffff;
    let mut upper = (bits >> 16) as u16;
    if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
        upper = upper.wrapping_add(1);
    }
    upper
}

/// Decode a bfloat16 bit pattern into `f32`.
#[inline]
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Round-trip a value through the given storage format.
///
/// This is the quantization a store-then-load performs; it is how mixed
/// precision is applied throughout the stack.
#[inline]
pub fn quantize(x: f32, dtype: DType) -> f32 {
    match dtype {
        DType::F32 => x,
        DType::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
        DType::BF16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
    }
}

/// In-place round-trip of a whole slice through the storage format.
pub fn quantize_slice(xs: &mut [f32], dtype: DType) {
    match dtype {
        DType::F32 => {}
        DType::F16 => {
            for x in xs {
                *x = f16_bits_to_f32(f32_to_f16_bits(*x));
            }
        }
        DType::BF16 => {
            for x in xs {
                *x = bf16_bits_to_f32(f32_to_bf16_bits(*x));
            }
        }
    }
}

/// A quantized copy of `xs`: the copy and [`quantize_slice`] fused into
/// one pass over the data.
pub fn quantized_to_vec(xs: &[f32], dtype: DType) -> Vec<f32> {
    match dtype {
        DType::F32 => xs.to_vec(),
        DType::F16 => xs
            .iter()
            .map(|&x| f16_bits_to_f32(f32_to_f16_bits(x)))
            .collect(),
        DType::BF16 => xs
            .iter()
            .map(|&x| bf16_bits_to_f32(f32_to_bf16_bits(x)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_exact_small_integers() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(
                quantize(x, DType::F16),
                x,
                "f16 must be exact for |x| <= 2048"
            );
        }
    }

    #[test]
    fn f16_known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(
            f32_to_f16_bits(65536.0),
            0x7c00,
            "overflow saturates to inf"
        );
        assert_eq!(f32_to_f16_bits(5.9604645e-8), 0x0001, "smallest subnormal");
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even keeps 1.0.
        let halfway = 1.0 + 2f32.powi(-11);
        assert_eq!(quantize(halfway, DType::F16), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(quantize(above, DType::F16), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn f16_decode_subnormals() {
        assert_eq!(f16_bits_to_f32(0x0001), 2f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x03ff), 2f32.powi(-24) * 1023.0);
        assert_eq!(f16_bits_to_f32(0x0400), 2f32.powi(-14));
    }

    #[test]
    fn bf16_known_patterns() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(f32_to_bf16_bits(-1.0), 0xbf80);
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        // bf16 has f32's exponent range so 1e38 survives.
        let big = quantize(1e38, DType::BF16);
        assert!(big.is_finite() && (big - 1e38).abs() / 1e38 < 0.01);
    }

    #[test]
    fn bf16_nan_preserved() {
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn quantize_is_idempotent() {
        let mut vals = vec![0.1f32, -3.7, 1e-5, 123.456, -65000.0, 1e-9];
        for &dt in &[DType::F16, DType::BF16] {
            for &v in &vals {
                let once = quantize(v, dt);
                let twice = quantize(once, dt);
                assert_eq!(
                    once.to_bits(),
                    twice.to_bits(),
                    "{dt} quantize not idempotent for {v}"
                );
            }
        }
        quantize_slice(&mut vals, DType::F16);
        let snapshot = vals.clone();
        quantize_slice(&mut vals, DType::F16);
        assert_eq!(vals, snapshot);
    }

    #[test]
    fn quantized_to_vec_matches_quantize_slice() {
        let xs = [0.1f32, -3.7, 1e-5, 123.456, -65000.0, 1e-9, f32::NAN, -0.0];
        for dt in [DType::F32, DType::F16, DType::BF16] {
            let mut want = xs.to_vec();
            quantize_slice(&mut want, dt);
            let got = quantized_to_vec(&xs, dt);
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{dt}"
            );
        }
    }

    #[test]
    fn relative_error_bounds() {
        // f16 has 11 significand bits -> rel err <= 2^-11; bf16 has 8 -> 2^-8.
        let xs: Vec<f32> = (1..1000).map(|i| i as f32 * 0.37 + 0.011).collect();
        for &x in &xs {
            let e16 = (quantize(x, DType::F16) - x).abs() / x;
            let eb16 = (quantize(x, DType::BF16) - x).abs() / x;
            assert!(e16 <= 2f32.powi(-11), "f16 err {e16} at {x}");
            assert!(eb16 <= 2f32.powi(-8), "bf16 err {eb16} at {x}");
        }
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::BF16.size_bytes(), 2);
    }
}
