//! IEEE-754 bit manipulation for `f32` values.
//!
//! Hardware transient faults are modeled as single-bit flips in the binary
//! representation of a value. This module provides the FP32 machinery; the
//! INT8 counterpart lives in `rustfi-quant` next to the quantizer it depends
//! on.

/// Number of bits in an `f32`.
pub const F32_BITS: u32 = 32;

/// Flips bit `bit` (0 = least significant mantissa bit, 31 = sign bit) of an
/// `f32`'s IEEE-754 representation.
///
/// # Panics
///
/// Panics if `bit >= 32`.
///
/// # Example
///
/// ```
/// use rustfi_tensor::bits::flip_bit_f32;
///
/// // Flipping the sign bit negates the value.
/// assert_eq!(flip_bit_f32(1.5, 31), -1.5);
/// // A double flip restores the original.
/// assert_eq!(flip_bit_f32(flip_bit_f32(0.1, 23), 23), 0.1);
/// ```
pub fn flip_bit_f32(value: f32, bit: u32) -> f32 {
    assert!(bit < F32_BITS, "f32 bit index {bit} out of range");
    f32::from_bits(value.to_bits() ^ (1u32 << bit))
}

/// Returns the value of bit `bit` of an `f32`'s representation.
///
/// # Panics
///
/// Panics if `bit >= 32`.
pub fn bit_of_f32(value: f32, bit: u32) -> bool {
    assert!(bit < F32_BITS, "f32 bit index {bit} out of range");
    value.to_bits() & (1u32 << bit) != 0
}

/// Decomposes an `f32` into `(sign, biased_exponent, mantissa)` fields.
pub fn fields_of_f32(value: f32) -> (bool, u8, u32) {
    let bits = value.to_bits();
    (
        (bits >> 31) != 0,
        ((bits >> 23) & 0xFF) as u8,
        bits & 0x7F_FFFF,
    )
}

/// Whether `a` and `b` hold the same IEEE-754 bit patterns, element for
/// element. Stricter than `==`: `-0.0` differs from `0.0` (a sign that can
/// still propagate), and a NaN equals a NaN of the same payload.
///
/// ```
/// use rustfi_tensor::bits::same_bits;
///
/// assert!(same_bits(&[1.0, f32::NAN], &[1.0, f32::NAN]));
/// assert!(!same_bits(&[0.0], &[-0.0]));
/// assert!(!same_bits(&[1.0], &[1.0, 2.0]));
/// ```
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    // OR the XORs of each block, so the inner loop has no branch and
    // vectorizes; stop at the first block that differs.
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
                == 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bits_finds_a_single_flip_anywhere() {
        let a: Vec<f32> = (0..200).map(|i| i as f32 * 0.5).collect();
        assert!(same_bits(&a, &a.clone()));
        for at in [0, 63, 64, 199] {
            let mut b = a.clone();
            b[at] = flip_bit_f32(b[at], 0);
            assert!(!same_bits(&a, &b), "flip at {at}");
        }
    }

    #[test]
    fn sign_bit_negates() {
        assert_eq!(flip_bit_f32(2.0, 31), -2.0);
        assert_eq!(flip_bit_f32(-2.0, 31), 2.0);
    }

    #[test]
    fn flip_is_involutive_for_every_bit() {
        for bit in 0..32 {
            let x = 0.734_f32;
            assert_eq!(
                flip_bit_f32(flip_bit_f32(x, bit), bit).to_bits(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn exponent_flip_changes_magnitude_dramatically() {
        // Flipping the top exponent bit of 1.0 (bits 0x3F800000) yields a huge value.
        let y = flip_bit_f32(1.0, 30);
        assert!(y > 1e30 || y.is_infinite(), "got {y}");
    }

    #[test]
    fn mantissa_lsb_flip_is_tiny() {
        let y = flip_bit_f32(1.0, 0);
        assert!((y - 1.0).abs() < 1e-6 && y != 1.0);
    }

    #[test]
    fn bit_of_reads_back_after_flip() {
        let x = 3.25f32;
        for bit in [0u32, 5, 23, 30, 31] {
            assert_ne!(bit_of_f32(x, bit), bit_of_f32(flip_bit_f32(x, bit), bit));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_rejects_bit_32() {
        flip_bit_f32(1.0, 32);
    }

    #[test]
    fn fields_of_one() {
        let (s, e, m) = fields_of_f32(1.0);
        assert!(!s);
        assert_eq!(e, 127);
        assert_eq!(m, 0);
        let (s, _, _) = fields_of_f32(-1.0);
        assert!(s);
    }

    #[test]
    fn fields_of_zero_and_nan() {
        assert_eq!(fields_of_f32(0.0), (false, 0, 0));
        let (_, e, m) = fields_of_f32(f32::NAN);
        assert_eq!(e, 255);
        assert_ne!(m, 0);
    }
}
