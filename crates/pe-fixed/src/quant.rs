//! Post-training quantization with power-of-two scales.
//!
//! Bespoke printed classifiers hardwire coefficients into logic, so the
//! quantization scale must be a power of two: the scale then costs nothing
//! (it is just a binary-point position), and the datapath is pure integer
//! arithmetic. [`QuantScheme`] captures `(width, frac_bits, signedness)`;
//! [`quantize_slice`] maps real coefficients onto that grid.

use crate::bits;
use crate::error::FixedError;
use crate::round::Rounding;

/// A power-of-two-scale quantization scheme.
///
/// A real value `x` maps to the integer `round(x * 2^frac)` clamped to the
/// `width`-bit range; the represented value is `q * 2^-frac`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    width: u32,
    frac: i32,
    signed: bool,
    rounding: Rounding,
}

impl QuantScheme {
    /// Creates a scheme with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidWidth`] for widths outside `1..=32`.
    pub fn new(
        width: u32,
        frac: i32,
        signed: bool,
        rounding: Rounding,
    ) -> Result<Self, FixedError> {
        if width == 0 || width > 32 {
            return Err(FixedError::InvalidWidth(width));
        }
        Ok(QuantScheme { width, frac, signed, rounding })
    }

    /// Fits the largest `frac` (finest resolution) such that every value in
    /// `data` fits a signed `width`-bit integer after scaling by `2^frac`.
    ///
    /// This is the standard per-tensor symmetric scheme for weights.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::EmptyInput`] for an empty slice and
    /// [`FixedError::NonFinite`] if any value is NaN/inf.
    pub fn fit_signed(data: &[f64], width: u32) -> Result<Self, FixedError> {
        Self::fit(data, width, true)
    }

    /// Unsigned variant of [`QuantScheme::fit_signed`] for non-negative data
    /// (e.g. input activations normalized to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantScheme::fit_signed`].
    pub fn fit_unsigned(data: &[f64], width: u32) -> Result<Self, FixedError> {
        Self::fit(data, width, false)
    }

    fn fit(data: &[f64], width: u32, signed: bool) -> Result<Self, FixedError> {
        if width == 0 || width > 32 {
            return Err(FixedError::InvalidWidth(width));
        }
        if data.is_empty() {
            return Err(FixedError::EmptyInput);
        }
        let mut max_abs = 0.0f64;
        for &v in data {
            if !v.is_finite() {
                return Err(FixedError::NonFinite(v));
            }
            if signed {
                max_abs = max_abs.max(v.abs());
            } else {
                max_abs = max_abs.max(v.max(0.0));
            }
        }
        // All-zero data: any frac works; choose 0 for a canonical answer.
        if max_abs == 0.0 {
            return Ok(QuantScheme { width, frac: 0, signed, rounding: Rounding::default() });
        }
        let limit =
            if signed { bits::max_signed(width) as f64 } else { bits::max_unsigned(width) as f64 };
        // Largest frac with round(max_abs * 2^frac) <= limit. Start from the
        // analytic guess and walk down while rounding overflows.
        let mut frac = (limit / max_abs).log2().floor() as i32;
        loop {
            let q = Rounding::default().apply(max_abs * (2.0f64).powi(frac));
            if q <= limit || frac <= -64 {
                break;
            }
            frac -= 1;
        }
        Ok(QuantScheme { width, frac, signed, rounding: Rounding::default() })
    }

    /// Returns a copy with a different rounding mode.
    #[must_use]
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// Total width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Binary-point position (`scale = 2^-frac`).
    #[must_use]
    pub fn frac(&self) -> i32 {
        self.frac
    }

    /// Whether values are signed.
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The rounding mode applied during quantization.
    #[must_use]
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Resolution of the grid, `2^-frac`.
    #[must_use]
    pub fn step(&self) -> f64 {
        (2.0f64).powi(-self.frac)
    }

    /// Smallest representable integer.
    #[must_use]
    pub fn min_q(&self) -> i64 {
        if self.signed {
            bits::min_signed(self.width)
        } else {
            0
        }
    }

    /// Largest representable integer.
    #[must_use]
    pub fn max_q(&self) -> i64 {
        if self.signed {
            bits::max_signed(self.width)
        } else {
            bits::max_unsigned(self.width)
        }
    }

    /// Quantizes one value: scale, round, clamp.
    #[must_use]
    pub fn quantize(&self, x: f64) -> i64 {
        let scaled = x * (2.0f64).powi(self.frac);
        let q = self.rounding.to_i64(scaled.clamp(self.min_q() as f64, self.max_q() as f64));
        q.clamp(self.min_q(), self.max_q())
    }

    /// Maps a quantized integer back to its real value.
    #[must_use]
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 * self.step()
    }
}

/// Quantizes a slice under `scheme`.
#[must_use]
pub fn quantize_slice(data: &[f64], scheme: QuantScheme) -> Vec<i64> {
    data.iter().map(|&x| scheme.quantize(x)).collect()
}

/// Dequantizes a slice under `scheme`.
#[must_use]
pub fn dequantize_slice(q: &[i64], scheme: QuantScheme) -> Vec<f64> {
    q.iter().map(|&v| scheme.dequantize(v)).collect()
}

/// Reconstruction-error statistics of a quantization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantStats {
    /// Maximum absolute reconstruction error.
    pub max_abs_error: f64,
    /// Mean squared reconstruction error.
    pub mse: f64,
    /// Fraction of values that hit the clamp rails.
    pub saturation_rate: f64,
}

/// Computes [`QuantStats`] for `data` under `scheme`.
///
/// # Panics
///
/// Panics if `data` is empty.
#[must_use]
pub fn quant_stats(data: &[f64], scheme: QuantScheme) -> QuantStats {
    assert!(!data.is_empty(), "quant_stats of empty slice");
    let mut max_abs = 0.0f64;
    let mut sq = 0.0f64;
    let mut sat = 0usize;
    for &x in data {
        let q = scheme.quantize(x);
        if q == scheme.min_q() || q == scheme.max_q() {
            // Only count as saturation when the unclamped value was outside.
            let unclamped = scheme.rounding.apply(x * (2.0f64).powi(scheme.frac));
            if unclamped < scheme.min_q() as f64 || unclamped > scheme.max_q() as f64 {
                sat += 1;
            }
        }
        let e = x - scheme.dequantize(q);
        max_abs = max_abs.max(e.abs());
        sq += e * e;
    }
    QuantStats {
        max_abs_error: max_abs,
        mse: sq / data.len() as f64,
        saturation_rate: sat as f64 / data.len() as f64,
    }
}

/// A quantized tensor: integers plus the scheme that produced them.
///
/// This is the handoff object from training (`pe-ml`) to circuit generation
/// (`pe-synth`): the integers become hardwired constants and the scheme
/// becomes bit widths and binary-point positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedTensor {
    values: Vec<i64>,
    scheme: QuantScheme,
}

impl QuantizedTensor {
    /// Quantizes `data` under `scheme`.
    #[must_use]
    pub fn quantize(data: &[f64], scheme: QuantScheme) -> Self {
        QuantizedTensor { values: quantize_slice(data, scheme), scheme }
    }

    /// Wraps already-quantized integers.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::OutOfRange`] if any integer is outside the
    /// scheme's representable range.
    pub fn from_values(values: Vec<i64>, scheme: QuantScheme) -> Result<Self, FixedError> {
        for &v in &values {
            if v < scheme.min_q() || v > scheme.max_q() {
                return Err(FixedError::OutOfRange {
                    value: v,
                    width: scheme.width(),
                    signed: scheme.is_signed(),
                });
            }
        }
        Ok(QuantizedTensor { values, scheme })
    }

    /// The quantized integers.
    #[must_use]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The scheme the integers were quantized under.
    #[must_use]
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dequantized real values.
    #[must_use]
    pub fn to_f64(&self) -> Vec<f64> {
        dequantize_slice(&self.values, self.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_signed_picks_finest_scale() {
        let data = [0.9, -0.4, 0.05];
        let s = QuantScheme::fit_signed(&data, 8).unwrap();
        // 0.9 * 2^7 = 115.2 <= 127, 0.9 * 2^8 = 230 > 127 -> frac = 7
        assert_eq!(s.frac(), 7);
        assert_eq!(s.quantize(0.9), 115);
        assert_eq!(s.quantize(-0.4), -51);
    }

    #[test]
    fn fit_handles_large_values() {
        let data = [100.0, -3.0];
        let s = QuantScheme::fit_signed(&data, 8).unwrap();
        assert!(s.frac() <= 0);
        assert!(s.quantize(100.0) <= 127);
        let err = (s.dequantize(s.quantize(100.0)) - 100.0).abs();
        assert!(err <= s.step());
    }

    #[test]
    fn fit_unsigned_input_activations() {
        // Inputs normalized to [0,1] quantized to 4 bits, as in the paper.
        let data = [0.0, 0.5, 1.0];
        let s = QuantScheme::fit_unsigned(&data, 4).unwrap();
        assert_eq!(s.frac(), 3); // 1.0 * 2^3 = 8 <= 15; 2^4 = 16 > 15
        assert_eq!(s.quantize(1.0), 8);
        assert_eq!(s.quantize(0.5), 4);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert_eq!(QuantScheme::fit_signed(&[], 8), Err(FixedError::EmptyInput));
        assert!(QuantScheme::fit_signed(&[f64::INFINITY], 8).is_err());
        assert!(QuantScheme::fit_signed(&[1.0], 0).is_err());
    }

    #[test]
    fn all_zero_data_is_canonical() {
        let s = QuantScheme::fit_signed(&[0.0, 0.0], 6).unwrap();
        assert_eq!(s.frac(), 0);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn quantize_clamps() {
        let s = QuantScheme::new(4, 0, true, Rounding::default()).unwrap();
        assert_eq!(s.quantize(100.0), 7);
        assert_eq!(s.quantize(-100.0), -8);
    }

    #[test]
    fn stats_reflect_error_bound() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) / 100.0 - 0.5).collect();
        let s = QuantScheme::fit_signed(&data, 6).unwrap();
        let stats = quant_stats(&data, s);
        assert!(stats.max_abs_error <= 0.5 * s.step() + 1e-12);
        assert!(stats.mse <= stats.max_abs_error * stats.max_abs_error);
        assert_eq!(stats.saturation_rate, 0.0);
    }

    #[test]
    fn saturation_is_detected() {
        let s = QuantScheme::new(4, 0, true, Rounding::default()).unwrap();
        let stats = quant_stats(&[100.0, 0.0, -100.0, 3.0], s);
        assert!((stats.saturation_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tensor_roundtrip_and_validation() {
        let s = QuantScheme::new(6, 4, true, Rounding::default()).unwrap();
        let t = QuantizedTensor::quantize(&[1.0, -1.0, 0.25], s);
        assert_eq!(t.values(), &[16, -16, 4]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.to_f64(), vec![1.0, -1.0, 0.25]);
        assert!(QuantizedTensor::from_values(vec![31], s).is_ok());
        assert!(QuantizedTensor::from_values(vec![32], s).is_err());
    }

    #[test]
    fn truncation_mode_biases_toward_zero() {
        let s = QuantScheme::new(8, 4, true, Rounding::default())
            .unwrap()
            .with_rounding(Rounding::TowardZero);
        assert_eq!(s.quantize(0.99), 15); // 15.84 -> 15 (round would give 16)
        assert_eq!(s.quantize(-0.99), -15);
    }
}
