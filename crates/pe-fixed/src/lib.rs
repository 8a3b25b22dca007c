//! Fixed-point arithmetic and post-training quantization for printed bespoke
//! machine-learning circuits.
//!
//! Printed-electronics classifiers operate on narrow two's-complement integers:
//! input features are quantized to a handful of bits, and trained coefficients
//! (weights, biases) are quantized post-training to the lowest precision that
//! retains accuracy. This crate provides the numeric substrate shared by the
//! training side (`pe-ml`) and the hardware side (`pe-synth`):
//!
//! * [`FxFormat`] / [`Fx`] — a dynamically-formatted fixed-point value with
//!   explicit width, fractional bits and signedness, plus saturating and
//!   wrapping arithmetic that mirrors what a datapath of that width computes.
//! * [`QuantScheme`] and the [`quant`] module — power-of-two-scale post-training
//!   quantization (the scheme used by bespoke printed classifiers, where the
//!   scale must be a shift so that no real multiplier is spent on it).
//! * [`bits`] — two's-complement helpers used by circuit generators and the
//!   behavioral golden models (sign extension, bit extraction, range checks).
//! * [`search`] — lowest-precision search: find the narrowest coefficient
//!   width whose accuracy stays within a tolerance of the float model, the
//!   procedure §II of the paper applies to its SVMs.
//!
//! # Example
//!
//! ```
//! use pe_fixed::{QuantScheme, quant};
//!
//! // Quantize classifier weights to 6 signed bits with an automatic
//! // power-of-two scale.
//! let weights = [0.82, -0.33, 0.05, -0.91];
//! let scheme = QuantScheme::fit_signed(&weights, 6).unwrap();
//! let q = quant::quantize_slice(&weights, scheme);
//! let back = quant::dequantize_slice(&q, scheme);
//! for (w, b) in weights.iter().zip(&back) {
//!     assert!((w - b).abs() <= scheme.step());
//! }
//! ```

pub mod bits;
pub mod error;
pub mod fx;
pub mod quant;
pub mod round;
pub mod search;

pub use error::FixedError;
pub use fx::{Fx, FxFormat};
pub use quant::{QuantScheme, QuantStats, QuantizedTensor};
pub use round::Rounding;
pub use search::{search_lowest_width, SearchOutcome, SearchSpec};
