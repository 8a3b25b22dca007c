//! Machine-learning substrate: linear SVMs, multi-class wrappers, a small
//! MLP, and post-training quantization with integer-exact inference.
//!
//! This crate replaces the scikit-learn side of the paper's flow:
//!
//! * [`linear`] — binary L1-loss linear SVMs trained by dual coordinate
//!   descent (the liblinear algorithm), deterministic under a seed.
//! * [`multiclass`] — One-vs-Rest (the paper's choice: `n` classifiers) and
//!   One-vs-One (the state of the art's choice: `n(n-1)/2` classifiers).
//! * [`mlp`] — a small one-hidden-layer MLP with ReLU, the baseline of
//!   Armeniakos et al. (TC'23) \[4\].
//! * [`quantized`] — post-training quantization to narrow two's-complement
//!   integers with a **global power-of-two weight scale** (so that One-vs-Rest
//!   argmax comparisons remain meaningful across classifiers) and bit-exact
//!   integer inference. The integer models here are the golden references the
//!   generated circuits in `pe-core` are verified against, sample by sample.
//!
//! # Example
//!
//! ```
//! use pe_data::UciProfile;
//! use pe_data::{train_test_split, Normalizer};
//! use pe_ml::multiclass::{MulticlassScheme, SvmModel};
//! use pe_ml::linear::SvmTrainParams;
//!
//! let data = UciProfile::Dermatology.generate(7);
//! let (train, test) = train_test_split(&data, 0.2, 7);
//! let norm = Normalizer::fit(&train);
//! let (train, test) = (norm.apply(&train), norm.apply(&test));
//! let model = SvmModel::train(&train, MulticlassScheme::OneVsRest, &SvmTrainParams::default());
//! let acc = model.accuracy(&test);
//! assert!(acc > 0.8);
//! ```

pub mod linear;
pub mod mlp;
pub mod multiclass;
pub mod quantized;
pub mod validate;

pub use linear::{LinearModel, SvmTrainParams};
pub use mlp::{Mlp, MlpTrainParams};
pub use multiclass::{MulticlassScheme, SvmModel};
pub use quantized::{QuantizedMlp, QuantizedSvm};
