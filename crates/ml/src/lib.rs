//! # srt-ml — from-scratch learning substrate
//!
//! The Rust ML ecosystem is thin, and the paper treats its learners as
//! replaceable black boxes, so this crate implements everything the hybrid
//! model needs from first principles, with no native dependencies:
//!
//! * [`tree`] — CART decision trees: multi-output regression (variance
//!   reduction) and classification (Gini),
//! * [`forest`] — bagged random forests over those trees; the
//!   multi-output regressor is the paper's *distribution estimation model*
//!   backend and the classifier its *convolution-vs-estimation* gate,
//! * [`split`] — train/test splitting and k-fold cross-validation,
//! * [`metrics`] — a binary confusion matrix and its F1 and accuracy.
//!
//! All estimators are deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use srt_ml::dataset::Matrix;
//! use srt_ml::forest::{RandomForestRegressor, ForestConfig};
//!
//! // y = [x0 + x1, x0 * 0.5] — a 2-output regression.
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 0.0], vec![3.0, 1.0], vec![0.0, 0.0],
//!                             vec![1.5, 1.5], vec![2.5, 0.5], vec![0.5, 2.5], vec![3.0, 3.0]]).unwrap();
//! let y = Matrix::from_rows(&[vec![3.0, 0.5], vec![2.0, 1.0], vec![4.0, 1.5], vec![0.0, 0.0],
//!                             vec![3.0, 0.75], vec![3.0, 1.25], vec![3.0, 0.25], vec![6.0, 1.5]]).unwrap();
//! let f = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), 7).unwrap();
//! let pred = f.predict_row(&[2.0, 1.0]);
//! assert_eq!(pred.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod codec;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod metrics;
pub mod split;
pub mod tree;

pub use dataset::Matrix;
pub use error::MlError;
pub use forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
pub use tree::{ClassificationTree, RegressionTree, TreeConfig};
