//! The Hybrid Model: pair features, distribution estimator, dependence
//! classifier, the training pipeline, and the two post-training
//! certificates that keep pruning sound under the learned estimator —
//! the dominance-margin calibration and the support-mass envelope.

pub mod calibration;
pub mod classifier;
pub mod envelope;
pub mod estimator;
pub mod features;
pub mod hybrid;
pub mod io;
pub mod training;

pub use calibration::DominanceCalibration;
pub use envelope::SupportEnvelope;
pub use classifier::DependenceClassifier;
pub use estimator::DistributionEstimator;
pub use features::{
    pair_features, pair_features_partial, pair_features_view, PreSummary, FEATURE_COUNT,
};
pub use hybrid::{CombineOutcome, HybridModel};
