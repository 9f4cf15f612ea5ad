//! Binary snapshot format for trained [`HybridModel`]s.
//!
//! Train once, ship the model: a versioned, magic-tagged container around
//! the estimator forest and the gate classifier, suitable for embedding
//! next to a serialized road network (`srt_graph::io`). No serde format
//! crate exists in this dependency set, so the layout is hand-rolled on
//! `bytes` with bounds-checked decoding throughout.
//!
//! ```text
//! magic   u32   0x53524D4F ("SRMO")
//! version u32   3
//! bins    u32
//! estimator  (see DistributionEstimator::write_bytes)
//! classifier (see DependenceClassifier::write_bytes)
//! calib_flag u8   0 = absent, 1 = present
//! calibration     (if present; see DominanceCalibration::write_bytes)
//! env_flag   u8   0 = absent, 1 = present
//! envelope        (if present; see SupportEnvelope::write_bytes)
//! ```
//!
//! Only version 3 decodes; older headers are refused as unsupported. A
//! snapshot with either flag at 0 yields a model with
//! `calibration: None` / `envelope: None`, for which the router's margin
//! dominance and certified-envelope bound degenerate to their most
//! conservative forms.

use crate::error::CoreError;
use crate::model::calibration::DominanceCalibration;
use crate::model::classifier::DependenceClassifier;
use crate::model::envelope::SupportEnvelope;
use crate::model::estimator::DistributionEstimator;
use crate::model::hybrid::HybridModel;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x5352_4D4F;
const VERSION: u32 = 3;
/// Oldest snapshot version this decoder accepts: only the current one.
const MIN_VERSION: u32 = 3;

/// Serializes a trained hybrid model.
pub fn to_bytes(model: &HybridModel) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(model.bins as u32);
    model.estimator.write_bytes(&mut buf);
    model.classifier.write_bytes(&mut buf);
    match &model.calibration {
        Some(cal) => {
            buf.put_u8(1);
            cal.write_bytes(&mut buf);
        }
        None => buf.put_u8(0),
    }
    match &model.envelope {
        Some(env) => {
            buf.put_u8(1);
            env.write_bytes(&mut buf);
        }
        None => buf.put_u8(0),
    }
    buf.freeze()
}

/// Deserializes a hybrid model snapshot.
///
/// # Errors
/// [`CoreError::Ml`] wrapping a `Corrupt` error on malformed payloads.
pub fn from_bytes(mut data: &[u8]) -> Result<HybridModel, CoreError> {
    let corrupt = |msg: String| CoreError::Ml(srt_ml::MlError::Corrupt(msg));
    if data.remaining() < 12 {
        return Err(corrupt("truncated model header".into()));
    }
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic 0x{magic:08x}")));
    }
    let version = data.get_u32_le();
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(corrupt(format!("unsupported model version {version}")));
    }
    let bins = data.get_u32_le() as usize;
    let estimator = DistributionEstimator::read_bytes(&mut data)?;
    let classifier = DependenceClassifier::read_bytes(&mut data)?;
    if estimator.bins() != bins {
        return Err(corrupt(format!(
            "container bins {bins} disagree with estimator bins {}",
            estimator.bins()
        )));
    }
    if data.remaining() < 1 {
        return Err(corrupt("truncated calibration flag".into()));
    }
    let calibration = match data.get_u8() {
        0 => None,
        1 => Some(DominanceCalibration::read_bytes(&mut data)?),
        flag => return Err(corrupt(format!("bad calibration flag {flag}"))),
    };
    if data.remaining() < 1 {
        return Err(corrupt("truncated envelope flag".into()));
    }
    let envelope = match data.get_u8() {
        0 => None,
        1 => Some(SupportEnvelope::read_bytes(&mut data)?),
        flag => return Err(corrupt(format!("bad envelope flag {flag}"))),
    };
    if !data.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", data.len())));
    }
    Ok(HybridModel {
        estimator,
        classifier,
        bins,
        calibration,
        envelope,
    })
}

/// Writes a model snapshot to `path` (the file a serving process
/// re-reads on `POST /reload`).
///
/// # Errors
/// [`CoreError::Io`] on any filesystem failure.
pub fn write_file(path: impl AsRef<std::path::Path>, model: &HybridModel) -> Result<(), CoreError> {
    let path = path.as_ref();
    std::fs::write(path, to_bytes(model))
        .map_err(|e| CoreError::Io(format!("writing {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::training::{train_hybrid, TrainingConfig};
    use srt_ml::forest::ForestConfig;
    use srt_synth::{SyntheticWorld, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static SyntheticWorld {
        static W: OnceLock<SyntheticWorld> = OnceLock::new();
        W.get_or_init(|| SyntheticWorld::build(WorldConfig::tiny()))
    }

    fn training() -> TrainingConfig {
        TrainingConfig {
            train_pairs: 120,
            test_pairs: 40,
            min_obs: 5,
            bins: 10,
            forest: ForestConfig {
                n_trees: 6,
                ..ForestConfig::default()
            },
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn forest_backed_model_round_trips() {
        let (model, _) = train_hybrid(world(), &training()).unwrap();
        let bytes = to_bytes(&model);
        let model2 = from_bytes(&bytes).unwrap();
        assert_eq!(model2.bins, model.bins);
        // The dominance calibration (margin eps et al.) survives the trip.
        assert!(model.calibration.is_some());
        assert_eq!(model2.calibration, model.calibration);
        // So does the support-mass envelope.
        assert!(model.envelope.is_some());
        assert_eq!(model2.envelope, model.envelope);

        // Identical predictions on a probe feature vector.
        let mut f = vec![0.0; crate::model::features::FEATURE_COUNT];
        f[0] = 60.0;
        f[10] = 30.0;
        assert_eq!(
            model.estimator.predict_masses(&f),
            model2.estimator.predict_masses(&f)
        );
        assert_eq!(
            model.classifier.prob_dependent(&f),
            model2.classifier.prob_dependent(&f)
        );
    }

    #[test]
    fn only_version_three_decodes() {
        use bytes::BufMut;
        let (model, _) = train_hybrid(world(), &training()).unwrap();
        // Header + estimator + classifier, then the two trailer flags.
        let snapshot = |version: u32, flags: &[u8]| {
            let mut buf = bytes::BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u32_le(version);
            buf.put_u32_le(model.bins as u32);
            model.estimator.write_bytes(&mut buf);
            model.classifier.write_bytes(&mut buf);
            buf.put_slice(flags);
            buf
        };
        // The v1 (no trailer) and v2 (calibration flag only) layouts are
        // refused by their header, whatever follows it.
        for (version, flags) in [(1, &[][..]), (2, &[0][..]), (2, &[0, 0][..])] {
            let err = from_bytes(&snapshot(version, flags)).unwrap_err();
            assert!(
                err.to_string().contains("unsupported model version"),
                "v{version}: {err}"
            );
        }
        // A v3 snapshot with both flags at 0 decodes to the degraded model.
        let mut bare = snapshot(3, &[0, 0]);
        let decoded = from_bytes(&bare).unwrap();
        assert_eq!(decoded.bins, model.bins);
        assert!(decoded.calibration.is_none(), "calibration flag 0");
        assert!(decoded.envelope.is_none(), "envelope flag 0");
        assert_eq!(to_bytes(&decoded)[..], bare[..]);
        // A trailing byte after it is refused.
        bare.put_u8(0);
        assert!(from_bytes(&bare).is_err());
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let (model, _) = train_hybrid(world(), &training()).unwrap();
        let bytes = to_bytes(&model);

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(from_bytes(&bad).is_err());

        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(from_bytes(&bad).is_err());

        // Truncations at many offsets.
        for cut in [0, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }

        // Trailing garbage.
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert!(from_bytes(&bad).is_err());
    }

    #[test]
    fn routed_answers_survive_the_round_trip() {
        use crate::cost::{CombinePolicy, HybridCost};
        use crate::routing::{EngineBuilder, Query, RouterConfig};
        use srt_synth::{DistanceCategory, QueryGenerator};

        let (model, _) = train_hybrid(world(), &training()).unwrap();
        let model2 = from_bytes(&to_bytes(&model)).unwrap();

        let w = world();
        let cost1 = HybridCost::from_ground_truth(w, &model, CombinePolicy::Hybrid);
        let cost2 = HybridCost::from_ground_truth(w, &model2, CombinePolicy::Hybrid);
        let r1 = EngineBuilder::new(cost1)
            .config(RouterConfig::default())
            .build();
        let r2 = EngineBuilder::new(cost2)
            .config(RouterConfig::default())
            .build();

        let mut qg = QueryGenerator::new(31);
        for q in qg.generate(&w.graph, &w.model, DistanceCategory::ZeroToOne, 4) {
            let a = r1.route(&Query::from(q)).unwrap();
            let b = r2.route(&Query::from(q)).unwrap();
            assert_eq!(a.probability, b.probability);
        }
    }
}
