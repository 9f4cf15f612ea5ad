//! Failure injection: random corruption of the binary snapshot formats
//! must always produce a clean error (or a valid decode for benign
//! mutations) — never a panic, hang or absurd allocation. The same
//! corpus drives the hot-swap admission path: a corrupt v3 snapshot fed
//! to [`RoutingEngine::swap_model_bytes`] must be rejected with the old
//! epoch still serving bitwise-identically, and a benign mutation that
//! decodes must publish exactly one new epoch. A snapshot naming the
//! retired logistic-regression gate (classifier tag `1`) is rejected the
//! same way.

use proptest::prelude::*;
use std::sync::OnceLock;
use stochastic_routing::core::model::io as model_io;
use stochastic_routing::core::model::training::{train_hybrid, TrainingConfig};
use stochastic_routing::core::routing::{EngineBuilder, Query, RouteResult, RoutingEngine};
use stochastic_routing::core::{CombinePolicy, CoreError, HybridCost, HybridModel};
use stochastic_routing::graph::io as graph_io;
use stochastic_routing::ml::forest::ForestConfig;
use stochastic_routing::ml::MlError;
use stochastic_routing::synth::{DistanceCategory, QueryGenerator, SyntheticWorld, WorldConfig};

fn world() -> &'static SyntheticWorld {
    static W: OnceLock<SyntheticWorld> = OnceLock::new();
    W.get_or_init(|| SyntheticWorld::build(WorldConfig::tiny()))
}

fn model() -> &'static HybridModel {
    static M: OnceLock<HybridModel> = OnceLock::new();
    M.get_or_init(|| {
        let cfg = TrainingConfig {
            train_pairs: 80,
            test_pairs: 30,
            min_obs: 5,
            bins: 8,
            forest: ForestConfig {
                n_trees: 4,
                ..ForestConfig::default()
            },
            ..TrainingConfig::default()
        };
        let (model, _) = train_hybrid(world(), &cfg).expect("fixture trains");
        // The swap-rejection cases target the full v3 layout.
        assert!(model.calibration.is_some() && model.envelope.is_some());
        model
    })
}

fn model_snapshot() -> &'static [u8] {
    static B: OnceLock<Vec<u8>> = OnceLock::new();
    B.get_or_init(|| model_io::to_bytes(model()).to_vec())
}

/// A fresh engine over the fixture model, plus a probe query and its
/// epoch-0 answer (the drift detector for rejected swaps).
fn probe_engine() -> (RoutingEngine, Query, &'static RouteResult) {
    static PROBE: OnceLock<(Query, RouteResult)> = OnceLock::new();
    let engine = EngineBuilder::new(HybridCost::from_ground_truth(
        world(),
        model(),
        CombinePolicy::Hybrid,
    ))
    .build();
    let (q, reference) = PROBE.get_or_init(|| {
        let w = world();
        let q = Query::from(
            &QueryGenerator::new(0x5FA2).generate(
                &w.graph,
                &w.model,
                DistanceCategory::ZeroToOne,
                1,
            )[0],
        );
        let r = EngineBuilder::new(HybridCost::from_ground_truth(
            w,
            model(),
            CombinePolicy::Hybrid,
        ))
        .build()
        .route(&q)
        .expect("probe query routes");
        (q, r)
    });
    (engine, *q, reference)
}

fn assert_probe_unchanged(engine: &RoutingEngine, q: &Query, reference: &RouteResult) {
    let r = engine.route(q).expect("probe stays routable");
    assert_eq!(r.probability.to_bits(), reference.probability.to_bits());
    assert_eq!(
        r.path.as_ref().map(|p| (&p.nodes, &p.edges)),
        reference.path.as_ref().map(|p| (&p.nodes, &p.edges))
    );
    assert_eq!(r.distribution, reference.distribution);
}

fn graph_snapshot() -> &'static [u8] {
    static B: OnceLock<Vec<u8>> = OnceLock::new();
    B.get_or_init(|| graph_io::to_bytes(&world().graph).to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte flips anywhere in a model snapshot never panic.
    #[test]
    fn model_decoder_survives_byte_flips(offset in 0usize..1 << 16, bit in 0u8..8) {
        let mut data = model_snapshot().to_vec();
        let off = offset % data.len();
        data[off] ^= 1 << bit;
        // Either a clean decode (benign flip, e.g. in a float mantissa) or
        // a clean error — the point is that it returns.
        let _ = model_io::from_bytes(&data);
    }

    /// Truncations of a model snapshot never panic.
    #[test]
    fn model_decoder_survives_truncation(cut in 0usize..1 << 16) {
        let data = model_snapshot();
        let cut = cut % data.len();
        prop_assert!(model_io::from_bytes(&data[..cut]).is_err());
    }

    /// Byte flips anywhere in a graph snapshot never panic.
    #[test]
    fn graph_decoder_survives_byte_flips(offset in 0usize..1 << 16, bit in 0u8..8) {
        let mut data = graph_snapshot().to_vec();
        let off = offset % data.len();
        data[off] ^= 1 << bit;
        let _ = graph_io::from_bytes(&data);
    }

    /// Random garbage is rejected by both decoders.
    #[test]
    fn decoders_reject_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = model_io::from_bytes(&data);
        let _ = graph_io::from_bytes(&data);
    }

    /// Hot-swapping a byte-flipped v3 snapshot either publishes exactly
    /// one new epoch (benign flip that still decodes) or is rejected
    /// with the old epoch serving bitwise-identically — never a crash,
    /// never a half-applied model.
    #[test]
    fn swap_survives_byte_flips(offset in 0usize..1 << 16, bit in 0u8..8) {
        let mut data = model_snapshot().to_vec();
        let off = offset % data.len();
        data[off] ^= 1 << bit;
        let (engine, q, reference) = probe_engine();
        match engine.swap_model_bytes(&data) {
            Ok(epoch) => {
                prop_assert_eq!(epoch, 1);
                prop_assert_eq!(engine.epoch(), 1);
                // A benign flip decodes to *some* valid model; the swap
                // must still leave the engine answering.
                let _ = engine.route(&q).expect("engine serves on the new epoch");
            }
            Err(_) => {
                prop_assert_eq!(engine.epoch(), 0);
                assert_probe_unchanged(&engine, &q, reference);
            }
        }
    }

    /// Truncated v3 snapshots never swap: typed rejection, epoch
    /// unchanged, answers drift-free.
    #[test]
    fn swap_rejects_truncation(cut in 0usize..1 << 16) {
        let data = model_snapshot();
        let cut = cut % data.len();
        let (engine, q, reference) = probe_engine();
        prop_assert!(engine.swap_model_bytes(&data[..cut]).is_err());
        prop_assert_eq!(engine.epoch(), 0);
        assert_probe_unchanged(&engine, &q, reference);
    }
}

/// The fixture model as a hand-assembled v3 snapshot whose gate carries
/// classifier tag `gate_tag` (`0` = the forest gate, the only one left).
fn snapshot_with_gate_tag(gate_tag: u8) -> Vec<u8> {
    use bytes::{BufMut, BytesMut};
    let m = model();
    let mut gate = BytesMut::new();
    m.classifier.write_bytes(&mut gate);
    let mut gate = gate.to_vec();
    // Gate layout: threshold f64, then the one-byte backend tag.
    assert_eq!(gate[8], 0, "the forest gate writes tag 0");
    gate[8] = gate_tag;

    let mut buf = BytesMut::new();
    buf.put_u32_le(0x5352_4D4F); // magic "SRMO"
    buf.put_u32_le(3); // version
    buf.put_u32_le(m.bins as u32);
    m.estimator.write_bytes(&mut buf);
    buf.put_slice(&gate);
    buf.put_u8(1);
    m.calibration
        .as_ref()
        .expect("fixture calibrates")
        .write_bytes(&mut buf);
    buf.put_u8(1);
    m.envelope
        .as_ref()
        .expect("fixture has an envelope")
        .write_bytes(&mut buf);
    buf.to_vec()
}

#[test]
fn retired_gate_tag_is_rejected_and_the_old_epoch_keeps_serving() {
    // The assembly itself is the encoder's layout: tag 0 reproduces it.
    assert_eq!(snapshot_with_gate_tag(0), model_snapshot());

    let retired = snapshot_with_gate_tag(1);
    match model_io::from_bytes(&retired) {
        Err(CoreError::Ml(MlError::Corrupt(msg))) => assert!(
            msg.contains("unknown classifier backend tag 1"),
            "untyped rejection: {msg}"
        ),
        Err(other) => panic!("wrong error for the retired tag: {other:?}"),
        Ok(_) => panic!("a snapshot with the retired gate tag decoded"),
    }

    let (engine, q, reference) = probe_engine();
    assert!(engine.swap_model_bytes(&retired).is_err());
    assert_eq!(engine.epoch(), 0);
    assert_probe_unchanged(&engine, &q, reference);
}
