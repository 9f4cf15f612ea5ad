//! A2 — bucket-count sensitivity.
//!
//! The histogram bucket budget `B` is the resource-control knob of the
//! whole stack (it caps convolution output, estimator width and routing
//! labels). This sweep retrains the hybrid model at several `B` and
//! reports the held-out KL — accuracy should improve with `B` and then
//! flatten, while cost grows.

use crate::report::Table;
use crate::setup::EvalContext;
use srt_core::model::training::{train_hybrid, TrainingConfig};

/// Result at one bucket count.
#[derive(Clone, Debug)]
pub struct BucketRow {
    /// Bucket count `B`.
    pub bins: usize,
    /// Mean held-out KL of the hybrid model.
    pub kl_hybrid: f64,
    /// Mean held-out KL of pure convolution.
    pub kl_convolution: f64,
}

/// Runs A2 for the given bucket counts (retrains per count).
pub fn run(ctx: &EvalContext, bucket_counts: &[usize]) -> (Table, Vec<BucketRow>) {
    let mut rows = Vec::new();
    let mut table = Table::new(
        "A2 — Bucket-count sensitivity (held-out KL)",
        &["Buckets", "KL hybrid", "KL convolution"],
    );
    for &bins in bucket_counts {
        let cfg = TrainingConfig {
            bins,
            ..ctx.training
        };
        let (_, report) = train_hybrid(&ctx.world, &cfg).expect("bucket sweep trains");
        table.push_row(vec![
            format!("{bins}"),
            format!("{:.4}", report.kl_hybrid_mean),
            format!("{:.4}", report.kl_convolution_mean),
        ]);
        rows.push(BucketRow {
            bins,
            kl_hybrid: report.kl_hybrid_mean,
            kl_convolution: report.kl_convolution_mean,
        });
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_context, Scale};

    #[test]
    fn sweep_produces_one_row_per_count() {
        let ctx = build_context(Scale::Tiny);
        let (t, rows) = run(&ctx, &[5, 10]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(rows[0].bins, 5);
        assert_eq!(rows[1].bins, 10);
        for r in &rows {
            assert!(r.kl_hybrid.is_finite());
            assert!(
                r.kl_hybrid <= r.kl_convolution * 1.15,
                "hybrid worse at B={}",
                r.bins
            );
        }
    }
}
