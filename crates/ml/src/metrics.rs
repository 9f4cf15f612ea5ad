//! Evaluation metrics for binary classification.

/// 2x2 confusion counts for binary labels.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Confusion {
    /// Truth 1, predicted 1.
    pub tp: usize,
    /// Truth 0, predicted 1.
    pub fp: usize,
    /// Truth 0, predicted 0.
    pub tn: usize,
    /// Truth 1, predicted 0.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies a binary confusion matrix.
    pub fn from_labels(truth: &[usize], pred: &[usize]) -> Confusion {
        assert_eq!(truth.len(), pred.len(), "confusion length mismatch");
        let mut c = Confusion::default();
        for (&t, &p) in truth.iter().zip(pred) {
            match (t, p) {
                (1, 1) => c.tp += 1,
                (0, 1) => c.fp += 1,
                (0, 0) => c.tn += 1,
                (1, 0) => c.fn_ += 1,
                _ => panic!("confusion matrix requires binary labels"),
            }
        }
        c
    }

    /// Precision `tp / (tp + fp)`, 0 when undefined.
    fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`, 0 when undefined.
    fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 — harmonic mean of precision and recall, 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_and_derived_scores() {
        let truth = [1, 1, 1, 0, 0, 0, 1, 0];
        let pred = [1, 1, 0, 0, 0, 1, 1, 0];
        let c = Confusion::from_labels(&truth, &pred);
        assert_eq!(c.tp, 3);
        assert_eq!(c.fn_, 1);
        assert_eq!(c.fp, 1);
        assert_eq!(c.tn, 3);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.recall() - 0.75).abs() < 1e-12);
        assert!((c.f1() - 0.75).abs() < 1e-12);
        assert!((c.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_confusion_is_zero_not_nan() {
        let c = Confusion::from_labels(&[0, 0], &[0, 0]);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Confusion::from_labels(&[1], &[1, 0]);
    }
}
