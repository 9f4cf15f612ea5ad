//! E1 — the paper's introductory airport table.
//!
//! "Travel Time Distributions of Two Paths to the Airport": with a
//! 60-minute deadline, P1 (0.9 on-time probability) beats P2 (0.8) even
//! though P2 has the smaller average travel time — the argument for
//! distribution-aware routing.

use crate::report::Table;
use srt_dist::Histogram;

/// The computed numbers of the intro example.
#[derive(Clone, Debug)]
pub struct IntroResult {
    /// `P(P1 <= 60)` — paper: 0.9.
    pub p1_on_time: f64,
    /// `P(P2 <= 60)` — paper: 0.8.
    pub p2_on_time: f64,
    /// Mean of P1 in minutes — paper: 53.
    pub p1_mean: f64,
    /// Mean of P2 in minutes — paper: 51.
    pub p2_mean: f64,
}

impl IntroResult {
    /// Which path a probability-maximizing router picks.
    pub fn probabilistic_choice(&self) -> &'static str {
        if self.p1_on_time >= self.p2_on_time {
            "P1"
        } else {
            "P2"
        }
    }

    /// Which path an average-travel-time router picks.
    pub fn mean_choice(&self) -> &'static str {
        if self.p1_mean <= self.p2_mean {
            "P1"
        } else {
            "P2"
        }
    }
}

/// The two paths exactly as tabulated in the paper.
fn paper_paths() -> (Histogram, Histogram) {
    let p1 = Histogram::new(40.0, 10.0, vec![0.3, 0.6, 0.1]).expect("paper table is valid");
    let p2 = Histogram::new(40.0, 10.0, vec![0.6, 0.2, 0.2]).expect("paper table is valid");
    (p1, p2)
}

/// Runs E1 and renders the comparison table.
pub fn run() -> (Table, IntroResult) {
    let (p1, p2) = paper_paths();
    let result = IntroResult {
        p1_on_time: p1.prob_within(60.0),
        p2_on_time: p2.prob_within(60.0),
        p1_mean: p1.mean(),
        p2_mean: p2.mean(),
    };

    let mut table = Table::new(
        "E1 — Two paths to the airport (deadline 60 min)",
        &["Path", "P(arrive ≤ 60)", "Mean (min)", "Chosen by"],
    );
    table.push_row(vec![
        "P1".into(),
        format!("{:.2}", result.p1_on_time),
        format!("{:.0}", result.p1_mean),
        if result.probabilistic_choice() == "P1" {
            "probabilistic routing".into()
        } else {
            String::new()
        },
    ]);
    table.push_row(vec![
        "P2".into(),
        format!("{:.2}", result.p2_on_time),
        format!("{:.0}", result.p2_mean),
        if result.mean_choice() == "P2" {
            "average-time routing".into()
        } else {
            String::new()
        },
    ]);
    (table, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_numbers_exactly() {
        let (_, r) = run();
        assert!((r.p1_on_time - 0.9).abs() < 1e-12);
        assert!((r.p2_on_time - 0.8).abs() < 1e-12);
        assert!((r.p1_mean - 53.0).abs() < 1e-9);
        assert!((r.p2_mean - 51.0).abs() < 1e-9);
    }

    #[test]
    fn the_two_routing_styles_disagree() {
        let (_, r) = run();
        assert_eq!(r.probabilistic_choice(), "P1");
        assert_eq!(r.mean_choice(), "P2");
    }

    #[test]
    fn table_has_both_paths() {
        let (t, _) = run();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 0), "P1");
        assert_eq!(t.cell(1, 1), "0.80");
    }
}
