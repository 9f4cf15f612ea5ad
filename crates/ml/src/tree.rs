//! CART decision trees: multi-output regression and classification.
//!
//! Both trees share a flat node array (`left/right` indices, leaves marked
//! by `left == NO_CHILD`) and an exhaustive scan over sorted feature values
//! to pick splits. Regression minimizes the summed squared error across
//! *all* outputs — exactly what a histogram-valued target needs; the
//! classifier minimizes Gini impurity and stores leaf class frequencies so
//! it can emit probabilities.

use crate::codec::{get_count, get_f64, get_f64_vec, get_u32};
use crate::dataset::Matrix;
use crate::error::MlError;
use bytes::{BufMut, BytesMut};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

const NO_CHILD: u32 = u32::MAX;

/// Sanity caps for snapshot decoding.
const MAX_NODES: usize = 1 << 22;
const MAX_VALUES: usize = 1 << 16;
const MAX_FEATURES: usize = 1 << 20;

/// Hyper-parameters shared by both tree kinds.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples on each side of a split.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split; `None` scans all.
    pub max_features: Option<usize>,
    /// Minimum impurity decrease to accept a split.
    pub min_impurity_decrease: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            min_impurity_decrease: 1e-10,
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct TreeNode {
    feature: u32,
    threshold: f64,
    left: u32,
    right: u32,
    /// Mean target vector (regression) or class frequencies (classification).
    value: Vec<f64>,
}

impl TreeNode {
    fn is_leaf(&self) -> bool {
        self.left == NO_CHILD
    }

    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.feature);
        buf.put_f64_le(self.threshold);
        buf.put_u32_le(self.left);
        buf.put_u32_le(self.right);
        buf.put_u32_le(self.value.len() as u32);
        for &v in &self.value {
            buf.put_f64_le(v);
        }
    }

    fn read(data: &mut &[u8]) -> Result<TreeNode, MlError> {
        let feature = get_u32(data, "node feature")?;
        let threshold = get_f64(data, "node threshold")?;
        let left = get_u32(data, "node left")?;
        let right = get_u32(data, "node right")?;
        let n_values = get_count(data, MAX_VALUES, "node values")?;
        let value = get_f64_vec(data, n_values, "node value vector")?;
        Ok(TreeNode {
            feature,
            threshold,
            left,
            right,
            value,
        })
    }
}

/// Serializes a node array (shared by both tree kinds).
fn write_nodes(nodes: &[TreeNode], buf: &mut BytesMut) {
    buf.put_u32_le(nodes.len() as u32);
    for n in nodes {
        n.write(buf);
    }
}

/// Deserializes and structurally validates a node array.
fn read_nodes(data: &mut &[u8], n_features: usize) -> Result<Vec<TreeNode>, MlError> {
    let n = get_count(data, MAX_NODES, "tree nodes")?;
    if n == 0 {
        return Err(MlError::Corrupt("tree has no nodes".into()));
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(TreeNode::read(data)?);
    }
    for (i, node) in nodes.iter().enumerate() {
        if !node.is_leaf() {
            let (l, r) = (node.left as usize, node.right as usize);
            if l >= n || r >= n || node.right == NO_CHILD {
                return Err(MlError::Corrupt(format!("node {i} has dangling children")));
            }
            if node.feature as usize >= n_features {
                return Err(MlError::Corrupt(format!(
                    "node {i} splits on feature {} of {n_features}",
                    node.feature
                )));
            }
        }
    }
    Ok(nodes)
}

/// Accumulates split counts per feature (a simple, widely-used importance
/// proxy: how often the forest consults each feature).
fn accumulate_split_counts(nodes: &[TreeNode], counts: &mut [f64]) {
    for node in nodes {
        if !node.is_leaf() {
            counts[node.feature as usize] += 1.0;
        }
    }
}

fn walk<'a>(nodes: &'a [TreeNode], features: &[f64]) -> &'a TreeNode {
    let mut node = &nodes[0];
    while !node.is_leaf() {
        node = if features[node.feature as usize] <= node.threshold {
            &nodes[node.left as usize]
        } else {
            &nodes[node.right as usize]
        };
    }
    node
}

/// Interval walk: descends with partially-known features, taking *both*
/// branches whenever the split feature is `None`, and folds the reachable
/// leaf values element-wise into `(lo, hi)`. Every node is visited at most
/// once, so the cost is bounded by the tree size regardless of how many
/// features are unknown.
fn walk_bounds(nodes: &[TreeNode], features: &[Option<f64>], lo: &mut [f64], hi: &mut [f64]) {
    fn rec(nodes: &[TreeNode], at: u32, features: &[Option<f64>], lo: &mut [f64], hi: &mut [f64]) {
        let node = &nodes[at as usize];
        if node.is_leaf() {
            for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(&node.value) {
                *l = l.min(v);
                *h = h.max(v);
            }
            return;
        }
        match features[node.feature as usize] {
            Some(x) if x <= node.threshold => rec(nodes, node.left, features, lo, hi),
            Some(_) => rec(nodes, node.right, features, lo, hi),
            None => {
                rec(nodes, node.left, features, lo, hi);
                rec(nodes, node.right, features, lo, hi);
            }
        }
    }
    rec(nodes, 0, features, lo, hi);
}

/// [`walk_bounds`] for one output's upper end: folds the `class` value of
/// every reachable leaf into `hi` with `f64::max`, in the same order, so
/// the result equals `walk_bounds`'s `hi[class]` bit for bit.
fn walk_upper(nodes: &[TreeNode], at: u32, features: &[Option<f64>], class: usize, hi: &mut f64) {
    let node = &nodes[at as usize];
    if node.is_leaf() {
        *hi = hi.max(node.value[class]);
        return;
    }
    match features[node.feature as usize] {
        Some(x) if x <= node.threshold => walk_upper(nodes, node.left, features, class, hi),
        Some(_) => walk_upper(nodes, node.right, features, class, hi),
        None => {
            walk_upper(nodes, node.left, features, class, hi);
            walk_upper(nodes, node.right, features, class, hi);
        }
    }
}

/// Chooses the candidate features for one split.
fn candidate_features<R: Rng>(n_features: usize, cfg: &TreeConfig, rng: &mut R) -> Vec<usize> {
    match cfg.max_features {
        Some(k) if k < n_features => {
            let mut all: Vec<usize> = (0..n_features).collect();
            all.shuffle(rng);
            all.truncate(k.max(1));
            all
        }
        _ => (0..n_features).collect(),
    }
}

// ---------------------------------------------------------------------------
// Multi-output regression tree
// ---------------------------------------------------------------------------

/// A multi-output CART regression tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
    n_outputs: usize,
}

struct RegSplit {
    feature: usize,
    threshold: f64,
    score: f64, // SSE decrease
}

/// Sum of squared errors of `idx` rows around their mean, plus the mean.
fn sse_and_mean(y: &Matrix, idx: &[usize]) -> (f64, Vec<f64>) {
    let k = y.cols();
    let mut mean = vec![0.0; k];
    for &i in idx {
        for (m, v) in mean.iter_mut().zip(y.row(i)) {
            *m += v;
        }
    }
    let n = idx.len() as f64;
    for m in &mut mean {
        *m /= n;
    }
    let mut sse = 0.0;
    for &i in idx {
        for (m, v) in mean.iter().zip(y.row(i)) {
            let d = v - m;
            sse += d * d;
        }
    }
    (sse, mean)
}

fn best_regression_split<R: Rng>(
    x: &Matrix,
    y: &Matrix,
    idx: &[usize],
    cfg: &TreeConfig,
    parent_sse: f64,
    rng: &mut R,
) -> Option<RegSplit> {
    let k = y.cols();
    let n = idx.len();
    let mut best: Option<RegSplit> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);

    // Running left-side statistics, reused across features.
    let mut left_sum = vec![0.0; k];
    let mut left_sq = vec![0.0; k];
    let mut total_sum = vec![0.0; k];
    let mut total_sq = vec![0.0; k];
    for &i in idx {
        for (j, v) in y.row(i).iter().enumerate() {
            total_sum[j] += v;
            total_sq[j] += v * v;
        }
    }

    for f in candidate_features(x.cols(), cfg, rng) {
        order.clear();
        order.extend_from_slice(idx);
        order.sort_by(|&a, &b| {
            x.get(a, f)
                .partial_cmp(&x.get(b, f))
                .expect("finite feature values")
        });
        left_sum.iter_mut().for_each(|v| *v = 0.0);
        left_sq.iter_mut().for_each(|v| *v = 0.0);

        for (pos, &i) in order.iter().enumerate() {
            for (j, v) in y.row(i).iter().enumerate() {
                left_sum[j] += v;
                left_sq[j] += v * v;
            }
            let n_left = pos + 1;
            let n_right = n - n_left;
            if n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf {
                continue;
            }
            let v_here = x.get(i, f);
            let v_next = x.get(order[pos + 1], f);
            if v_next - v_here < 1e-12 {
                continue; // can't split between equal values
            }
            // SSE = sum(y²) - n * mean² per output.
            let mut child_sse = 0.0;
            for j in 0..k {
                let ls = left_sum[j];
                let lq = left_sq[j];
                let rs = total_sum[j] - ls;
                let rq = total_sq[j] - lq;
                child_sse += lq - ls * ls / n_left as f64;
                child_sse += rq - rs * rs / n_right as f64;
            }
            let score = parent_sse - child_sse;
            if score > cfg.min_impurity_decrease && best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(RegSplit {
                    feature: f,
                    threshold: 0.5 * (v_here + v_next),
                    score,
                });
            }
        }
    }
    best
}

impl RegressionTree {
    /// Fits a tree on rows `x` and multi-output targets `y`.
    pub fn fit<R: Rng>(
        x: &Matrix,
        y: &Matrix,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, MlError> {
        Self::fit_on(x, y, &(0..x.rows()).collect::<Vec<_>>(), cfg, rng)
    }

    /// Fits on a subset of rows (used by bagging).
    pub fn fit_on<R: Rng>(
        x: &Matrix,
        y: &Matrix,
        idx: &[usize],
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, MlError> {
        if x.rows() == 0 || idx.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if x.rows() != y.rows() {
            return Err(MlError::LengthMismatch {
                x_rows: x.rows(),
                y_rows: y.rows(),
            });
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: x.cols(),
            n_outputs: y.cols(),
        };
        let mut idx = idx.to_vec();
        tree.build(x, y, &mut idx, 0, cfg, rng);
        Ok(tree)
    }

    fn build<R: Rng>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        idx: &mut [usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> u32 {
        let (sse, mean) = sse_and_mean(y, idx);
        let me = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: NO_CHILD,
            right: NO_CHILD,
            value: mean,
        });

        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || sse <= 1e-12 {
            return me;
        }
        // If the sampled feature subset yields no valid split (e.g. all
        // sampled features constant on this node), fall back to scanning
        // every feature before giving up — otherwise sparse-signal
        // problems degenerate into premature leaves.
        let split = best_regression_split(x, y, idx, cfg, sse, rng).or_else(|| {
            if cfg.max_features.is_some_and(|k| k < x.cols()) {
                let full = TreeConfig {
                    max_features: None,
                    ..*cfg
                };
                best_regression_split(x, y, idx, &full, sse, rng)
            } else {
                None
            }
        });
        let Some(split) = split else {
            return me;
        };

        // Partition in place.
        let mid = partition(idx, |i| x.get(i, split.feature) <= split.threshold);
        if mid == 0 || mid == idx.len() {
            return me;
        }
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left = self.build(x, y, left_idx, depth + 1, cfg, rng);
        let right = self.build(x, y, right_idx, depth + 1, cfg, rng);
        let node = &mut self.nodes[me as usize];
        node.feature = split.feature as u32;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
        me
    }

    /// Predicts the output vector for one feature row.
    ///
    /// # Panics
    /// Panics if `features.len() != n_features` (programming error).
    pub fn predict_row(&self, features: &[f64]) -> &[f64] {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in RegressionTree::predict_row"
        );
        &walk(&self.nodes, features).value
    }

    /// Element-wise output bounds over every completion of a
    /// partially-known feature row (`None` = the feature may take any
    /// value): the both-branch interval walk, folding every
    /// reachable leaf's value vector into `(lo, hi)`. With an all-`None`
    /// row this is the tree's global per-output leaf range.
    ///
    /// # Panics
    /// Panics if `features.len() != n_features` (programming error).
    pub fn predict_bounds_row(&self, features: &[Option<f64>]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in RegressionTree::predict_bounds_row"
        );
        let mut lo = vec![f64::INFINITY; self.n_outputs];
        let mut hi = vec![f64::NEG_INFINITY; self.n_outputs];
        walk_bounds(&self.nodes, features, &mut lo, &mut hi);
        (lo, hi)
    }

    /// Number of nodes (diagnostic).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of outputs per prediction.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Adds this tree's split counts into `counts`
    /// (`counts.len() == n_features`).
    pub fn add_split_counts(&self, counts: &mut [f64]) {
        accumulate_split_counts(&self.nodes, counts);
    }

    /// Appends the binary snapshot of this tree to `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.n_features as u32);
        buf.put_u32_le(self.n_outputs as u32);
        write_nodes(&self.nodes, buf);
    }

    /// Decodes a tree previously written by [`RegressionTree::write_bytes`],
    /// advancing `data` past it.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, MlError> {
        let n_features = get_count(data, MAX_FEATURES, "tree n_features")?;
        let n_outputs = get_count(data, MAX_VALUES, "tree n_outputs")?;
        let nodes = read_nodes(data, n_features)?;
        for (i, node) in nodes.iter().enumerate() {
            if node.value.len() != n_outputs {
                return Err(MlError::Corrupt(format!(
                    "node {i} carries {} outputs, expected {n_outputs}",
                    node.value.len()
                )));
            }
        }
        Ok(RegressionTree {
            nodes,
            n_features,
            n_outputs,
        })
    }
}

/// Stable-ish in-place partition; returns the number of `true` elements.
fn partition<F: Fn(usize) -> bool>(idx: &mut [usize], pred: F) -> usize {
    // Simple two-buffer partition preserving relative order.
    let mut left = Vec::with_capacity(idx.len());
    let mut right = Vec::with_capacity(idx.len());
    for &i in idx.iter() {
        if pred(i) {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    let mid = left.len();
    idx[..mid].copy_from_slice(&left);
    idx[mid..].copy_from_slice(&right);
    mid
}

// ---------------------------------------------------------------------------
// Classification tree
// ---------------------------------------------------------------------------

/// A CART classification tree over dense labels `0..n_classes`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassificationTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
    n_classes: usize,
}

fn gini(counts: &[f64], n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
}

struct ClsSplit {
    feature: usize,
    threshold: f64,
    score: f64, // weighted Gini decrease
}

fn best_classification_split<R: Rng>(
    x: &Matrix,
    y: &[usize],
    idx: &[usize],
    n_classes: usize,
    cfg: &TreeConfig,
    rng: &mut R,
) -> Option<ClsSplit> {
    let n = idx.len();
    let mut total = vec![0.0; n_classes];
    for &i in idx {
        total[y[i]] += 1.0;
    }
    let parent = gini(&total, n as f64) * n as f64;

    let mut best: Option<ClsSplit> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut left = vec![0.0; n_classes];

    for f in candidate_features(x.cols(), cfg, rng) {
        order.clear();
        order.extend_from_slice(idx);
        order.sort_by(|&a, &b| {
            x.get(a, f)
                .partial_cmp(&x.get(b, f))
                .expect("finite feature values")
        });
        left.iter_mut().for_each(|v| *v = 0.0);

        for (pos, &i) in order.iter().enumerate() {
            left[y[i]] += 1.0;
            let n_left = pos + 1;
            let n_right = n - n_left;
            if n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf {
                continue;
            }
            let v_here = x.get(i, f);
            let v_next = x.get(order[pos + 1], f);
            if v_next - v_here < 1e-12 {
                continue;
            }
            let right: Vec<f64> = total.iter().zip(&left).map(|(t, l)| t - l).collect();
            let child = gini(&left, n_left as f64) * n_left as f64
                + gini(&right, n_right as f64) * n_right as f64;
            let score = parent - child;
            if score > cfg.min_impurity_decrease && best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(ClsSplit {
                    feature: f,
                    threshold: 0.5 * (v_here + v_next),
                    score,
                });
            }
        }
    }
    best
}

impl ClassificationTree {
    /// Fits a classification tree; labels must lie in `0..n_classes`.
    pub fn fit<R: Rng>(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, MlError> {
        Self::fit_on(
            x,
            y,
            &(0..x.rows()).collect::<Vec<_>>(),
            n_classes,
            cfg,
            rng,
        )
    }

    /// Fits on a subset of rows (used by bagging).
    pub fn fit_on<R: Rng>(
        x: &Matrix,
        y: &[usize],
        idx: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, MlError> {
        if x.rows() == 0 || idx.is_empty() || n_classes == 0 {
            return Err(MlError::EmptyDataset);
        }
        if x.rows() != y.len() {
            return Err(MlError::LengthMismatch {
                x_rows: x.rows(),
                y_rows: y.len(),
            });
        }
        if let Some(&bad) = y.iter().find(|&&l| l >= n_classes) {
            return Err(MlError::BadLabel(bad));
        }
        let mut tree = ClassificationTree {
            nodes: Vec::new(),
            n_features: x.cols(),
            n_classes,
        };
        let mut idx = idx.to_vec();
        tree.build(x, y, &mut idx, 0, cfg, rng);
        Ok(tree)
    }

    fn build<R: Rng>(
        &mut self,
        x: &Matrix,
        y: &[usize],
        idx: &mut [usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> u32 {
        let mut counts = vec![0.0; self.n_classes];
        for &i in idx.iter() {
            counts[y[i]] += 1.0;
        }
        let n = idx.len() as f64;
        let freqs: Vec<f64> = counts.iter().map(|c| c / n).collect();
        let impurity = gini(&counts, n);

        let me = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: NO_CHILD,
            right: NO_CHILD,
            value: freqs,
        });

        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || impurity <= 1e-12 {
            return me;
        }
        // Same fallback as the regression tree: rescue nodes whose sampled
        // feature subset happened to be uninformative.
        let split = best_classification_split(x, y, idx, self.n_classes, cfg, rng).or_else(|| {
            if cfg.max_features.is_some_and(|k| k < x.cols()) {
                let full = TreeConfig {
                    max_features: None,
                    ..*cfg
                };
                best_classification_split(x, y, idx, self.n_classes, &full, rng)
            } else {
                None
            }
        });
        let Some(split) = split else {
            return me;
        };
        let mid = partition(idx, |i| x.get(i, split.feature) <= split.threshold);
        if mid == 0 || mid == idx.len() {
            return me;
        }
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left = self.build(x, y, left_idx, depth + 1, cfg, rng);
        let right = self.build(x, y, right_idx, depth + 1, cfg, rng);
        let node = &mut self.nodes[me as usize];
        node.feature = split.feature as u32;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
        me
    }

    /// Upper bound on the probability of `class` for a partially-known
    /// feature row: the largest `class` value over every leaf reachable
    /// when the `None` features are allowed to take any value. Tight per
    /// tree (each reachable leaf is realized by some completion of the
    /// unknown features), and allocation-free.
    ///
    /// This powers the router's convolution certificate: with only the
    /// pre-distribution features unknown, an upper bound on
    /// `P(dependent)` below the gate threshold proves the classifier
    /// picks convolution for *every* possible path prefix.
    ///
    /// # Panics
    /// Panics if `features.len() != n_features` or `class >= n_classes`
    /// (programming errors).
    pub fn proba_upper(&self, features: &[Option<f64>], class: usize) -> f64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in ClassificationTree::proba_upper"
        );
        assert!(class < self.n_classes, "class out of range");
        let mut hi = f64::NEG_INFINITY;
        walk_upper(&self.nodes, 0, features, class, &mut hi);
        hi
    }

    /// Element-wise `(min, max)` class-probability bounds over every
    /// reachable leaf: the full interval walk that
    /// [`ClassificationTree::proba_upper`] narrows to one class's upper
    /// end, kept as its test reference.
    #[cfg(test)]
    pub(crate) fn predict_proba_bounds_row(
        &self,
        features: &[Option<f64>],
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in ClassificationTree::predict_proba_bounds_row"
        );
        let mut lo = vec![f64::INFINITY; self.n_classes];
        let mut hi = vec![f64::NEG_INFINITY; self.n_classes];
        walk_bounds(&self.nodes, features, &mut lo, &mut hi);
        (lo, hi)
    }

    /// Class-probability vector for one feature row.
    pub fn predict_proba_row(&self, features: &[f64]) -> &[f64] {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature count mismatch in ClassificationTree::predict_proba_row"
        );
        &walk(&self.nodes, features).value
    }

    /// Most probable class for one feature row.
    pub fn predict_row(&self, features: &[f64]) -> usize {
        argmax(self.predict_proba_row(features))
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of nodes (diagnostic).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Adds this tree's split counts into `counts`
    /// (`counts.len() == n_features`).
    pub fn add_split_counts(&self, counts: &mut [f64]) {
        accumulate_split_counts(&self.nodes, counts);
    }

    /// Appends the binary snapshot of this tree to `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.n_features as u32);
        buf.put_u32_le(self.n_classes as u32);
        write_nodes(&self.nodes, buf);
    }

    /// Decodes a tree previously written by
    /// [`ClassificationTree::write_bytes`], advancing `data` past it.
    pub fn read_bytes(data: &mut &[u8]) -> Result<Self, MlError> {
        let n_features = get_count(data, MAX_FEATURES, "tree n_features")?;
        let n_classes = get_count(data, MAX_VALUES, "tree n_classes")?;
        let nodes = read_nodes(data, n_features)?;
        for (i, node) in nodes.iter().enumerate() {
            if node.value.len() != n_classes {
                return Err(MlError::Corrupt(format!(
                    "node {i} carries {} class frequencies, expected {n_classes}",
                    node.value.len()
                )));
            }
            // Frequencies are finite and non-negative; the forest's
            // early-exit bound test relies on it (partial sums of leaf
            // values never decrease).
            if let Some(v) = node.value.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
                return Err(MlError::Corrupt(format!(
                    "node {i} carries class frequency {v}"
                )));
            }
        }
        Ok(ClassificationTree {
            nodes,
            n_features,
            n_classes,
        })
    }
}

/// Index of the maximum element (first on ties).
pub(crate) fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// y = step function of x0: easy single-split problem.
    fn step_data() -> (Matrix, Matrix) {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|i| if i < 20 { vec![1.0] } else { vec![5.0] })
            .collect();
        (
            Matrix::from_rows(&rows).unwrap(),
            Matrix::from_rows(&targets).unwrap(),
        )
    }

    #[test]
    fn regression_tree_learns_a_step() {
        let (x, y) = step_data();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng()).unwrap();
        assert!((t.predict_row(&[3.0, 0.0])[0] - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[33.0, 0.0])[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_multi_output() {
        // Outputs: [x0 > 10, x0 <= 10] indicator-ish.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                if i <= 10 {
                    vec![0.0, 1.0]
                } else {
                    vec![1.0, 0.0]
                }
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y = Matrix::from_rows(&targets).unwrap();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng()).unwrap();
        let p = t.predict_row(&[2.0]);
        assert!(p[0] < 0.2 && p[1] > 0.8);
        let p = t.predict_row(&[25.0]);
        assert!(p[0] > 0.8 && p[1] < 0.2);
        assert_eq!(t.n_outputs(), 2);
    }

    #[test]
    fn depth_zero_tree_predicts_the_mean() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let t = RegressionTree::fit(&x, &y, &cfg, &mut rng()).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert!((t.predict_row(&[0.0, 0.0])[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            min_samples_leaf: 25, // no split can satisfy both sides
            ..TreeConfig::default()
        };
        let t = RegressionTree::fit(&x, &y, &cfg, &mut rng()).unwrap();
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = Matrix::from_rows(&vec![vec![7.0]; 4]).unwrap();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng()).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict_row(&[9.0])[0], 7.0);
    }

    #[test]
    fn mismatched_rows_error() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(matches!(
            RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng()),
            Err(MlError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn classification_tree_learns_threshold() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let t =
            ClassificationTree::fit(&x, &labels, 2, &TreeConfig::default(), &mut rng()).unwrap();
        assert_eq!(t.predict_row(&[5.0]), 0);
        assert_eq!(t.predict_row(&[35.0]), 1);
        let p = t.predict_proba_row(&[5.0]);
        assert!(p[0] > 0.9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classification_rejects_out_of_range_labels() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let err = ClassificationTree::fit(&x, &[0, 5], 2, &TreeConfig::default(), &mut rng())
            .unwrap_err();
        assert!(matches!(err, MlError::BadLabel(5)));
    }

    #[test]
    fn classification_and_needs_depth_two() {
        // label = (a > 0.5) AND (b > 0.5): greedy CART needs two levels.
        // (XOR is intentionally not tested: no single greedy split improves
        // Gini there, which is a known CART limitation.)
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..10 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                labels.push(usize::from(a > 0.5 && b > 0.5));
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let t =
            ClassificationTree::fit(&x, &labels, 2, &TreeConfig::default(), &mut rng()).unwrap();
        assert_eq!(t.predict_row(&[1.0, 1.0]), 1);
        assert_eq!(t.predict_row(&[1.0, 0.0]), 0);
        assert_eq!(t.predict_row(&[0.0, 1.0]), 0);
    }

    #[test]
    fn feature_subsampling_still_trains() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            max_features: Some(1),
            ..TreeConfig::default()
        };
        let t = RegressionTree::fit(&x, &y, &cfg, &mut rng()).unwrap();
        assert!(t.num_nodes() >= 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
    }

    #[test]
    fn proba_bounds_bracket_every_completion() {
        // Label depends on both features; bound over an unknown feature
        // must cover both concrete completions.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = f64::from(i % 2);
            let b = f64::from(i / 20);
            rows.push(vec![a, b]);
            labels.push(usize::from(a > 0.5 && b > 0.5));
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let t =
            ClassificationTree::fit(&x, &labels, 2, &TreeConfig::default(), &mut rng()).unwrap();

        // Fully known rows: bounds collapse to the point prediction.
        for probe in [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]] {
            let (lo, hi) = t.predict_proba_bounds_row(&[Some(probe[0]), Some(probe[1])]);
            let exact = t.predict_proba_row(&probe);
            for c in 0..2 {
                assert!(lo[c] <= exact[c] + 1e-12 && exact[c] <= hi[c] + 1e-12);
                assert!((lo[c] - hi[c]).abs() < 1e-12);
            }
        }

        // Feature 1 unknown: the bounds must bracket both completions.
        for a in [0.0, 1.0] {
            let (lo, hi) = t.predict_proba_bounds_row(&[Some(a), None]);
            for b in [0.0, 1.0] {
                let exact = t.predict_proba_row(&[a, b]);
                for c in 0..2 {
                    assert!(
                        lo[c] <= exact[c] + 1e-12 && exact[c] <= hi[c] + 1e-12,
                        "a={a} b={b} class {c}: {} not in [{}, {}]",
                        exact[c],
                        lo[c],
                        hi[c]
                    );
                }
            }
        }

        // With a = 0 the conjunction is false whatever b is: the upper
        // bound on the positive class stays below certainty of class 1.
        let (_, hi) = t.predict_proba_bounds_row(&[Some(0.0), None]);
        assert!(hi[1] < 0.5, "a=0 should certify the negative class");

        // Everything unknown: bounds span all leaves but stay in [0, 1].
        let (lo, hi) = t.predict_proba_bounds_row(&[None, None]);
        assert!(lo[1] <= 0.0 + 1e-12 && hi[1] >= 1.0 - 1e-12);
        assert!(lo.iter().chain(hi.iter()).all(|p| (0.0..=1.0).contains(p)));

        // The one-class upper walk is the reference's upper end, bit for
        // bit, on every row above.
        for row in [
            [Some(0.0), Some(0.0)],
            [Some(1.0), Some(1.0)],
            [Some(1.0), Some(0.0)],
            [Some(0.0), None],
            [Some(1.0), None],
            [None, None],
        ] {
            let (_, hi) = t.predict_proba_bounds_row(&row);
            for (c, h) in hi.iter().enumerate() {
                assert_eq!(t.proba_upper(&row, c).to_bits(), h.to_bits(), "{row:?}");
            }
        }
    }

    /// The decoder refuses a negative or non-finite class frequency: the
    /// forest's early-exit upper bound is exact only for non-negative
    /// leaf values.
    #[test]
    fn classification_tree_decode_rejects_negative_and_nan_frequencies() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
        let t = ClassificationTree::fit(&x, &[0, 0, 1, 1], 2, &TreeConfig::default(), &mut rng())
            .unwrap();
        let decode = |tree: &ClassificationTree| {
            let mut buf = BytesMut::new();
            tree.write_bytes(&mut buf);
            ClassificationTree::read_bytes(&mut &buf[..])
        };
        assert!(decode(&t).is_ok());
        for bad in [-0.25, f64::NAN, f64::INFINITY] {
            let mut corrupt = t.clone();
            let leaf = corrupt.nodes.iter().position(TreeNode::is_leaf).unwrap();
            corrupt.nodes[leaf].value[1] = bad;
            assert!(
                matches!(decode(&corrupt), Err(MlError::Corrupt(_))),
                "frequency {bad} decoded"
            );
        }
    }

    #[test]
    fn depth_reports_reasonably() {
        fn depth(nodes: &[TreeNode], at: u32) -> usize {
            let n = &nodes[at as usize];
            if n.is_leaf() {
                0
            } else {
                1 + depth(nodes, n.left).max(depth(nodes, n.right))
            }
        }
        let (x, y) = step_data();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default(), &mut rng()).unwrap();
        assert!(depth(&t.nodes, 0) >= 1);
        assert!(depth(&t.nodes, 0) <= 12);
    }
}
