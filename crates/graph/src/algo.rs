//! Classical graph algorithms over [`RoadGraph`].
//!
//! All searches take the edge weight as a closure `Fn(EdgeId) -> f64`, so
//! the same machinery serves free-flow times (optimistic bounds), expected
//! times (baseline routing), and unit weights (hop counts). Weights must be
//! non-negative and finite; `f64::INFINITY` marks unreachable vertices in
//! results.

use crate::csr::RoadGraph;
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A concrete path: vertex sequence plus the edges connecting them
/// (`nodes.len() == edges.len() + 1`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Path {
    /// Visited vertices, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed edges, in travel order.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// The path's source vertex.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// The path's final vertex.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a single-vertex path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total weight under `weight`.
    pub fn cost<W: Fn(EdgeId) -> f64>(&self, weight: W) -> f64 {
        self.edges.iter().map(|&e| weight(e)).sum()
    }

    /// Validates internal consistency against `g`: consecutive edges share
    /// endpoints and `nodes` mirrors `edges`.
    pub fn validate(&self, g: &RoadGraph) -> Result<(), GraphError> {
        if self.nodes.len() != self.edges.len() + 1 {
            return Err(GraphError::Corrupt(format!(
                "path has {} nodes but {} edges",
                self.nodes.len(),
                self.edges.len()
            )));
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if !g.contains_edge(e) {
                return Err(GraphError::InvalidEdge(e));
            }
            let (from, to) = g.edge_endpoints(e);
            if from != self.nodes[i] || to != self.nodes[i + 1] {
                return Err(GraphError::Corrupt(format!(
                    "edge {e} does not connect {} -> {}",
                    self.nodes[i],
                    self.nodes[i + 1]
                )));
            }
        }
        Ok(())
    }
}

#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    priority: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need min-priority first.
        other
            .priority
            .partial_cmp(&self.priority)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a (forward) Dijkstra run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: NodeId,
    /// `dist[v]` = shortest distance from the source, `INFINITY` if unreachable.
    pub dist: Vec<f64>,
    /// Incoming tree edge of each settled vertex.
    pub pred_edge: Vec<Option<EdgeId>>,
    pred_node: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The search source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance to `v` (`INFINITY` if unreachable).
    pub fn distance(&self, v: NodeId) -> f64 {
        self.dist[v.index()]
    }

    /// Reconstructs the shortest path to `target`, or `None` if unreachable.
    pub fn extract_path(&self, target: NodeId) -> Option<Path> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut v = target;
        while let (Some(e), Some(p)) = (self.pred_edge[v.index()], self.pred_node[v.index()]) {
            edges.push(e);
            nodes.push(p);
            v = p;
        }
        nodes.reverse();
        edges.reverse();
        debug_assert_eq!(nodes[0], self.source);
        Some(Path { nodes, edges })
    }
}

/// Reusable Dijkstra state for query-serving loops: the per-node arrays,
/// the heap, and a touched list so a run resets in time proportional to
/// the vertices it actually visited, not the graph size. One scratch
/// serves any number of sequential [`DijkstraScratch::run`] calls without
/// allocating per query (after the first run on a given graph size).
///
/// The traversal — heap ordering, relaxation order, early exit — is
/// *identical* to [`dijkstra`], so results are bitwise-equal; the
/// routing engine's determinism tests rely on that.
pub struct DijkstraScratch {
    dist: Vec<f64>,
    pred_edge: Vec<Option<EdgeId>>,
    pred_node: Vec<Option<NodeId>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    touched: Vec<NodeId>,
    source: NodeId,
}

impl Default for DijkstraScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DijkstraScratch {
    /// An empty scratch; arrays are sized lazily on the first run.
    pub fn new() -> Self {
        DijkstraScratch {
            dist: Vec::new(),
            pred_edge: Vec::new(),
            pred_node: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            source: NodeId(0),
        }
    }

    /// Runs Dijkstra from `source` (early exit once `target`, if given,
    /// settles), reusing this scratch's buffers. Results are read back
    /// through [`DijkstraScratch::distance`] /
    /// [`DijkstraScratch::extract_path`] until the next run.
    pub fn run<W>(&mut self, g: &RoadGraph, source: NodeId, target: Option<NodeId>, weight: W)
    where
        W: Fn(EdgeId) -> f64,
    {
        let n = g.num_nodes();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.pred_edge.resize(n, None);
            self.pred_node.resize(n, None);
            self.settled.resize(n, false);
        }
        for &v in &self.touched {
            let i = v.index();
            self.dist[i] = f64::INFINITY;
            self.pred_edge[i] = None;
            self.pred_node[i] = None;
            self.settled[i] = false;
        }
        self.touched.clear();
        self.heap.clear();
        self.source = source;

        self.dist[source.index()] = 0.0;
        self.touched.push(source);
        self.heap.push(HeapEntry {
            priority: 0.0,
            node: source,
        });

        while let Some(HeapEntry { priority, node }) = self.heap.pop() {
            if self.settled[node.index()] {
                continue;
            }
            self.settled[node.index()] = true;
            if Some(node) == target {
                break;
            }
            for (e, head) in g.out_edges(node) {
                let w = weight(e);
                debug_assert!(w >= 0.0 && w.is_finite(), "invalid edge weight {w}");
                let nd = priority + w;
                let hi = head.index();
                if nd < self.dist[hi] {
                    if self.dist[hi].is_infinite() && self.pred_edge[hi].is_none() {
                        self.touched.push(head);
                    }
                    self.dist[hi] = nd;
                    self.pred_edge[hi] = Some(e);
                    self.pred_node[hi] = Some(node);
                    self.heap.push(HeapEntry {
                        priority: nd,
                        node: head,
                    });
                }
            }
        }
    }

    /// Distance of the last run's source to `v` (`INFINITY` if `v` was
    /// not reached).
    pub fn distance(&self, v: NodeId) -> f64 {
        self.dist.get(v.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// Reconstructs the last run's shortest path to `target`, or `None`
    /// if unreachable.
    pub fn extract_path(&self, target: NodeId) -> Option<Path> {
        if !self.distance(target).is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut v = target;
        while let (Some(e), Some(p)) = (self.pred_edge[v.index()], self.pred_node[v.index()]) {
            edges.push(e);
            nodes.push(p);
            v = p;
        }
        nodes.reverse();
        edges.reverse();
        debug_assert_eq!(nodes[0], self.source);
        Some(Path { nodes, edges })
    }
}

/// Dijkstra from `source`; stops early once `target` (if given) settles.
///
/// `weight` must return non-negative finite values.
pub fn dijkstra<W>(
    g: &RoadGraph,
    source: NodeId,
    target: Option<NodeId>,
    weight: W,
) -> ShortestPaths
where
    W: Fn(EdgeId) -> f64,
{
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge = vec![None; n];
    let mut pred_node = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        priority: 0.0,
        node: source,
    });

    while let Some(HeapEntry { priority, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if Some(node) == target {
            break;
        }
        for (e, head) in g.out_edges(node) {
            let w = weight(e);
            debug_assert!(w >= 0.0 && w.is_finite(), "invalid edge weight {w}");
            let nd = priority + w;
            if nd < dist[head.index()] {
                dist[head.index()] = nd;
                pred_edge[head.index()] = Some(e);
                pred_node[head.index()] = Some(node);
                heap.push(HeapEntry {
                    priority: nd,
                    node: head,
                });
            }
        }
    }

    ShortestPaths {
        source,
        dist,
        pred_edge,
        pred_node,
    }
}

/// One-to-all Dijkstra (no early exit).
pub fn dijkstra_all<W>(g: &RoadGraph, source: NodeId, weight: W) -> ShortestPaths
where
    W: Fn(EdgeId) -> f64,
{
    dijkstra(g, source, None, weight)
}

/// All-to-one shortest distances *to* `target`, computed on the reverse
/// graph. `dist[v]` is the cost of the cheapest `v -> target` path — the
/// optimistic remaining cost when `weight` is the free-flow time.
pub fn backward_dijkstra<W>(g: &RoadGraph, target: NodeId, weight: W) -> Vec<f64>
where
    W: Fn(EdgeId) -> f64,
{
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[target.index()] = 0.0;
    heap.push(HeapEntry {
        priority: 0.0,
        node: target,
    });
    while let Some(HeapEntry { priority, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        for (e, tail) in g.in_edges(node) {
            let w = weight(e);
            debug_assert!(w >= 0.0 && w.is_finite(), "invalid edge weight {w}");
            let nd = priority + w;
            if nd < dist[tail.index()] {
                dist[tail.index()] = nd;
                heap.push(HeapEntry {
                    priority: nd,
                    node: tail,
                });
            }
        }
    }
    dist
}

/// Dijkstra variant where `weight` may *ban* edges by returning `None`.
/// Used by Yen's k-shortest-paths spur searches.
fn dijkstra_filtered<W>(
    g: &RoadGraph,
    source: NodeId,
    target: NodeId,
    weight: W,
) -> Option<(Path, f64)>
where
    W: Fn(EdgeId) -> Option<f64>,
{
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut pred_node: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        priority: 0.0,
        node: source,
    });
    while let Some(HeapEntry { priority, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if node == target {
            break;
        }
        for (e, head) in g.out_edges(node) {
            let Some(w) = weight(e) else { continue };
            debug_assert!(w >= 0.0 && w.is_finite(), "invalid edge weight {w}");
            let nd = priority + w;
            if nd < dist[head.index()] {
                dist[head.index()] = nd;
                pred_edge[head.index()] = Some(e);
                pred_node[head.index()] = Some(node);
                heap.push(HeapEntry {
                    priority: nd,
                    node: head,
                });
            }
        }
    }
    if !dist[target.index()].is_finite() {
        return None;
    }
    let sp = ShortestPaths {
        source,
        dist,
        pred_edge,
        pred_node,
    };
    let cost = sp.distance(target);
    sp.extract_path(target).map(|p| (p, cost))
}

/// Yen's algorithm: the `k` loopless shortest paths from `source` to
/// `target` in non-decreasing cost order (fewer than `k` when the graph
/// does not admit them). Used as the classic path-enumeration baseline
/// for stochastic routing: enumerate by expected time, evaluate each
/// path's distribution, keep the best.
pub fn k_shortest_paths<W>(
    g: &RoadGraph,
    source: NodeId,
    target: NodeId,
    k: usize,
    weight: W,
) -> Vec<(Path, f64)>
where
    W: Fn(EdgeId) -> f64,
{
    use std::collections::HashSet;

    let mut accepted: Vec<(Path, f64)> = Vec::new();
    if k == 0 {
        return accepted;
    }
    let Some(first) = dijkstra_filtered(g, source, target, |e| Some(weight(e))) else {
        return accepted;
    };
    accepted.push(first);

    // Candidate pool: (cost, path). Kept sorted descending so pop() yields
    // the cheapest candidate.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    seen.insert(accepted[0].0.edges.clone());

    while accepted.len() < k {
        let prev = accepted.last().expect("at least one accepted").0.clone();
        for i in 0..prev.edges.len() {
            let spur_node = prev.nodes[i];
            let root_edges = &prev.edges[..i];

            // Ban the edges that would recreate an accepted path with the
            // same root, and the root's interior nodes (looplessness).
            let mut banned_edges: HashSet<EdgeId> = HashSet::new();
            for (p, _) in &accepted {
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    banned_edges.insert(p.edges[i]);
                }
            }
            for (c, p) in &candidates {
                let _ = c;
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    banned_edges.insert(p.edges[i]);
                }
            }
            let mut banned_nodes = vec![false; g.num_nodes()];
            for &v in &prev.nodes[..i] {
                banned_nodes[v.index()] = true;
            }

            let spur = dijkstra_filtered(g, spur_node, target, |e| {
                if banned_edges.contains(&e) || banned_nodes[g.edge_target(e).index()] {
                    None
                } else {
                    Some(weight(e))
                }
            });
            let Some((spur_path, _)) = spur else { continue };

            let mut edges = root_edges.to_vec();
            edges.extend_from_slice(&spur_path.edges);
            if !seen.insert(edges.clone()) {
                continue;
            }
            let mut nodes = prev.nodes[..=i].to_vec();
            nodes.extend_from_slice(&spur_path.nodes[1..]);
            let total: f64 = edges.iter().map(|&e| weight(e)).sum();
            candidates.push((total, Path { nodes, edges }));
        }

        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite costs"));
        let (cost, path) = candidates.pop().expect("non-empty");
        accepted.push((path, cost));
    }
    accepted
}

/// Tarjan's strongly connected components (iterative).
///
/// Returns `comp[v]` — a component id per vertex. Ids are dense in
/// `0..num_components` in reverse topological order of the condensation.
fn strongly_connected_components(g: &RoadGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut num_comps = 0usize;

    // Explicit DFS stack: (vertex, iterator position into out-edges).
    let mut call_stack: Vec<(u32, u32)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        call_stack.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut child)) = call_stack.last_mut() {
            let vi = v as usize;
            let out_start = g.out_offsets[vi];
            let out_end = g.out_offsets[vi + 1];
            let pos = out_start + *child;
            if pos < out_end {
                *child += 1;
                let w = g.out_targets[pos as usize];
                let wi = w.index();
                if index[wi] == UNVISITED {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    stack.push(w.0);
                    on_stack[wi] = true;
                    call_stack.push((w.0, 0));
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    let pi = parent as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let comp_id = num_comps as u32;
                    num_comps += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_id;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }

    (comp, num_comps)
}

/// Node ids of the largest strongly connected component.
pub fn largest_scc(g: &RoadGraph) -> Vec<NodeId> {
    let (comp, k) = strongly_connected_components(g);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, &s)| s)
        .map(|(i, _)| i as u32)
        .expect("at least one component");
    comp.iter()
        .enumerate()
        .filter(|(_, &c)| c == best)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge::{EdgeAttrs, RoadCategory};
    use crate::geometry::Point;

    fn attrs(len: f64) -> EdgeAttrs {
        EdgeAttrs::new(len, RoadCategory::Residential, 36.0) // 10 m/s
    }

    /// 0 -> 1 -> 2 and a direct slow 0 -> 2.
    fn line_with_shortcut() -> RoadGraph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(10.00, 56.00));
        let n1 = b.add_node(Point::new(10.01, 56.00));
        let n2 = b.add_node(Point::new(10.02, 56.00));
        b.add_edge(n0, n1, attrs(100.0)); // 10 s
        b.add_edge(n1, n2, attrs(100.0)); // 10 s
        b.add_edge(n0, n2, attrs(500.0)); // 50 s
        b.build()
    }

    #[test]
    fn dijkstra_picks_cheapest_route() {
        let g = line_with_shortcut();
        let sp = dijkstra(&g, NodeId(0), Some(NodeId(2)), |e| {
            g.attrs(e).freeflow_time_s()
        });
        assert!((sp.distance(NodeId(2)) - 20.0).abs() < 1e-9);
        let p = sp.extract_path(NodeId(2)).unwrap();
        assert_eq!(p.edges, vec![EdgeId(0), EdgeId(1)]);
        p.validate(&g).unwrap();
    }

    #[test]
    fn dijkstra_source_distance_is_zero() {
        let g = line_with_shortcut();
        let sp = dijkstra_all(&g, NodeId(0), |e| g.attrs(e).freeflow_time_s());
        assert_eq!(sp.distance(NodeId(0)), 0.0);
        let p = sp.extract_path(NodeId(0)).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.source(), p.target());
    }

    #[test]
    fn dijkstra_scratch_matches_the_allocating_run() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let mut scratch = DijkstraScratch::new();
        // Repeated runs over different sources must reset correctly and
        // reproduce the allocating dijkstra exactly, paths included.
        for round in 0..3 {
            for s in g.node_ids() {
                scratch.run(&g, s, None, w);
                let sp = dijkstra_all(&g, s, w);
                for v in g.node_ids() {
                    let (a, b) = (scratch.distance(v), sp.distance(v));
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || a == b,
                        "round {round}, {s}->{v}: scratch {a} vs dijkstra {b}"
                    );
                    assert_eq!(scratch.extract_path(v), sp.extract_path(v));
                }
            }
        }
    }

    #[test]
    fn dijkstra_scratch_early_exit_matches() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let mut scratch = DijkstraScratch::new();
        scratch.run(&g, NodeId(0), Some(NodeId(2)), w);
        let sp = dijkstra(&g, NodeId(0), Some(NodeId(2)), w);
        assert_eq!(scratch.distance(NodeId(2)), sp.distance(NodeId(2)));
        assert_eq!(scratch.extract_path(NodeId(2)), sp.extract_path(NodeId(2)));
        // Unreachable targets after a reused run report infinity.
        scratch.run(&g, NodeId(2), None, w);
        assert!(scratch.distance(NodeId(0)).is_infinite());
        assert!(scratch.extract_path(NodeId(0)).is_none());
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.1, 0.0));
        b.add_edge(a, c, attrs(100.0));
        let g = b.build();
        let sp = dijkstra_all(&g, c, |e| g.attrs(e).freeflow_time_s());
        assert!(sp.distance(a).is_infinite());
        assert!(sp.extract_path(a).is_none());
    }

    #[test]
    fn backward_dijkstra_matches_forward() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let back = backward_dijkstra(&g, NodeId(2), w);
        for v in g.node_ids() {
            let fwd = dijkstra(&g, v, Some(NodeId(2)), w).distance(NodeId(2));
            if fwd.is_finite() {
                assert!((back[v.index()] - fwd).abs() < 1e-9, "mismatch at {v}");
            } else {
                assert!(back[v.index()].is_infinite());
            }
        }
    }

    #[test]
    fn scc_on_cycle_is_single_component() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        for i in 0..4 {
            b.add_edge(n[i], n[(i + 1) % 4], attrs(100.0));
        }
        let g = b.build();
        let (comp, k) = strongly_connected_components(&g);
        assert_eq!(k, 1);
        assert!(comp.iter().all(|&c| c == comp[0]));
    }

    #[test]
    fn scc_on_dag_is_all_singletons() {
        let g = line_with_shortcut();
        let (_, k) = strongly_connected_components(&g);
        assert_eq!(k, 3);
    }

    #[test]
    fn largest_scc_finds_the_cycle() {
        // Cycle of 3 + a dangling tail vertex.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        b.add_edge(n[0], n[1], attrs(100.0));
        b.add_edge(n[1], n[2], attrs(100.0));
        b.add_edge(n[2], n[0], attrs(100.0));
        b.add_edge(n[2], n[3], attrs(100.0));
        let g = b.build();
        let mut scc = largest_scc(&g);
        scc.sort_unstable();
        assert_eq!(scc, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn filtered_dijkstra_respects_bans() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        // Ban the cheap middle edge 1 -> 2: must fall back to the shortcut.
        let r = dijkstra_filtered(&g, NodeId(0), NodeId(2), |e| {
            if e == EdgeId(1) {
                None
            } else {
                Some(w(e))
            }
        });
        let (p, cost) = r.unwrap();
        assert_eq!(p.edges, vec![EdgeId(2)]);
        assert!((cost - 50.0).abs() < 1e-9);
        // Banning everything: unreachable.
        assert!(dijkstra_filtered(&g, NodeId(0), NodeId(2), |_| None).is_none());
    }

    #[test]
    fn k_shortest_paths_orders_and_deduplicates() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(2), 5, w);
        // Exactly two loopless paths exist: via node 1 (20 s) and direct (50 s).
        assert_eq!(paths.len(), 2);
        assert!((paths[0].1 - 20.0).abs() < 1e-9);
        assert!((paths[1].1 - 50.0).abs() < 1e-9);
        for (p, cost) in &paths {
            p.validate(&g).unwrap();
            assert!((p.cost(w) - cost).abs() < 1e-9);
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(2));
        }
        // Costs are non-decreasing.
        assert!(paths[0].1 <= paths[1].1);
    }

    #[test]
    fn k_shortest_on_grid_finds_many_alternatives() {
        // 3x3 grid has many equal-length routes corner to corner.
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                ids.push(b.add_node(Point::new(x as f64 * 0.001, y as f64 * 0.001)));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_bidirectional(ids[i], ids[i + 1], attrs(100.0));
                }
                if y + 1 < 3 {
                    b.add_bidirectional(ids[i], ids[i + 3], attrs(100.0));
                }
            }
        }
        let g = b.build();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(8), 6, w);
        assert_eq!(paths.len(), 6);
        // All six corner-to-corner routes of length 4 cost 40 s.
        for (p, cost) in &paths {
            p.validate(&g).unwrap();
            assert!(*cost >= 40.0 - 1e-9);
        }
        assert!((paths[0].1 - 40.0).abs() < 1e-9);
        // Paths are distinct.
        let mut edge_seqs: Vec<&[EdgeId]> = paths.iter().map(|(p, _)| p.edges.as_slice()).collect();
        edge_seqs.sort();
        edge_seqs.dedup();
        assert_eq!(edge_seqs.len(), 6);
    }

    #[test]
    fn k_zero_or_unreachable_yields_empty() {
        let g = line_with_shortcut();
        let w = |e: EdgeId| g.attrs(e).freeflow_time_s();
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(2), 0, w).is_empty());
        assert!(k_shortest_paths(&g, NodeId(2), NodeId(0), 3, w).is_empty());
    }

    #[test]
    fn path_validate_detects_disconnected_edges() {
        let g = line_with_shortcut();
        let bogus = Path {
            nodes: vec![NodeId(0), NodeId(2)],
            edges: vec![EdgeId(0)], // e0 is 0 -> 1, not 0 -> 2
        };
        assert!(bogus.validate(&g).is_err());
    }

    #[test]
    fn path_cost_sums_weights() {
        let g = line_with_shortcut();
        let sp = dijkstra_all(&g, NodeId(0), |e| g.attrs(e).freeflow_time_s());
        let p = sp.extract_path(NodeId(2)).unwrap();
        assert!((p.cost(|e| g.attrs(e).freeflow_time_s()) - 20.0).abs() < 1e-9);
        assert_eq!(p.cost(|_| 1.0) as usize, p.len());
    }
}
