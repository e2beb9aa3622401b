//! Core graph representation.
//!
//! [`Dag`] stores nodes (with a weight and an optional human-readable
//! name) and directed edges in flat vectors. Adjacency is exposed both as
//! per-node `Vec`s (cheap to build incrementally) and, for the
//! performance-critical longest-path kernels, as a compressed sparse-row
//! (CSR) view built lazily by [`Dag::freeze`].

use std::collections::HashMap;
use std::fmt;

/// Identifier of a node (task) inside a [`Dag`].
///
/// `NodeId` is a plain index newtype: it is `Copy`, ordered, and can be
/// used to index per-node arrays via [`NodeId::index`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Create a `NodeId` from a raw index.
    ///
    /// Callers are responsible for the index referring to a node of the
    /// intended graph; all `Dag` accessors panic on out-of-range ids.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }

    /// The raw index of this node, usable for per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a directed edge inside a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct NodeData {
    weight: f64,
    name: Option<String>,
    succs: Vec<NodeId>,
    preds: Vec<NodeId>,
}

/// A directed acyclic graph of weighted tasks.
///
/// Nodes carry a non-negative weight `a_i` (the failure-free execution
/// time of the task) and an optional name. Edges are unweighted
/// precedence constraints `(src, dst)` meaning `dst` cannot start before
/// `src` completes.
///
/// Acyclicity is *not* enforced on every `add_edge`; use
/// [`crate::validate_acyclic`] (or build through [`crate::DagBuilder`],
/// which validates on `build`). All longest-path algorithms panic with a
/// clear message when handed a cyclic graph.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    nodes: Vec<NodeData>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Dag {
    /// Create an empty graph.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Create an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Dag {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node with the given weight; returns its id.
    ///
    /// # Panics
    /// Panics if `weight` is negative or not finite.
    pub fn add_node(&mut self, weight: f64) -> NodeId {
        self.add_named_node(weight, None::<&str>)
    }

    /// Add a node with the given weight and optional name.
    ///
    /// # Panics
    /// Panics if `weight` is negative or not finite.
    pub fn add_named_node(&mut self, weight: f64, name: Option<impl Into<String>>) -> NodeId {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "task weight must be finite and non-negative, got {weight}"
        );
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData {
            weight,
            name: name.map(Into::into),
            succs: Vec::new(),
            preds: Vec::new(),
        });
        id
    }

    /// Add a directed precedence edge `src -> dst`; returns its id.
    ///
    /// Parallel (duplicate) edges are permitted by the representation but
    /// never produced by the workspace generators; `dedup_edges` removes
    /// them. Self-loops are rejected because they always create a cycle.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or if `src == dst`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(
            src.index() < self.nodes.len(),
            "edge source {src:?} out of range"
        );
        assert!(
            dst.index() < self.nodes.len(),
            "edge target {dst:?} out of range"
        );
        assert!(src != dst, "self-loop on {src:?} would create a cycle");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32 range"));
        self.edges.push((src, dst));
        self.nodes[src.index()].succs.push(dst);
        self.nodes[dst.index()].preds.push(src);
        id
    }

    /// Add `src -> dst` unless an identical edge already exists.
    ///
    /// Returns `Some(edge)` when a new edge was inserted. This is a
    /// linear scan of `src`'s successor list, which is fine for the
    /// bounded out-degrees of the workspace generators.
    pub fn add_edge_dedup(&mut self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        if self.nodes[src.index()].succs.contains(&dst) {
            None
        } else {
            Some(self.add_edge(src, dst))
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids, in insertion order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterator over all edges as `(src, dst)` pairs, in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }

    /// Weight `a_i` of a node.
    #[inline]
    pub fn weight(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].weight
    }

    /// Overwrite the weight of a node.
    ///
    /// # Panics
    /// Panics if `weight` is negative or not finite.
    pub fn set_weight(&mut self, n: NodeId, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "task weight must be finite and non-negative, got {weight}"
        );
        self.nodes[n.index()].weight = weight;
    }

    /// All node weights as a vector indexed by `NodeId::index`.
    pub fn weights(&self) -> Vec<f64> {
        self.nodes.iter().map(|n| n.weight).collect()
    }

    /// Sum of all task weights (the sequential execution time).
    pub fn total_weight(&self) -> f64 {
        self.nodes.iter().map(|n| n.weight).sum()
    }

    /// Mean task weight `ā = Σ a_i / |V|`, or 0 for an empty graph.
    ///
    /// The paper calibrates the failure rate λ from a target per-task
    /// failure probability through this quantity.
    pub fn mean_weight(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.total_weight() / self.nodes.len() as f64
        }
    }

    /// Name of a node, if one was assigned.
    pub fn name(&self, n: NodeId) -> Option<&str> {
        self.nodes[n.index()].name.as_deref()
    }

    /// Name of a node, or its numeric id rendered as `"#<idx>"`.
    pub fn display_name(&self, n: NodeId) -> String {
        match self.name(n) {
            Some(s) => s.to_string(),
            None => format!("#{}", n.index()),
        }
    }

    /// Assign a name to a node.
    pub fn set_name(&mut self, n: NodeId, name: impl Into<String>) {
        self.nodes[n.index()].name = Some(name.into());
    }

    /// Look up a node by exact name. Linear scan; intended for tests and
    /// small interactive use. Returns the first match.
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name.as_deref() == Some(name))
            .map(NodeId::from_index)
    }

    /// Build a name → id map for all named nodes.
    ///
    /// # Panics
    /// Panics if two nodes share a name (workspace generators always
    /// produce unique names).
    pub fn name_index(&self) -> HashMap<String, NodeId> {
        let mut map = HashMap::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(name) = &n.name {
                let prev = map.insert(name.clone(), NodeId::from_index(i));
                assert!(prev.is_none(), "duplicate node name {name:?}");
            }
        }
        map
    }

    /// Successors of `n` (direct dependents).
    #[inline]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].succs
    }

    /// Predecessors of `n` (direct dependencies).
    #[inline]
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].preds
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.nodes[n.index()].succs.len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.nodes[n.index()].preds.len()
    }

    /// Nodes without predecessors (entry tasks), in id order.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.in_degree(n) == 0).collect()
    }

    /// Nodes without successors (exit tasks), in id order.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.out_degree(n) == 0).collect()
    }

    /// Remove duplicate parallel edges, keeping the first occurrence.
    ///
    /// Rebuilds the adjacency lists; edge ids are renumbered.
    pub fn dedup_edges(&mut self) {
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        let mut kept = Vec::with_capacity(self.edges.len());
        for &(s, d) in &self.edges {
            if seen.insert((s, d)) {
                kept.push((s, d));
            }
        }
        if kept.len() == self.edges.len() {
            return;
        }
        for n in &mut self.nodes {
            n.succs.clear();
            n.preds.clear();
        }
        self.edges.clear();
        for (s, d) in kept {
            self.add_edge(s, d);
        }
    }

    /// Return a copy of this DAG in which node `n`'s weight is scaled by
    /// `factor` (e.g. `2.0` models one re-execution of task `n`).
    ///
    /// This mirrors the paper's `G_i` construction.
    pub fn with_scaled_weight(&self, n: NodeId, factor: f64) -> Dag {
        let mut g = self.clone();
        let w = g.weight(n);
        g.set_weight(n, w * factor);
        g
    }

    /// A frozen CSR adjacency view for hot-loop traversal. See
    /// [`FrozenDag`].
    pub fn freeze(&self) -> FrozenDag {
        FrozenDag::build(self)
    }
}

/// A compressed-sparse-row snapshot of a [`Dag`]'s adjacency, weights,
/// and a precomputed topological order.
///
/// The Monte-Carlo estimator and exact enumeration evaluate many
/// longest paths over the same structure with varying weights;
/// `FrozenDag` keeps those loops free of pointer chasing through
/// per-node `Vec`s and of repeated topological sorting. Per the Rust
/// Performance Book, flat index arrays beat nested `Vec<Vec<_>>` for
/// this access pattern.
#[derive(Clone, Debug)]
pub struct FrozenDag {
    /// Node weights, indexed by `NodeId::index()`.
    pub weights: Vec<f64>,
    /// CSR offsets into `pred_list`; predecessors of node `i` are
    /// `pred_list[pred_off[i]..pred_off[i+1]]`.
    pub pred_off: Vec<u32>,
    /// Flattened predecessor lists.
    pub pred_list: Vec<u32>,
    /// CSR offsets into `succ_list`.
    pub succ_off: Vec<u32>,
    /// Flattened successor lists.
    pub succ_list: Vec<u32>,
    /// A topological order (indices into the node array).
    pub topo: Vec<u32>,
}

impl FrozenDag {
    fn build(dag: &Dag) -> FrozenDag {
        let n = dag.node_count();
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut pred_list = Vec::with_capacity(dag.edge_count());
        let mut succ_list = Vec::with_capacity(dag.edge_count());
        pred_off.push(0);
        succ_off.push(0);
        for id in dag.nodes() {
            for &p in dag.preds(id) {
                pred_list.push(p.0);
            }
            for &s in dag.succs(id) {
                succ_list.push(s.0);
            }
            pred_off.push(pred_list.len() as u32);
            succ_off.push(succ_list.len() as u32);
        }
        let topo = crate::topo::topological_order(dag)
            .expect("FrozenDag requires an acyclic graph")
            .into_iter()
            .map(|id| id.0)
            .collect();
        FrozenDag {
            weights: dag.weights(),
            pred_off,
            pred_list,
            succ_off,
            succ_list,
            topo,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Predecessor indices of node `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_list[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successor indices of node `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_list[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Longest-path length (makespan with unlimited processors) for the
    /// given per-node weights, which must have the same length as
    /// [`FrozenDag::node_count`].
    ///
    /// One pass over nodes in topological order,
    /// `completion(i) = w(i) + max over preds`, leaving each node's
    /// completion time in `completion`. Exact enumeration runs it once
    /// per failure scenario; the Monte-Carlo estimator runs it once per
    /// run, as the failure-free pass its trials recompute from.
    pub fn longest_path_with_weights(&self, weights: &[f64], completion: &mut Vec<f64>) -> f64 {
        assert_eq!(
            weights.len(),
            self.node_count(),
            "weight vector length mismatch"
        );
        completion.clear();
        completion.resize(self.node_count(), 0.0);
        let mut best = 0.0f64;
        for &iu in &self.topo {
            let i = iu as usize;
            let mut start = 0.0f64;
            for &p in self.preds(i) {
                let c = completion[p as usize];
                if c > start {
                    start = c;
                }
            }
            let c = start + weights[i];
            completion[i] = c;
            if c > best {
                best = c;
            }
        }
        best
    }

    /// Convenience wrapper over [`Self::longest_path_with_weights`] using
    /// the frozen weights (the failure-free makespan `d(G)`).
    pub fn longest_path(&self) -> f64 {
        let mut scratch = Vec::new();
        let w = self.weights.clone();
        self.longest_path_with_weights(&w, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag, [NodeId; 4]) {
        // a -> b -> d, a -> c -> d
        let mut g = Dag::new();
        let a = g.add_named_node(1.0, Some("a"));
        let b = g.add_named_node(2.0, Some("b"));
        let c = g.add_named_node(3.0, Some("c"));
        let d = g.add_named_node(1.0, Some("d"));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn node_and_edge_counts() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn weights_and_means() {
        let (g, [a, ..]) = diamond();
        assert_eq!(g.weight(a), 1.0);
        assert_eq!(g.total_weight(), 7.0);
        assert!((g.mean_weight() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn set_weight_updates() {
        let (mut g, [a, ..]) = diamond();
        g.set_weight(a, 10.0);
        assert_eq!(g.weight(a), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let mut g = Dag::new();
        g.add_node(-1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        g.add_edge(a, a);
    }

    #[test]
    fn names_round_trip() {
        let (g, [a, b, ..]) = diamond();
        assert_eq!(g.name(a), Some("a"));
        assert_eq!(g.find_by_name("b"), Some(b));
        assert_eq!(g.find_by_name("zz"), None);
        let idx = g.name_index();
        assert_eq!(idx["a"], a);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn display_name_falls_back_to_index() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        assert_eq!(g.display_name(a), "#0");
        g.set_name(a, "root");
        assert_eq!(g.display_name(a), "root");
    }

    #[test]
    fn dedup_edges_removes_duplicates() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.edge_count(), 3);
        g.dedup_edges();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.succs(a), &[b]);
        assert_eq!(g.preds(b), &[a]);
    }

    #[test]
    fn add_edge_dedup_skips_existing() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        assert!(g.add_edge_dedup(a, b).is_some());
        assert!(g.add_edge_dedup(a, b).is_none());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn scaled_weight_copy() {
        let (g, [_, b, ..]) = diamond();
        let g2 = g.with_scaled_weight(b, 2.0);
        assert_eq!(g2.weight(b), 4.0);
        assert_eq!(g.weight(b), 2.0, "original untouched");
        assert_eq!(g2.edge_count(), g.edge_count());
    }

    #[test]
    fn frozen_matches_dynamic() {
        let (g, _) = diamond();
        let f = g.freeze();
        assert_eq!(f.node_count(), 4);
        // longest path: a(1) -> c(3) -> d(1) = 5
        assert!((f.longest_path() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn frozen_with_custom_weights() {
        let (g, _) = diamond();
        let f = g.freeze();
        let mut scratch = Vec::new();
        // double node b's weight: a(1) -> b(4) -> d(1) = 6
        let w = vec![1.0, 4.0, 3.0, 1.0];
        assert!((f.longest_path_with_weights(&w, &mut scratch) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn frozen_csr_adjacency() {
        let (g, [a, b, c, d]) = diamond();
        let f = g.freeze();
        assert_eq!(f.succs(a.index()), &[b.0, c.0]);
        assert_eq!(f.preds(d.index()), &[b.0, c.0]);
        assert_eq!(f.preds(a.index()), &[] as &[u32]);
    }

    #[test]
    fn empty_graph() {
        let g = Dag::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.mean_weight(), 0.0);
        assert_eq!(g.total_weight(), 0.0);
        assert!(g.sources().is_empty());
        let f = g.freeze();
        assert_eq!(f.longest_path(), 0.0);
    }
}
