//! The series-parallel reduction engine with Dodin duplication.

use crate::arcnet::ArcNetwork;
use std::collections::VecDeque;
use stochdag_dag::{Dag, NodeId};
use stochdag_dist::DiscreteDist;

/// Tuning knobs of the reduction engine.
#[derive(Clone, Debug)]
pub struct ReduceConfig {
    /// Cap on distribution support size after every convolution/max
    /// (mean-preserving coarsening). `usize::MAX` disables coarsening,
    /// making SP evaluation exact (pseudo-polynomial).
    pub max_atoms: usize,
    /// Whether Dodin duplication may be used on irreducible networks.
    /// `false` turns the engine into an SP recognizer/evaluator.
    pub allow_duplication: bool,
    /// Hard cap on reduction+duplication operations, as a runaway guard.
    pub max_operations: usize,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            max_atoms: 128,
            allow_duplication: true,
            max_operations: 50_000_000,
        }
    }
}

/// Successful reduction result.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// Distribution of the single remaining source→sink arc — the
    /// (approximate) makespan distribution.
    pub dist: DiscreteDist,
    /// Number of series reductions performed.
    pub series: usize,
    /// Number of parallel reductions performed.
    pub parallel: usize,
    /// Number of Dodin duplications performed (0 on SP inputs).
    pub duplications: usize,
}

/// Reduction failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceError {
    /// Duplication was disabled and the network is not series-parallel.
    NotSeriesParallel,
    /// `max_operations` was exceeded.
    OperationLimitExceeded {
        /// The configured limit that was hit.
        limit: usize,
    },
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::NotSeriesParallel => write!(f, "network is not series-parallel"),
            ReduceError::OperationLimitExceeded { limit } => {
                write!(f, "reduction exceeded the operation limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ReduceError {}

/// Reduce `net` to a single source→sink arc.
///
/// Applies parallel and series reductions from a worklist; when the
/// network is irreducible and duplication is allowed, performs one Dodin
/// duplication and resumes. See the crate docs for the algorithm.
pub fn reduce(net: &mut ArcNetwork, cfg: &ReduceConfig) -> Result<ReduceOutcome, ReduceError> {
    let mut state = Engine {
        net,
        cfg,
        ops: 0,
        series: 0,
        parallel: 0,
        duplications: 0,
        queued: Vec::new(),
        work: VecDeque::new(),
        rank: Vec::new(),
        join_heap: std::collections::BinaryHeap::new(),
    };
    state.run()?;
    let arc = state
        .net
        .sole_arc()
        .expect("reduction loop only exits with a single arc");
    let (s, t) = state.net.endpoints(arc);
    debug_assert_eq!(s, state.net.source());
    debug_assert_eq!(t, state.net.sink());
    Ok(ReduceOutcome {
        dist: state.net.dist(arc).clone(),
        series: state.series,
        parallel: state.parallel,
        duplications: state.duplications,
    })
}

struct Engine<'a> {
    net: &'a mut ArcNetwork,
    cfg: &'a ReduceConfig,
    ops: usize,
    series: usize,
    parallel: usize,
    duplications: usize,
    queued: Vec<bool>,
    work: VecDeque<u32>,
    /// Static topological rank per node; a duplicated node inherits the
    /// rank of its original, which keeps ranks a valid topological
    /// numbering of the evolving network (the copy has exactly the
    /// original's successors and one of its predecessors).
    rank: Vec<u32>,
    /// Min-heap (by rank) of *candidate* join nodes (in-degree possibly
    /// ≥ 2). Entries are lazily revalidated at pop time, so stale pushes
    /// are harmless.
    join_heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(), ReduceError> {
        self.queued = vec![false; self.net.node_slots()];
        // Initial ranks from a topological sort of the starting network.
        self.rank = vec![0; self.net.node_slots()];
        for (r, v) in self.net.topological_order().into_iter().enumerate() {
            self.rank[v as usize] = r as u32;
        }
        for v in 0..self.net.node_slots() as u32 {
            self.enqueue(v);
            if self.net.in_degree(v) >= 2 {
                self.push_join(v);
            }
        }
        loop {
            while let Some(v) = self.work.pop_front() {
                self.queued[v as usize] = false;
                self.tick()?;
                self.try_parallel(v);
                self.try_series(v);
            }
            if self.net.live_arcs() == 1 {
                return Ok(());
            }
            if !self.cfg.allow_duplication {
                return Err(ReduceError::NotSeriesParallel);
            }
            self.tick()?;
            self.duplicate();
        }
    }

    fn push_join(&mut self, v: u32) {
        self.join_heap
            .push(std::cmp::Reverse((self.rank[v as usize], v)));
    }

    fn tick(&mut self) -> Result<(), ReduceError> {
        self.ops += 1;
        if self.ops > self.cfg.max_operations {
            Err(ReduceError::OperationLimitExceeded {
                limit: self.cfg.max_operations,
            })
        } else {
            Ok(())
        }
    }

    fn enqueue(&mut self, v: u32) {
        let i = v as usize;
        if i >= self.queued.len() {
            self.queued.resize(i + 1, false);
        }
        if !self.queued[i] {
            self.queued[i] = true;
            self.work.push_back(v);
        }
    }

    fn cap(&self, mut d: DiscreteDist) -> DiscreteDist {
        d.reduce_support_in_place(self.cfg.max_atoms);
        d
    }

    /// Merge parallel out-arcs of `v` (same destination) via independent
    /// max. One hash pass finds a duplicate pair in `O(out-degree)`.
    fn try_parallel(&mut self, v: u32) {
        loop {
            let arcs = self.net.out_of(v);
            if arcs.len() < 2 {
                return;
            }
            let mut seen: std::collections::HashMap<u32, u32> =
                std::collections::HashMap::with_capacity(arcs.len());
            let mut found: Option<(u32, u32)> = None;
            for &a in arcs {
                let (_, dst) = self.net.endpoints(a);
                if let Some(&first) = seen.get(&dst) {
                    found = Some((first, a));
                    break;
                }
                seen.insert(dst, a);
            }
            let Some((a, b)) = found else { return };
            let (_, dst) = self.net.endpoints(a);
            let da = self.net.remove_arc(a);
            let db = self.net.remove_arc(b);
            let merged = da.max_independent(&db);
            let merged = self.cap(merged);
            self.net.add_arc(v, dst, merged);
            self.parallel += 1;
            self.enqueue(v);
            self.enqueue(dst);
        }
    }

    /// Series-reduce `v` if it has exactly one in-arc and one out-arc.
    fn try_series(&mut self, v: u32) {
        if v == self.net.source() || v == self.net.sink() {
            return;
        }
        if self.net.in_degree(v) != 1 || self.net.out_degree(v) != 1 {
            return;
        }
        let ain = self.net.in_of(v)[0];
        let aout = self.net.out_of(v)[0];
        let (u, _) = self.net.endpoints(ain);
        let (_, w) = self.net.endpoints(aout);
        debug_assert_ne!(
            u, w,
            "series reduction would create a self-loop (cycle in input)"
        );
        let din = self.net.remove_arc(ain);
        let dout = self.net.remove_arc(aout);
        let merged = din.convolve(&dout);
        let merged = self.cap(merged);
        self.net.add_arc(u, w, merged);
        self.series += 1;
        // u may now have parallel arcs to w; w may have become
        // series-reducible (its in-degree is unchanged but u's arc is
        // new); u's own in/out profile changed only in arc identity.
        self.enqueue(u);
        self.enqueue(w);
    }

    /// One Dodin duplication on an irreducible network.
    ///
    /// Picks the first node `v` in topological order with in-degree ≥ 2
    /// (never the source; never the sink — see below), and an in-arc
    /// `(u, v)` whose tail has out-degree ≥ 2. Moves that arc to a fresh
    /// node `v'` which receives independent copies of `v`'s out-arcs.
    ///
    /// On an irreducible network such a pair exists with `v ≠ sink`:
    /// consider the first `v` in topological order with `indeg ≥ 2`.
    /// Each of its predecessors has `indeg ≤ 1`; a predecessor with
    /// `indeg = outdeg = 1` would be series-reducible and only the
    /// unique source has `indeg = 0`, so some predecessor has
    /// `outdeg ≥ 2`. If the only qualifying `v` were the sink, every
    /// internal node would have `indeg ≤ 1`, making the network an
    /// out-forest whose deepest internal node either has parallel arcs
    /// to the sink or is series-reducible — contradicting
    /// irreducibility.
    fn duplicate(&mut self) {
        let sink = self.net.sink();
        // Pop stale heap entries until a live join node appears.
        let v = loop {
            let std::cmp::Reverse((_, v)) = self
                .join_heap
                .pop()
                .expect("irreducible network has an internal node with in-degree >= 2");
            if v != sink && self.net.in_degree(v) >= 2 {
                break v;
            }
        };
        let arc = self
            .net
            .in_of(v)
            .iter()
            .copied()
            .find(|&a| {
                let (u, _) = self.net.endpoints(a);
                self.net.out_degree(u) >= 2
            })
            .expect("first multi-in node has a multi-out predecessor");
        let (u, _) = self.net.endpoints(arc);
        let moved = self.net.remove_arc(arc);
        let vprime = self.net.add_node();
        debug_assert_eq!(vprime as usize, self.rank.len());
        self.rank.push(self.rank[v as usize]); // copy sits at v's rank
        self.net.add_arc(u, vprime, moved);
        let out: Vec<u32> = self.net.out_of(v).to_vec();
        for a in out {
            let (_, w) = self.net.endpoints(a);
            let d = self.net.dist(a).clone();
            self.net.add_arc(vprime, w, d);
            self.enqueue(w);
            if self.net.in_degree(w) >= 2 {
                self.push_join(w);
            }
        }
        self.duplications += 1;
        self.enqueue(u);
        self.enqueue(v);
        self.enqueue(vprime);
        if self.net.in_degree(v) >= 2 {
            self.push_join(v);
        }
    }
}

/// Evaluate a task DAG with Dodin's series-parallel approximation.
///
/// Builds the activity-on-arc network with per-task distributions from
/// `dist_of` and reduces it with duplication enabled. The returned
/// distribution approximates the makespan distribution; its
/// [`DiscreteDist::mean`] is the Dodin estimate of the expected
/// makespan.
pub fn dodin_evaluate(
    dag: &Dag,
    dist_of: impl FnMut(NodeId) -> DiscreteDist,
    cfg: &ReduceConfig,
) -> Result<ReduceOutcome, ReduceError> {
    let mut net = ArcNetwork::from_task_dag(dag, dist_of);
    let cfg = ReduceConfig {
        allow_duplication: true,
        ..cfg.clone()
    };
    reduce(&mut net, &cfg)
}

/// Exact expected makespan of a **series-parallel** task DAG, or `None`
/// if the DAG (after source/sink augmentation) is not series-parallel.
///
/// With `max_atoms = usize::MAX` the computation is exact
/// (pseudo-polynomial in the support sizes); tests use this as ground
/// truth for Dodin on SP inputs.
pub fn exact_sp_expected_makespan(
    dag: &Dag,
    dist_of: impl FnMut(NodeId) -> DiscreteDist,
    max_atoms: usize,
) -> Option<DiscreteDist> {
    let mut net = ArcNetwork::from_task_dag(dag, dist_of);
    let cfg = ReduceConfig {
        max_atoms,
        allow_duplication: false,
        max_operations: usize::MAX,
    };
    match reduce(&mut net, &cfg) {
        Ok(out) => Some(out.dist),
        Err(ReduceError::NotSeriesParallel) => None,
        Err(e) => panic!("unexpected reduction failure: {e}"),
    }
}

/// Whether the task DAG is series-parallel (in the two-terminal sense,
/// after virtual source/sink augmentation).
///
/// Runs the reduction engine structurally (point-mass distributions, so
/// every merge is `O(1)`).
pub fn is_series_parallel(dag: &Dag) -> bool {
    exact_sp_expected_makespan(dag, |_| DiscreteDist::point(0.0), usize::MAX).is_some()
}

/// Forward independence propagation — the closed form of Dodin's
/// duplication fixpoint.
///
/// Computes, in one topological pass,
///
/// ```text
/// C(v) = D(v) ⊛ max_indep { C(p) : p ∈ Pred(v) },
/// result = max_indep { C(s) : s a sink }
/// ```
///
/// Carrying Dodin's node duplication to completion unfolds the DAG into
/// an in-tree in which every shared ancestor is replaced by independent
/// copies with identical marginals; evaluating that tree bottom-up is
/// precisely the recurrence above. The two implementations are not
/// identical on non-SP inputs (duplication keeps series-parallel regions
/// exact; this pass breaks sharing at every join): the
/// `forward_equivalence::dodin_forward_tracks_duplication_*` tests in
/// `tests/dodin_factorization.rs` hold them within a 3% band, with
/// unbounded support. The duplication engine remains available as the
/// literature-faithful reference and for extracting reduction
/// statistics.
///
/// Cost: `O(|V| + |E|)` distribution operations, each bounded by
/// `max_atoms` — this is what makes Dodin usable at the paper's
/// 2 870-task scale.
///
/// `topo` must be a topological order of `dag` over all its nodes (a
/// prepared graph's shared order, so nothing is recomputed per failure
/// model).
pub fn dodin_forward_evaluate(
    dag: &Dag,
    topo: &[NodeId],
    mut dist_of: impl FnMut(NodeId) -> DiscreteDist,
    max_atoms: usize,
) -> DiscreteDist {
    assert!(dag.node_count() > 0, "cannot evaluate an empty DAG");
    debug_assert_eq!(topo.len(), dag.node_count(), "topo must cover the DAG");
    let cap = |mut d: DiscreteDist| {
        d.reduce_support_in_place(max_atoms);
        d
    };
    let mut completion: Vec<Option<DiscreteDist>> = vec![None; dag.node_count()];
    for &v in topo {
        let d = dist_of(v);
        let preds = dag.preds(v);
        // Identical fold to the historical "clone the first predecessor,
        // max the rest, convolve the node" — minus the clone: the first
        // binary operation reads the predecessor's completion in place.
        let done = match preds.split_first() {
            None => d,
            Some((&p0, rest)) => {
                let c0 = completion[p0.index()]
                    .as_ref()
                    .expect("topological order visits predecessors first");
                let mut start: Option<DiscreteDist> = None;
                for &p in rest {
                    let c = completion[p.index()]
                        .as_ref()
                        .expect("topological order visits predecessors first");
                    start = Some(cap(match &start {
                        None => c0.max_independent(c),
                        Some(s) => s.max_independent(c),
                    }));
                }
                cap(match &start {
                    None => c0.convolve(&d),
                    Some(s) => s.convolve(&d),
                })
            }
        };
        completion[v.index()] = Some(done);
    }
    let mut result: Option<DiscreteDist> = None;
    for v in dag.nodes().filter(|&v| dag.out_degree(v) == 0) {
        let c = completion[v.index()].as_ref().expect("all nodes computed");
        result = Some(match &result {
            None => c.clone(),
            Some(r) => cap(r.max_independent(c)),
        });
    }
    result.expect("non-empty DAG has at least one sink")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_dag::Dag;
    use stochdag_dist::two_state;

    fn point(dag: &Dag) -> impl FnMut(NodeId) -> DiscreteDist + '_ {
        |i| DiscreteDist::point(dag.weight(i))
    }

    #[test]
    fn chain_reduces_to_sum() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(3.0);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let d = exact_sp_expected_makespan(&g, point(&g), usize::MAX).unwrap();
        assert!(d.is_point());
        assert!((d.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_is_series_parallel() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(3.0);
        let d = g.add_node(1.0);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        assert!(is_series_parallel(&g));
        let dist = exact_sp_expected_makespan(&g, point(&g), usize::MAX).unwrap();
        assert!(
            (dist.mean() - 5.0).abs() < 1e-12,
            "deterministic diamond = d(G)"
        );
    }

    #[test]
    fn n_graph_is_not_series_parallel() {
        // 1→3, 1→4, 2→4: the classical forbidden "N".
        let mut g = Dag::new();
        let n1 = g.add_node(1.0);
        let n2 = g.add_node(1.0);
        let n3 = g.add_node(1.0);
        let n4 = g.add_node(1.0);
        g.add_edge(n1, n3);
        g.add_edge(n1, n4);
        g.add_edge(n2, n4);
        assert!(!is_series_parallel(&g));
    }

    #[test]
    fn dodin_handles_the_n_graph() {
        let mut g = Dag::new();
        let n1 = g.add_node(1.0);
        let n2 = g.add_node(4.0);
        let n3 = g.add_node(2.0);
        let n4 = g.add_node(1.0);
        g.add_edge(n1, n3);
        g.add_edge(n1, n4);
        g.add_edge(n2, n4);
        let out = dodin_evaluate(&g, point(&g), &ReduceConfig::default()).unwrap();
        assert!(out.duplications >= 1, "N graph requires duplication");
        // Deterministic weights: duplication is harmless, result must be
        // the true makespan max(1+2, 1+1, 4+1) = 5.
        assert!((out.dist.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_reduce_by_parallel_max() {
        let mut g = Dag::new();
        g.add_node(3.0);
        g.add_node(7.0);
        g.add_node(5.0);
        let d = exact_sp_expected_makespan(&g, point(&g), usize::MAX).unwrap();
        assert!((d.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exact_sp_on_stochastic_fork_join() {
        // source a, two parallel tasks b, c, sink d; 2-state durations.
        let mut g = Dag::new();
        let a = g.add_node(0.0);
        let b = g.add_node(1.0);
        let c = g.add_node(1.0);
        let d = g.add_node(0.0);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let p = 0.9;
        let dist =
            exact_sp_expected_makespan(&g, |i| two_state(g.weight(i), p), usize::MAX).unwrap();
        // max of two iid {1 w.p. .9, 2 w.p. .1}: P(max=1)=0.81, P(max=2)=0.19.
        assert!((dist.mean() - (1.0 * 0.81 + 2.0 * 0.19)).abs() < 1e-12);
    }

    #[test]
    fn dodin_exact_on_sp_inputs() {
        // On an SP DAG, Dodin performs no duplication and equals the
        // exact SP evaluation.
        let mut g = Dag::new();
        let a = g.add_node(2.0);
        let b = g.add_node(1.0);
        let c = g.add_node(3.0);
        let d = g.add_node(2.0);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let p = 0.95;
        let exact =
            exact_sp_expected_makespan(&g, |i| two_state(g.weight(i), p), usize::MAX).unwrap();
        let dodin =
            dodin_evaluate(&g, |i| two_state(g.weight(i), p), &ReduceConfig::default()).unwrap();
        assert_eq!(dodin.duplications, 0);
        assert!((dodin.dist.mean() - exact.mean()).abs() < 1e-9);
    }

    #[test]
    fn operation_limit_is_enforced() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        g.add_edge(a, b);
        let mut net = ArcNetwork::from_task_dag(&g, |_| DiscreteDist::point(1.0));
        let cfg = ReduceConfig {
            max_operations: 1,
            ..Default::default()
        };
        assert!(matches!(
            reduce(&mut net, &cfg),
            Err(ReduceError::OperationLimitExceeded { limit: 1 })
        ));
    }

    #[test]
    fn atom_cap_keeps_mean_close() {
        // Long stochastic chain: capped evaluation should track the
        // uncapped mean closely (sums are exact in mean regardless of
        // coarsening; maxima introduce only small bias).
        let mut g = Dag::new();
        let mut prev = None;
        for _ in 0..30 {
            let v = g.add_node(1.0);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        let exact = exact_sp_expected_makespan(&g, |_| two_state(1.0, 0.9), usize::MAX).unwrap();
        let capped = exact_sp_expected_makespan(&g, |_| two_state(1.0, 0.9), 16).unwrap();
        assert!(
            (exact.mean() - capped.mean()).abs() < 1e-9,
            "chain means are exact"
        );
        assert!(capped.len() <= 16);
    }

    #[test]
    fn reduction_counts_reported() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(1.0);
        g.add_edge(a, b);
        let out = dodin_evaluate(&g, point(&g), &ReduceConfig::default()).unwrap();
        assert!(out.series > 0);
        assert_eq!(out.duplications, 0);
        assert!((out.dist.mean() - 2.0).abs() < 1e-12);
    }
}
