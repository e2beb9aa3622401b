//! Dodin's reduction on real factorization DAGs: terminates, produces a
//! finite estimate, and reports duplication counts.

use stochdag_dist::two_state;
use stochdag_sp::{dodin_evaluate, is_series_parallel, ReduceConfig};
use stochdag_taskgraphs::{cholesky_dag, lu_dag, qr_dag, KernelTimings};

#[test]
fn factorization_dags_are_not_series_parallel() {
    let t = KernelTimings::unit();
    assert!(!is_series_parallel(&cholesky_dag(4, &t)));
    assert!(!is_series_parallel(&lu_dag(4, &t)));
    assert!(!is_series_parallel(&qr_dag(4, &t)));
}

#[test]
fn dodin_terminates_on_cholesky_k6() {
    let t = KernelTimings::paper_default();
    let g = cholesky_dag(6, &t);
    let cfg = ReduceConfig {
        max_atoms: 64,
        ..Default::default()
    };
    let out = dodin_evaluate(&g, |i| two_state(g.weight(i), 0.99), &cfg).unwrap();
    let d_g = g.longest_path_length();
    assert!(out.duplications > 0);
    assert!(
        out.dist.mean() >= d_g * 0.5,
        "mean {} vs d(G) {d_g}",
        out.dist.mean()
    );
    assert!(out.dist.mean() <= g.total_weight() * 2.0);
    eprintln!(
        "cholesky k=6: dups={} series={} parallel={} mean={} d(G)={}",
        out.duplications,
        out.series,
        out.parallel,
        out.dist.mean(),
        d_g
    );
}

#[test]
fn dodin_terminates_on_lu_k6() {
    let t = KernelTimings::paper_default();
    let g = lu_dag(6, &t);
    let cfg = ReduceConfig {
        max_atoms: 64,
        ..Default::default()
    };
    let out = dodin_evaluate(&g, |i| two_state(g.weight(i), 0.999), &cfg).unwrap();
    eprintln!(
        "lu k=6: dups={} mean={} d(G)={}",
        out.duplications,
        out.dist.mean(),
        g.longest_path_length()
    );
    assert!(out.dist.mean().is_finite());
}

mod forward_equivalence {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stochdag_dag::{Dag, NodeId};
    use stochdag_dist::two_state;
    use stochdag_sp::{dodin_evaluate, dodin_forward_evaluate, ReduceConfig};

    /// The duplication fixpoint and the forward propagation are two
    /// renderings of the same independence approximation; they are not
    /// identical (duplication keeps series-parallel regions exact and
    /// unfolds *downstream* structure, forward propagation breaks
    /// sharing at every join), but they must stay within a small
    /// relative band of each other - that is what justifies using the
    /// forward strategy as the scalable surrogate in the experiment
    /// harness.
    fn compare(g: &Dag, p: f64) {
        let dup = dodin_evaluate(
            g,
            |i| two_state(g.weight(i), p),
            &ReduceConfig {
                max_atoms: usize::MAX,
                ..Default::default()
            },
        )
        .unwrap();
        let topo = stochdag_dag::topological_order(g).unwrap();
        let fwd = dodin_forward_evaluate(g, &topo, |i| two_state(g.weight(i), p), usize::MAX);
        let rel = (dup.dist.mean() - fwd.mean()).abs() / dup.dist.mean();
        // The band is RNG-stream dependent (random DAG draws); 0.03
        // accommodates the vendored xoshiro-based rand shim's stream
        // while still pinning the two renderings to the same bias.
        assert!(
            rel < 0.03,
            "duplication {} vs forward {} (rel {rel}, dups={})",
            dup.dist.mean(),
            fwd.mean(),
            dup.duplications
        );
    }

    #[test]
    fn dodin_forward_tracks_duplication_on_n_graph() {
        let mut g = Dag::new();
        let n1 = g.add_node(1.0);
        let n2 = g.add_node(2.0);
        let n3 = g.add_node(1.5);
        let n4 = g.add_node(1.0);
        g.add_edge(n1, n3);
        g.add_edge(n1, n4);
        g.add_edge(n2, n4);
        compare(&g, 0.95);
    }

    #[test]
    fn dodin_forward_tracks_duplication_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..25 {
            let n = rng.gen_range(4..9);
            let mut g = Dag::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|_| g.add_node(rng.gen_range(0.5..3.0)))
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.45) {
                        g.add_edge(ids[i], ids[j]);
                    }
                }
            }
            compare(&g, 0.97 + 0.029 * rng.gen::<f64>()); // paper-regime failure rates
            let _ = trial;
        }
    }

    #[test]
    fn dodin_forward_tracks_duplication_on_cholesky_k4() {
        let t = stochdag_taskgraphs::KernelTimings::unit();
        let g = stochdag_taskgraphs::cholesky_dag(4, &t);
        compare(&g, 0.95);
    }
}
