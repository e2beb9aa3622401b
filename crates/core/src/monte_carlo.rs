//! Monte Carlo ground truth (paper Section II-A1 / V-C).
//!
//! Each trial samples, per task, the number of execution attempts until
//! the verification passes, sets the task's duration to
//! `attempts × aᵢ`, and computes one longest path. The estimate is the
//! mean over trials (the paper uses 300 000).
//!
//! Trials are embarrassingly parallel and run under Rayon with one
//! deterministic RNG per trial (`splitmix64(seed, trial)`), so results
//! are bit-reproducible regardless of thread count — the property the
//! hpc-parallel guides call out for parallel iterators with independent
//! work items.
//!
//! # The trial kernel
//!
//! At the paper's failure probabilities most trials fail no task, and
//! every node before a trial's first failed task (in topological order)
//! finishes exactly when it would without failures. So a run first
//! computes the graph's *failure-free pass* once — each node's nominal
//! completion time, its topological position, and the running maximum
//! of completions in topological order — and a trial is that pass plus
//! a recompute from its first failed task:
//!
//! 1. draw one uniform per task, in node order, from the trial's
//!    stream; success is the integer compare
//!    `m < ⌈psucc·2⁵³⌉` on the 53-bit draw `m` (exactly `u < psucc`
//!    for `u = m·2⁻⁵³`, the value `Rng::gen::<f64>()` returns);
//! 2. if no task failed, the makespan is the failure-free one;
//! 3. otherwise recompute completions from the lowest topological
//!    position of a failed task onward, seeded with the running
//!    maximum there.
//!
//! Per-thread completion buffers are restored lazily: a failed trial
//! resets only the completions between the previous failed trial's
//! first position and its own, so trials that fail early (high failure
//! rates) pay no restore cost.
//!
//! The bits cannot move against a full longest-path pass per trial:
//! every node before the first failed position has its nominal weight,
//! hence its nominal completion; `max` selects one of its operands, so
//! the running maximum there is the full pass's; and each recomputed
//! node adds the same operands in the same order. Every trial's
//! makespan — and with it every statistic, row, and cache payload — is
//! the full pass's, bit for bit. The tests keep that full pass as the
//! oracle.

use crate::estimator::{Estimate, Estimator, PreparedEstimator};
use crate::model::FailureModel;
use crate::scenario::{ScenarioModel, UnsupportedScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;
use stochdag_dag::{Dag, FrozenDag, PreparedDag};

serde::codec! {
    /// How task durations are sampled in each trial (a spec's
    /// `reference_sampling`: `"geometric"` or `"two-state"`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum SamplingModel {
        /// The paper's ground-truth model: re-execute until success
        /// (geometric number of attempts).
        Geometric = "geometric",
        /// At most one re-execution (`aᵢ` or `2aᵢ`) — the first-order
        /// model's own assumption; used to validate the analytical expansion
        /// separately from the model truncation.
        TwoState = "two-state",
    }
}

/// Monte Carlo statistics.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloResult {
    /// Mean makespan over all trials — the expected-makespan estimate.
    pub mean: f64,
    /// Sample variance of the makespan.
    pub variance: f64,
    /// Standard error of `mean` (`sd / √trials`).
    pub std_error: f64,
    /// Smallest makespan observed.
    pub min: f64,
    /// Largest makespan observed.
    pub max: f64,
    /// Number of trials.
    pub trials: usize,
}

impl MonteCarloResult {
    /// Half-width of the ~99.7% (3σ) confidence interval on the mean.
    pub fn ci3_half_width(&self) -> f64 {
        3.0 * self.std_error
    }
}

/// The brute-force Monte Carlo estimator.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloEstimator {
    trials: usize,
    seed: u64,
    sampling: SamplingModel,
    parallel: bool,
    antithetic: bool,
}

impl MonteCarloEstimator {
    /// Estimator with the given trial count (paper: 300 000), seed 0,
    /// geometric sampling, parallel execution.
    pub fn new(trials: usize) -> MonteCarloEstimator {
        assert!(trials > 0, "need at least one trial");
        MonteCarloEstimator {
            trials,
            seed: 0,
            sampling: SamplingModel::Geometric,
            parallel: true,
            antithetic: false,
        }
    }

    /// The paper's configuration: 300 000 trials.
    pub fn paper_default() -> MonteCarloEstimator {
        MonteCarloEstimator::new(300_000)
    }

    /// Set the master seed (each trial derives its own stream from it).
    pub fn with_seed(mut self, seed: u64) -> MonteCarloEstimator {
        self.seed = seed;
        self
    }

    /// Choose the sampling model.
    pub fn with_sampling(mut self, sampling: SamplingModel) -> MonteCarloEstimator {
        self.sampling = sampling;
        self
    }

    /// Force sequential execution (profiling/debugging).
    pub fn sequential(mut self) -> MonteCarloEstimator {
        self.parallel = false;
        self
    }

    /// Enable antithetic variates: trials are generated in mirrored
    /// pairs (`u` / `1 − u` per task). The makespan is monotone in every
    /// task duration, so the pair members are negatively correlated and
    /// the estimator's variance drops at equal cost (quantified by the
    /// `mc_convergence` bench and the variance-reduction unit test).
    pub fn antithetic(mut self) -> MonteCarloEstimator {
        self.antithetic = true;
        self
    }

    /// Number of configured trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Run the simulation and return full statistics.
    pub fn run(&self, dag: &Dag, model: &FailureModel) -> MonteCarloResult {
        self.run_scenario_on(&dag.freeze(), model, &ScenarioModel::Iid, &mut Vec::new())
    }

    /// Run the simulation under a correlated [`ScenarioModel`] over an
    /// already-frozen view, with a caller-owned success-probability
    /// buffer — the shared core of [`MonteCarloEstimator::run`] and the
    /// prepared path (a prepared estimator freezes once and reuses
    /// `psucc` across every model it evaluates).
    ///
    /// `Iid` samples every task with `psucc_i = e^{−λ a_i}`.
    /// `NodeHazard` reduces to inhomogeneous i.i.d. sampling with
    /// per-task success probability `psucc_i^{h_i}` (a hazard
    /// multiplier on λ). `GroupHazard` draws the per-group hot/cold
    /// Bernoullis *first* from the same per-trial RNG stream, then
    /// samples tasks with `psucc_i^m` when their group is hot — so
    /// same-group tasks fail in a correlated way while trials stay
    /// deterministic per (seed, trial). The antithetic-variates knob is
    /// ignored on the group-correlated path (mirroring the group draw
    /// would bias the mixture weights).
    ///
    /// Panics if the scenario's shape does not match the graph (the
    /// engine validates scenarios at spec-resolution time).
    fn run_scenario_on(
        &self,
        frozen: &FrozenDag,
        model: &FailureModel,
        scenario: &ScenarioModel,
        psucc: &mut Vec<f64>,
    ) -> MonteCarloResult {
        if frozen.node_count() == 0 {
            return MonteCarloResult {
                mean: 0.0,
                variance: 0.0,
                std_error: 0.0,
                min: 0.0,
                max: 0.0,
                trials: self.trials,
            };
        }
        self.summarize(&self.makespans(frozen, model, scenario, psucc))
    }

    /// Every trial's makespan, in trial order, for a non-empty graph.
    ///
    /// Makespans are collected *in trial order* and reduced
    /// sequentially by [`Self::summarize`], so the result is
    /// bit-identical regardless of thread count (a parallel tree
    /// reduction would reorder the floating-point sums). 8 bytes per
    /// trial is negligible next to the sampling work.
    fn makespans(
        &self,
        frozen: &FrozenDag,
        model: &FailureModel,
        scenario: &ScenarioModel,
        psucc: &mut Vec<f64>,
    ) -> Vec<f64> {
        if let Err(msg) = scenario.validate(frozen.node_count()) {
            panic!("invalid failure scenario: {msg}");
        }
        // Per-task success probabilities, hoisted out of the trial loop.
        psucc.clear();
        psucc.extend(frozen.weights.iter().map(|&a| model.psuccess_of_weight(a)));
        let pass = &FailureFreePass::new(frozen);
        match scenario {
            ScenarioModel::Iid => self.iid_makespans(pass, psucc),
            ScenarioModel::NodeHazard { hazard } => {
                for (p, &h) in psucc.iter_mut().zip(hazard) {
                    *p = p.powf(h);
                }
                self.iid_makespans(pass, psucc)
            }
            ScenarioModel::GroupHazard {
                group_of,
                n_groups,
                group_prob,
                hazard,
            } => {
                // Hot-member per-attempt success probability, hoisted so
                // the trial loop never calls powf.
                let psucc_hot: Vec<f64> = psucc.iter().map(|p| p.powf(*hazard)).collect();
                let (threshold, threshold_hot) =
                    (success_thresholds(psucc), success_thresholds(&psucc_hot));
                let psucc: &[f64] = psucc;
                let (n_groups, group_prob) = (*n_groups, *group_prob);
                let (seed, sampling) = (self.seed, self.sampling);
                self.collect_trials(
                    || (TrialScratch::new(pass), Vec::new()),
                    |(scratch, hot), t| {
                        let mut rng = trial_rng(seed, t);
                        hot.clear();
                        hot.extend((0..n_groups).map(|_| rng.gen::<f64>() < group_prob));
                        scratch.run_trial(pass, rng, false, sampling, |i| {
                            if hot[group_of[i] as usize] {
                                (psucc_hot[i], threshold_hot[i])
                            } else {
                                (psucc[i], threshold[i])
                            }
                        })
                    },
                )
            }
        }
    }

    /// Trials with independent task failures at per-task success
    /// probabilities `psucc`, plain or antithetic.
    fn iid_makespans(&self, pass: &FailureFreePass, psucc: &[f64]) -> Vec<f64> {
        let threshold = success_thresholds(psucc);
        let (seed, sampling, antithetic) = (self.seed, self.sampling, self.antithetic);
        self.collect_trials(
            || TrialScratch::new(pass),
            |scratch, t| {
                let (stream, mirror) = if antithetic {
                    (t >> 1, t & 1 == 1)
                } else {
                    (t, false)
                };
                scratch.run_trial(pass, trial_rng(seed, stream), mirror, sampling, |i| {
                    (psucc[i], threshold[i])
                })
            },
        )
    }

    /// Run `trial(scratch, t)` for every trial `t`, in parallel or
    /// sequentially, collecting the makespans in trial order.
    fn collect_trials<S>(
        &self,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(&mut S, u64) -> f64 + Sync,
    ) -> Vec<f64> {
        if self.parallel {
            (0..self.trials as u64)
                .into_par_iter()
                .map_init(init, trial)
                .collect()
        } else {
            let mut scratch = init();
            (0..self.trials as u64)
                .map(|t| trial(&mut scratch, t))
                .collect()
        }
    }

    /// Sequential trial-order reduction shared by every sampling path.
    fn summarize(&self, makespans: &[f64]) -> MonteCarloResult {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &m in makespans {
            sum += m;
            sum_sq += m * m;
            min = min.min(m);
            max = max.max(m);
        }
        let t = self.trials as f64;
        let mean = sum / t;
        let variance = (sum_sq / t - mean * mean).max(0.0);
        MonteCarloResult {
            mean,
            variance,
            std_error: (variance / t).sqrt(),
            min,
            max,
            trials: self.trials,
        }
    }
}

/// Monte-Carlo estimator bound to one prepared graph: the frozen CSR
/// view is shared with the preparation and the per-task success
/// probabilities live in a per-prep scratch buffer refilled per model
/// instead of allocated per call. [`PreparedEstimator::reseed`] swaps
/// the master seed, so one preparation serves many deterministically
/// seeded sweep cells.
struct PreparedMonteCarlo {
    est: MonteCarloEstimator,
    prepared: PreparedDag,
    psucc: Vec<f64>,
    last_std_error: Option<f64>,
}

impl PreparedEstimator for PreparedMonteCarlo {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        let r = self.est.run_scenario_on(
            self.prepared.frozen(),
            model,
            &ScenarioModel::Iid,
            &mut self.psucc,
        );
        self.last_std_error = Some(r.std_error);
        r.mean
    }

    fn std_error_hint(&self) -> Option<f64> {
        self.last_std_error
    }

    fn reseed(&mut self, seed: u64) {
        self.est.seed = seed;
    }

    fn estimate_scenario(
        &mut self,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Result<Estimate, UnsupportedScenario> {
        if scenario.is_iid() {
            return Ok(self.estimate_for(model));
        }
        let start = Instant::now();
        let r = self
            .est
            .run_scenario_on(self.prepared.frozen(), model, scenario, &mut self.psucc);
        self.last_std_error = Some(r.std_error);
        Ok(Estimate {
            value: r.mean,
            elapsed: start.elapsed(),
            name: self.name().to_string(),
            std_error: Some(r.std_error),
        })
    }
}

impl Estimator for MonteCarloEstimator {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedMonteCarlo {
            est: *self,
            prepared: prepared.clone(),
            psucc: Vec::new(),
            last_std_error: None,
        })
    }
}

/// `2⁵³`: a trial's draws are 53-bit integers `m`, each standing for
/// the uniform `u = m·2⁻⁵³` in `[0, 1)` that `Rng::gen::<f64>()` makes
/// of the same `next_u64() >> 11`.
const DRAWS: u64 = 1 << 53;

/// Integer success threshold of per-attempt success probability `p`:
/// draw `m` succeeds iff `m < threshold`. For `p < 1` the threshold is
/// `⌈p·2⁵³⌉` (the product is exact), so the compare is exactly
/// `u < p`, also for a mirrored draw `2⁵³ − m` (`u = 1 − m·2⁻⁵³`,
/// exact). `p ≥ 1` never fails — not even the mirrored `u = 1`.
fn success_thresholds(psucc: &[f64]) -> Vec<u64> {
    psucc
        .iter()
        .map(|&p| {
            if p >= 1.0 {
                u64::MAX
            } else {
                (p * DRAWS as f64).ceil() as u64
            }
        })
        .collect()
}

/// The 53-bit draw of one task from the raw 64 bits `raw`: the high
/// 53 bits, mirrored to `2⁵³ − m` (the uniform `1 − u`) on the
/// antithetic member of a pair.
#[inline]
fn draw(raw: u64, mirror: bool) -> u64 {
    let m = raw >> 11;
    if mirror {
        DRAWS - m
    } else {
        m
    }
}

/// The RNG stream of one trial (antithetic pairs share a stream).
fn trial_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)))
}

/// The graph's failure-free pass, computed once per run and shared
/// read-only by every trial (see the module doc).
struct FailureFreePass<'a> {
    frozen: &'a FrozenDag,
    /// Failure-free completion time of each node.
    completion: Vec<f64>,
    /// Topological position of each node: `frozen.topo[position[i]] == i`.
    position: Vec<u32>,
    /// `best_before[k]`: the running maximum of completions over the
    /// topological positions before `k`, accumulated as the full pass
    /// does; `best_before[n]` is the failure-free makespan.
    best_before: Vec<f64>,
}

impl<'a> FailureFreePass<'a> {
    fn new(frozen: &'a FrozenDag) -> FailureFreePass<'a> {
        let mut completion = Vec::new();
        frozen.longest_path_with_weights(&frozen.weights, &mut completion);
        let mut position = vec![0u32; frozen.node_count()];
        let mut best_before = Vec::with_capacity(frozen.node_count() + 1);
        let mut best = 0.0f64;
        for (k, &v) in frozen.topo.iter().enumerate() {
            position[v as usize] = k as u32;
            best_before.push(best);
            let c = completion[v as usize];
            if c > best {
                best = c;
            }
        }
        best_before.push(best);
        FailureFreePass {
            frozen,
            completion,
            position,
            best_before,
        }
    }
}

/// Per-thread reusable scratch buffers for a run's trials.
struct TrialScratch {
    weights: Vec<f64>,
    completion: Vec<f64>,
    /// `completion` holds failure-free values at every topological
    /// position below `clean`.
    clean: usize,
}

impl TrialScratch {
    fn new(pass: &FailureFreePass) -> TrialScratch {
        let n = pass.frozen.node_count();
        TrialScratch {
            weights: vec![0.0; n],
            completion: vec![0.0; n],
            clean: 0,
        }
    }

    /// Sample one failure scenario and return its makespan — the one
    /// kernel of every sampling path.
    ///
    /// Each task consumes exactly one 53-bit draw, in node order, and
    /// `law(i)` gives task `i`'s success probability and
    /// [threshold](success_thresholds). A failed task's attempt count
    /// comes from [`attempts_for`] at the draw's uniform: the 2-state
    /// model fails iff `u ≥ p`, the geometric model inverts the
    /// attempt-count CDF (`N = 1 + ⌊ln(1−u)/ln(1−p)⌋`).
    /// One-draw-per-task is what makes antithetic mirroring
    /// (`u → 1−u`, i.e. `m → 2⁵³ − m`) well defined: mirrored trials
    /// share the RNG stream of their pair.
    fn run_trial(
        &mut self,
        pass: &FailureFreePass,
        mut rng: StdRng,
        mirror: bool,
        sampling: SamplingModel,
        law: impl Fn(usize) -> (f64, u64),
    ) -> f64 {
        let n = pass.frozen.node_count();
        let mut first = n;
        for (i, (w, &a)) in self
            .weights
            .iter_mut()
            .zip(&pass.frozen.weights)
            .enumerate()
        {
            let (p, threshold) = law(i);
            let m = draw(rng.next_u64(), mirror);
            if m < threshold {
                *w = a;
            } else {
                *w = attempts_for(sampling, p, m as f64 / DRAWS as f64) as f64 * a;
                first = first.min(pass.position[i] as usize);
            }
        }
        if first == n {
            return pass.best_before[n];
        }
        // Positions before `first` must hold failure-free completions;
        // only those a previous trial overwrote need restoring.
        let topo = &pass.frozen.topo;
        if self.clean < first {
            for &v in &topo[self.clean..first] {
                self.completion[v as usize] = pass.completion[v as usize];
            }
        }
        self.clean = first;
        let mut best = pass.best_before[first];
        for &v in &topo[first..] {
            let i = v as usize;
            let mut start = 0.0f64;
            for &p in pass.frozen.preds(i) {
                let c = self.completion[p as usize];
                if c > start {
                    start = c;
                }
            }
            let c = start + self.weights[i];
            self.completion[i] = c;
            if c > best {
                best = c;
            }
        }
        best
    }
}

/// Number of execution attempts implied by success probability `p` and
/// uniform draw `u`. The trial kernel calls it for failed draws only;
/// the full-pass oracle in the tests calls it for every draw.
#[inline]
fn attempts_for(sampling: SamplingModel, p: f64, u: f64) -> u32 {
    match sampling {
        SamplingModel::TwoState => {
            if p >= 1.0 || u < p {
                1u32
            } else {
                2u32
            }
        }
        SamplingModel::Geometric => {
            if p >= 1.0 || u < p {
                1u32
            } else {
                // Inversion: P(N > k) = (1−p)^k.
                let q = 1.0 - p;
                let k = 1.0 + ((1.0 - u).max(f64::MIN_POSITIVE)).ln() / q.ln();
                (k.floor() as u32).clamp(1, 10_000)
            }
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-trial seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_dag::Dag;

    fn single(a: f64) -> Dag {
        let mut g = Dag::new();
        g.add_node(a);
        g
    }

    #[test]
    fn failure_free_is_exact() {
        let g = single(3.0);
        let mc = MonteCarloEstimator::new(1000);
        let r = mc.run(&g, &FailureModel::failure_free());
        assert_eq!(r.mean, 3.0);
        assert_eq!(r.variance, 0.0);
        assert_eq!(r.min, 3.0);
        assert_eq!(r.max, 3.0);
    }

    #[test]
    fn single_task_two_state_matches_closed_form() {
        let a = 1.0;
        let lambda = 0.2231435513; // pfail = 1 − e^{−λ} = 0.2
        let g = single(a);
        let mc = MonteCarloEstimator::new(200_000)
            .with_seed(7)
            .with_sampling(SamplingModel::TwoState);
        let r = mc.run(&g, &FailureModel::new(lambda));
        let want = 0.8 * 1.0 + 0.2 * 2.0;
        assert!(
            (r.mean - want).abs() < 4.0 * r.std_error + 1e-9,
            "mean {} want {want} (se {})",
            r.mean,
            r.std_error
        );
    }

    #[test]
    fn single_task_geometric_matches_closed_form() {
        // E[attempts] = 1/p ⇒ E[duration] = a/p.
        let a = 1.0;
        let p = 0.8f64;
        let lambda = -(p.ln()) / a;
        let g = single(a);
        let mc = MonteCarloEstimator::new(200_000).with_seed(3);
        let r = mc.run(&g, &FailureModel::new(lambda));
        let want = a / p;
        assert!(
            (r.mean - want).abs() < 4.0 * r.std_error,
            "mean {} want {want} (se {})",
            r.mean,
            r.std_error
        );
    }

    #[test]
    fn deterministic_given_seed_and_parallel() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(1.5);
        g.add_edge(a, b);
        g.add_edge(a, c);
        let m = FailureModel::new(0.1);
        let mc = MonteCarloEstimator::new(50_000).with_seed(99);
        let r1 = mc.run(&g, &m);
        let r2 = mc.run(&g, &m);
        let r3 = mc.sequential().run(&g, &m);
        assert_eq!(r1.mean, r2.mean, "parallel runs are reproducible");
        assert_eq!(r1.mean, r3.mean, "thread count does not change the result");
        assert_eq!(r1.min, r3.min);
        assert_eq!(r1.max, r3.max);
    }

    #[test]
    fn different_seeds_differ() {
        let g = single(1.0);
        let m = FailureModel::new(0.3);
        let r1 = MonteCarloEstimator::new(10_000).with_seed(1).run(&g, &m);
        let r2 = MonteCarloEstimator::new(10_000).with_seed(2).run(&g, &m);
        assert_ne!(r1.mean, r2.mean);
    }

    #[test]
    fn mean_bounded_by_min_max() {
        let g = single(1.0);
        let r = MonteCarloEstimator::new(5_000).run(&g, &FailureModel::new(0.5));
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.min >= 1.0, "a task takes at least one attempt");
    }

    #[test]
    fn std_error_shrinks_with_trials() {
        let g = single(1.0);
        let m = FailureModel::new(0.5);
        let small = MonteCarloEstimator::new(1_000).with_seed(5).run(&g, &m);
        let large = MonteCarloEstimator::new(100_000).with_seed(5).run(&g, &m);
        assert!(large.std_error < small.std_error);
    }

    #[test]
    fn estimate_carries_std_error() {
        let g = single(1.0);
        let e = MonteCarloEstimator::new(1_000).estimate(&g, &FailureModel::new(0.1));
        assert!(e.std_error.is_some());
        assert_eq!(e.name, "MonteCarlo");
    }

    #[test]
    fn geometric_exceeds_two_state_mean() {
        // Geometric allows >1 re-execution, so its mean is strictly
        // larger at high failure rates.
        let g = single(1.0);
        let m = FailureModel::new(0.7);
        let geo = MonteCarloEstimator::new(100_000).with_seed(11).run(&g, &m);
        let two = MonteCarloEstimator::new(100_000)
            .with_seed(11)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &m);
        assert!(geo.mean > two.mean);
    }
}

#[cfg(test)]
mod antithetic_tests {
    use super::*;
    use stochdag_dag::Dag;

    fn chain(n: usize) -> Dag {
        let mut g = Dag::new();
        let mut prev = None;
        for _ in 0..n {
            let v = g.add_node(1.0);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        g
    }

    #[test]
    fn antithetic_mean_is_unbiased() {
        // Single task closed form: E = a/p under geometric sampling.
        let mut g = Dag::new();
        g.add_node(1.0);
        let p = 0.8f64;
        let model = FailureModel::new(-(p.ln()));
        let r = MonteCarloEstimator::new(200_000)
            .with_seed(4)
            .antithetic()
            .run(&g, &model);
        assert!(
            (r.mean - 1.0 / p).abs() < 4.0 * r.std_error.max(1e-4),
            "antithetic mean {} want {}",
            r.mean,
            1.0 / p
        );
    }

    #[test]
    fn antithetic_reduces_empirical_estimator_variance() {
        // The makespan of a chain is Σ durations — monotone in every
        // uniform, so pairing must reduce the variance of the *mean*.
        // Measure by bootstrapping over independent seeds.
        // p = e^{-0.7} ~ 0.50 makes the duration-vs-uniform map steep, so
        // mirrored pairs are strongly negatively correlated; at tiny
        // failure rates the reduction exists but drowns in bootstrap
        // noise.
        let g = chain(10);
        let model = FailureModel::new(0.7);
        let trials = 2_000;
        let reps = 80;
        let spread = |anti: bool| -> f64 {
            let means: Vec<f64> = (0..reps)
                .map(|s| {
                    let mut mc = MonteCarloEstimator::new(trials).with_seed(1000 + s);
                    if anti {
                        mc = mc.antithetic();
                    }
                    mc.run(&g, &model).mean
                })
                .collect();
            let m = means.iter().sum::<f64>() / reps as f64;
            means.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / reps as f64
        };
        let plain = spread(false);
        let anti = spread(true);
        assert!(
            anti < plain,
            "antithetic variance {anti:.3e} not below plain {plain:.3e}"
        );
    }

    #[test]
    fn mirrored_pairs_share_stream() {
        // With antithetic sampling and 2 trials, the two makespans come
        // from mirrored uniforms: for a single task their attempt counts
        // straddle the mean whenever one of them failed.
        let mut g = Dag::new();
        g.add_node(1.0);
        let model = FailureModel::new(0.5);
        let r = MonteCarloEstimator::new(2)
            .with_seed(9)
            .antithetic()
            .run(&g, &model);
        assert!(r.trials == 2);
        assert!(r.min >= 1.0);
    }
}

#[cfg(test)]
mod scenario_tests {
    use super::*;
    use crate::scenario::ScenarioModel;
    use stochdag_dag::Dag;

    fn diamond() -> Dag {
        let mut g = Dag::new();
        let s = g.add_node(1.0);
        let a = g.add_node(2.0);
        let b = g.add_node(3.0);
        let t = g.add_node(1.0);
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, t);
        g.add_edge(b, t);
        g
    }

    fn scenario_mean(g: &Dag, model: &FailureModel, scenario: &ScenarioModel, seed: u64) -> f64 {
        let mc = MonteCarloEstimator::new(20_000).with_seed(seed);
        mc.run_scenario_on(&g.freeze(), model, scenario, &mut Vec::new())
            .mean
    }

    #[test]
    fn iid_scenario_is_bit_identical_to_plain_run() {
        let g = diamond();
        let m = FailureModel::new(0.1);
        let mc = MonteCarloEstimator::new(5_000).with_seed(17);
        let plain = mc.run(&g, &m);
        let via = mc.run_scenario_on(&g.freeze(), &m, &ScenarioModel::Iid, &mut Vec::new());
        assert_eq!(plain.mean, via.mean);
        assert_eq!(plain.variance, via.variance);
    }

    #[test]
    fn never_hot_group_scenario_matches_iid_statistically() {
        // q = 0 ⇒ the mixture collapses to i.i.d. (the trial streams
        // differ because group uniforms are drawn first, so compare
        // means, not bits).
        let g = diamond();
        let m = FailureModel::new(0.2);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0, 1],
            n_groups: 2,
            group_prob: 0.0,
            hazard: 5.0,
        };
        let corr = scenario_mean(&g, &m, &scenario, 3);
        let iid = MonteCarloEstimator::new(20_000).with_seed(4).run(&g, &m);
        assert!(
            (corr - iid.mean).abs() < 6.0 * iid.std_error.max(1e-3),
            "q=0 mixture {corr} vs iid {}",
            iid.mean
        );
    }

    #[test]
    fn always_hot_group_matches_uniform_node_hazard() {
        // q = 1 ⇒ every task runs at hazard m, which is exactly the
        // uniform NodeHazard scenario.
        let g = diamond();
        let m = FailureModel::new(0.15);
        let hot = ScenarioModel::GroupHazard {
            group_of: vec![0, 0, 1, 1],
            n_groups: 2,
            group_prob: 1.0,
            hazard: 3.0,
        };
        let node = ScenarioModel::NodeHazard {
            hazard: vec![3.0; 4],
        };
        let a = scenario_mean(&g, &m, &hot, 5);
        let b = scenario_mean(&g, &m, &node, 6);
        assert!(
            (a - b).abs() / b < 0.02,
            "always-hot {a} vs node-hazard {b}"
        );
    }

    #[test]
    fn correlation_raises_the_expected_makespan() {
        let g = diamond();
        let m = FailureModel::new(0.1);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 0, 0, 0],
            n_groups: 1,
            group_prob: 0.3,
            hazard: 6.0,
        };
        let corr = scenario_mean(&g, &m, &scenario, 9);
        let iid = MonteCarloEstimator::new(20_000).with_seed(9).run(&g, &m);
        assert!(
            corr > iid.mean,
            "hot racks must hurt: {corr} vs {}",
            iid.mean
        );
    }

    #[test]
    fn group_trials_are_deterministic_per_seed() {
        let g = diamond();
        let m = FailureModel::new(0.25);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0, 1],
            n_groups: 2,
            group_prob: 0.4,
            hazard: 2.0,
        };
        let a = scenario_mean(&g, &m, &scenario, 42);
        let b = scenario_mean(&g, &m, &scenario, 42);
        let c = scenario_mean(&g, &m, &scenario, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prepared_estimate_scenario_reports_std_error() {
        let g = diamond();
        let prepared = PreparedDag::new(g);
        let mut p = MonteCarloEstimator::new(2_000).prepare(&prepared);
        let est = p
            .estimate_scenario(
                &FailureModel::new(0.1),
                &ScenarioModel::NodeHazard {
                    hazard: vec![1.0, 2.0, 1.0, 2.0],
                },
            )
            .unwrap();
        assert!(est.value > 0.0);
        assert!(est.std_error.is_some());
        assert_eq!(est.name, "MonteCarlo");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use stochdag_taskgraphs::{
        cholesky_dag, fork_join_dag, layered_random_dag, lu_dag, qr_dag, KernelTimings,
        LayeredConfig,
    };

    /// The full-pass kernel the failure-free pass replaced, kept as the
    /// oracle: every trial draws every task as an `f64` uniform and
    /// runs a whole longest-path pass.
    fn oracle_makespans(
        mc: &MonteCarloEstimator,
        frozen: &FrozenDag,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Vec<f64> {
        let n = frozen.node_count();
        let psucc: Vec<f64> = frozen
            .weights
            .iter()
            .map(|&a| model.psuccess_of_weight(a))
            .collect();
        let mut weights = vec![0.0; n];
        let mut completion = Vec::new();
        (0..mc.trials as u64)
            .map(|trial| {
                if let ScenarioModel::GroupHazard {
                    group_of,
                    n_groups,
                    group_prob,
                    hazard,
                } = scenario
                {
                    let mut rng = StdRng::seed_from_u64(splitmix64(mc.seed ^ splitmix64(trial)));
                    let hot: Vec<bool> = (0..*n_groups)
                        .map(|_| rng.gen::<f64>() < *group_prob)
                        .collect();
                    for i in 0..n {
                        let p = if hot[group_of[i] as usize] {
                            psucc[i].powf(*hazard)
                        } else {
                            psucc[i]
                        };
                        let u: f64 = rng.gen();
                        weights[i] = attempts_for(mc.sampling, p, u) as f64 * frozen.weights[i];
                    }
                } else {
                    let (stream, mirror) = if mc.antithetic {
                        (trial >> 1, trial & 1 == 1)
                    } else {
                        (trial, false)
                    };
                    let mut rng = StdRng::seed_from_u64(splitmix64(mc.seed ^ splitmix64(stream)));
                    for i in 0..n {
                        let p = match scenario {
                            ScenarioModel::NodeHazard { hazard } => psucc[i].powf(hazard[i]),
                            _ => psucc[i],
                        };
                        let mut u: f64 = rng.gen();
                        if mirror {
                            u = 1.0 - u;
                        }
                        weights[i] = attempts_for(mc.sampling, p, u) as f64 * frozen.weights[i];
                    }
                }
                frozen.longest_path_with_weights(&weights, &mut completion)
            })
            .collect()
    }

    fn chain(weights: &[f64]) -> Dag {
        let mut g = Dag::new();
        let mut prev = None;
        for &w in weights {
            let v = g.add_node(w);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        g
    }

    /// Node ids run against the edges, so the topological order is not
    /// the id order the draws follow.
    fn reversed_ids() -> Dag {
        let mut g = Dag::new();
        let v: Vec<_> = [1.5, 0.5, 2.0, 1.0, 3.0, 0.25]
            .iter()
            .map(|&w| g.add_node(w))
            .collect();
        for (a, b) in [(5, 3), (5, 4), (4, 2), (3, 2), (3, 1), (2, 0), (1, 0)] {
            g.add_edge(v[a], v[b]);
        }
        g
    }

    fn graphs() -> Vec<(&'static str, Dag)> {
        let timings = KernelTimings::paper_default();
        let mut single = Dag::new();
        single.add_node(2.0);
        vec![
            ("single", single),
            ("chain", chain(&[1.0, 0.5, 2.0, 1.25, 0.75])),
            ("fork-join", fork_join_dag(3, 2, 1.0)),
            ("layered", layered_random_dag(&LayeredConfig::default(), 7)),
            ("reversed-ids", reversed_ids()),
            ("cholesky4", cholesky_dag(4, &timings)),
            ("lu4", lu_dag(4, &timings)),
            ("qr4", qr_dag(4, &timings)),
        ]
    }

    fn scenarios(n: usize) -> Vec<ScenarioModel> {
        vec![
            ScenarioModel::Iid,
            ScenarioModel::NodeHazard {
                hazard: (0..n).map(|i| 1.0 + 1.5 * (i % 3) as f64).collect(),
            },
            ScenarioModel::GroupHazard {
                group_of: (0..n).map(|i| (i % 3) as u32).collect(),
                n_groups: 3,
                group_prob: 0.3,
                hazard: 4.0,
            },
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn trials_match_the_full_pass_oracle_bit_for_bit() {
        const LAMBDAS: [f64; 5] = [0.0, 0.01, 0.2, 2.0, 1e6];
        let mut cases = 0;
        for (name, dag) in graphs() {
            let frozen = dag.freeze();
            let n = frozen.node_count();
            // The extremes really are the edge cases they stand for.
            assert!(frozen
                .weights
                .iter()
                .all(|&a| FailureModel::new(0.0).psuccess_of_weight(a) == 1.0));
            assert!(frozen
                .weights
                .iter()
                .all(|&a| FailureModel::new(1e6).psuccess_of_weight(a) == 0.0));
            for lambda in LAMBDAS {
                let model = FailureModel::new(lambda);
                for sampling in [SamplingModel::Geometric, SamplingModel::TwoState] {
                    for antithetic in [false, true] {
                        for scenario in scenarios(n) {
                            let mut mc = MonteCarloEstimator::new(301)
                                .with_seed(lambda.to_bits() ^ n as u64)
                                .with_sampling(sampling);
                            if antithetic {
                                mc = mc.antithetic();
                            }
                            let case = format!(
                                "{name} λ={lambda} {sampling:?} antithetic={antithetic} {scenario:?}"
                            );
                            let want = oracle_makespans(&mc, &frozen, &model, &scenario);
                            let got = mc.sequential().makespans(
                                &frozen,
                                &model,
                                &scenario,
                                &mut Vec::new(),
                            );
                            assert_eq!(bits(&got), bits(&want), "{case}");
                            let par =
                                mc.run_scenario_on(&frozen, &model, &scenario, &mut Vec::new());
                            let seq = mc.sequential().summarize(&want);
                            assert_eq!(
                                bits(&[par.mean, par.variance, par.std_error, par.min, par.max]),
                                bits(&[seq.mean, seq.variance, seq.std_error, seq.min, seq.max]),
                                "parallel vs sequential: {case}"
                            );
                            assert_eq!(par.trials, seq.trials);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 8 * 5 * 2 * 2 * 3);
    }

    #[test]
    fn integer_success_test_matches_the_float_compare_at_every_boundary() {
        // Random trials almost never land a draw exactly on a
        // threshold, so the boundaries are checked draw by draw against
        // the full-pass kernel's test `p ≥ 1 || u < p`.
        let unit = 1.0 / DRAWS as f64;
        let mut ps = vec![
            0.0,
            f64::MIN_POSITIVE,
            2f64.powi(-60),
            unit,
            0.3,
            0.5,
            0.7,
            1.0 - unit,
            1.0,
        ];
        for lambda in [0.001, 0.01, 0.2, 2.0] {
            for a in [0.37, 1.0, 2.9] {
                ps.push(FailureModel::new(lambda).psuccess_of_weight(a));
            }
        }
        for p in ps {
            let threshold = success_thresholds(&[p])[0];
            let x = (p * DRAWS as f64).floor() as u64;
            let draws = [0, 1, x.saturating_sub(1), x, x + 1, x + 2, DRAWS - 1];
            for m in draws {
                let m = m.min(DRAWS - 1);
                for mirror in [false, true] {
                    let mut u = m as f64 * unit;
                    if mirror {
                        u = 1.0 - u;
                    }
                    let want = attempts_for(SamplingModel::TwoState, p, u) == 1;
                    assert_eq!(
                        draw(m << 11, mirror) < threshold,
                        want,
                        "p={p:e} m={m} mirror={mirror}"
                    );
                }
            }
        }
    }
}
