//! The campaign workloads and the seeded specs they submit.
//!
//! Every spec is generated here as TOML text from the benchmark seed;
//! the program under test only ever sees that text (parsed with
//! `SweepSpec::from_str_auto`, which is part of the timed set-up).

use stochdag_engine::{EngineError, SweepSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PanelCold,
    SpoolFanout,
    ServeOverlap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PanelCold,
        Workload::SpoolFanout,
        Workload::ServeOverlap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PanelCold => "panel-cold",
            Workload::SpoolFanout => "spool-fanout",
            Workload::ServeOverlap => "serve-overlap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed every spec of this workload carries, derived from the
    /// benchmark seed (so one `--seed` fixes every input).
    pub fn spec_seed(self, bench_seed: u64) -> u64 {
        let tag = Workload::ALL.iter().position(|w| *w == self).unwrap_or(0) as u64;
        mix(bench_seed ^ mix(tag + 1)) & ((1 << 53) - 1)
    }
}

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (mix(self.0) % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn list<T: std::fmt::Display>(items: &[T], quote: bool) -> String {
    let q = if quote { "\"" } else { "" };
    let parts: Vec<String> = items.iter().map(|i| format!("{q}{i}{q}")).collect();
    format!("[{}]", parts.join(", "))
}

/// One campaign spec as TOML text.
#[derive(Clone)]
pub struct SpecText {
    pub name: String,
    pub seed: u64,
    pub pfails: Vec<f64>,
    pub estimators: Vec<&'static str>,
    pub reference_trials: usize,
    /// `(class, ks)` factorization sources.
    pub factorizations: Vec<(&'static str, Vec<usize>)>,
}

impl SpecText {
    pub fn toml(&self) -> String {
        let mut t = format!(
            "name = \"{}\"\nseed = {}\npfails = {}\nestimators = {}\nreference_trials = {}\n",
            self.name,
            self.seed,
            list(&self.pfails, false),
            list(&self.estimators, true),
            self.reference_trials
        );
        for (class, ks) in &self.factorizations {
            t += &format!("\n[[dags]]\nkind = \"{class}\"\nks = {}\n", list(ks, false));
        }
        t
    }

    pub fn parse(&self) -> Result<SweepSpec, EngineError> {
        SweepSpec::from_str_auto(&self.toml())
    }

    /// The spec cut down to its first source's smallest instance (same
    /// estimators, models and reference) — a probe for layers this
    /// workload does not otherwise exercise.
    pub fn slice(&self) -> SpecText {
        let (class, ks) = &self.factorizations[0];
        let k = ks.iter().copied().min().unwrap_or(2);
        SpecText {
            name: format!("{}-slice", self.name),
            factorizations: vec![(class, vec![k])],
            ..self.clone()
        }
    }
}

const CLASSES: [&str; 3] = ["cholesky", "lu", "qr"];

/// panel-cold: the paper's estimator panel on the three factorizations.
pub fn panel_cold(seed: u64) -> SpecText {
    SpecText {
        name: "panel-cold".into(),
        seed,
        pfails: vec![0.01, 0.001],
        estimators: vec![
            "first-order",
            "second-order",
            "sculli",
            "corlca",
            "spelde:32",
            "dodin:128",
        ],
        reference_trials: 20_000,
        factorizations: CLASSES.iter().map(|c| (*c, vec![4, 6, 8])).collect(),
    }
}

/// spool-fanout: 30 one-(instance × estimator) leases.
pub fn spool_fanout(seed: u64) -> SpecText {
    SpecText {
        name: "spool-fanout".into(),
        seed,
        pfails: vec![0.01, 0.001],
        estimators: vec!["first-order", "sculli", "corlca"],
        reference_trials: 4_000,
        factorizations: ["cholesky", "lu"]
            .iter()
            .map(|c| (*c, (2..=6).collect()))
            .collect(),
    }
}

/// serve-overlap's pool: every (class, ks, estimators) sub-grid below,
/// all with one seed so overlapping cells share cache keys. Between
/// them the two estimator sets hold every family of the paper's panel,
/// so the accuracy metrics cover each one. The pool's content is fixed;
/// the seed picks the spec seed and the draws.
pub fn serve_pool(seed: u64) -> Vec<SpecText> {
    let panel_a = vec!["first-order", "second-order", "sculli", "spelde:32"];
    let panel_b = vec!["sculli", "corlca", "dodin:128"];
    let mut pool = Vec::new();
    for class in CLASSES {
        for ks in [vec![2, 3], vec![3, 4]] {
            for estimators in [panel_a.clone(), panel_b.clone()] {
                pool.push(SpecText {
                    name: format!("serve-{}", pool.len()),
                    seed,
                    pfails: vec![0.01, 0.001],
                    estimators,
                    reference_trials: 8_000,
                    factorizations: vec![(class, ks.clone())],
                });
            }
        }
    }
    pool
}

/// The order in which one serve client draws pool entries: first its
/// half of a seeded permutation (so the two clients jointly cover the
/// whole pool early), then uniform draws.
pub fn serve_draws(seed: u64, client: usize, clients: usize, pool: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut perm: Vec<usize> = (0..pool).collect();
    rng.shuffle(&mut perm);
    let mut own = Rng::new(mix(seed ^ (client as u64 + 1)));
    let mut draws: Vec<usize> = perm.into_iter().skip(client).step_by(clients).collect();
    while draws.len() < n {
        draws.push(own.below(pool));
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_parse_and_have_the_designed_shape() {
        let panel = panel_cold(5).parse().expect("panel-cold spec");
        assert_eq!(panel.estimators.len() * panel.model_count(), 12);
        let spool = spool_fanout(5).parse().expect("spool-fanout spec");
        assert_eq!(
            spool.dags.len() * 5 * spool.estimators.len(),
            30,
            "one lease per graph x estimator"
        );
        assert_eq!(serve_pool(5).len(), 12);
        assert!(serve_pool(5).iter().all(|s| s.parse().is_ok()));
    }

    #[test]
    fn serve_pool_sweeps_every_family_of_the_panel() {
        let pool = serve_pool(5);
        for spelling in panel_cold(5).estimators {
            assert!(
                pool.iter().any(|s| s.estimators.contains(&spelling)),
                "no pool entry sweeps {spelling}"
            );
        }
    }

    #[test]
    fn seeds_fix_inputs() {
        assert_eq!(panel_cold(9).toml(), panel_cold(9).toml());
        assert_ne!(
            Workload::PanelCold.spec_seed(1),
            Workload::PanelCold.spec_seed(2)
        );
        assert_eq!(serve_draws(3, 1, 2, 12, 40), serve_draws(3, 1, 2, 12, 40));
        let mut covered: Vec<usize> = (0..2).flat_map(|c| serve_draws(3, c, 2, 12, 0)).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..12).collect::<Vec<_>>());
    }
}
