//! SEALS-style single-selection iterative ALS flow.
//!
//! Each round evaluates every candidate LAC with the shared batch
//! estimator and applies the single best one (smallest estimated error
//! increase, ties broken by larger area gain). The flow shares its LAC
//! families, estimator, and error evaluation with AccALS, so runtime
//! differences between the two isolate exactly what the paper measures:
//! the effect of selecting multiple LACs per round.

use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::{error, ErrorEval, MetricKind};
use estimate::BatchEstimator;
use lac::{apply, CandidateConfig};
use std::time::{Duration, Instant};

/// Configuration for a SEALS-style run.
#[derive(Debug, Clone)]
pub struct SealsConfig {
    /// The statistical error metric to constrain.
    pub metric: MetricKind,
    /// The error bound.
    pub error_bound: f64,
    /// Candidate generation knobs (shared with AccALS).
    pub candidates: CandidateConfig,
    /// Use exhaustive patterns when `2^n_pis` is at most this.
    pub max_exhaustive: usize,
    /// Number of random patterns otherwise.
    pub n_random_patterns: usize,
    /// Pattern seed.
    pub seed: u64,
    /// Hard cap on rounds.
    pub max_rounds: usize,
}

impl SealsConfig {
    /// Creates a configuration with the defaults shared with AccALS.
    ///
    /// # Panics
    ///
    /// Panics if `error_bound <= 0`.
    pub fn new(metric: MetricKind, error_bound: f64) -> Self {
        assert!(error_bound > 0.0, "error bound must be positive");
        SealsConfig {
            metric,
            error_bound,
            candidates: CandidateConfig::default(),
            max_exhaustive: 1 << 13,
            n_random_patterns: 1 << 13,
            seed: 0xACC_A15,
            max_rounds: 1_000_000,
        }
    }
}

/// The outcome of a SEALS-style run.
#[derive(Debug, Clone)]
pub struct SealsResult {
    /// The final approximate circuit.
    pub aig: Aig,
    /// Its measured error.
    pub error: f64,
    /// Number of rounds (= LACs applied, one per round).
    pub rounds: usize,
    /// Wall-clock time.
    pub runtime: Duration,
    /// Gate count of the input circuit.
    pub initial_ands: usize,
}

/// The SEALS-style engine.
#[derive(Debug, Clone)]
pub struct Seals {
    cfg: SealsConfig,
}

impl Seals {
    /// Creates the engine.
    pub fn new(cfg: SealsConfig) -> Self {
        Seals { cfg }
    }

    /// Runs the single-selection flow on `golden`.
    ///
    /// # Panics
    ///
    /// Panics if `golden` has no outputs or is cyclic.
    pub fn synthesize(&self, golden: &Aig) -> SealsResult {
        let cfg = &self.cfg;
        let start = Instant::now();
        let pats = Patterns::for_circuit(
            golden.n_pis(),
            cfg.max_exhaustive,
            cfg.n_random_patterns,
            cfg.seed,
        );
        let golden_sigs = simulate(golden, &pats).output_sigs(golden);
        let mut eval = ErrorEval::new(cfg.metric, &golden_sigs, pats.n_patterns());
        let initial_ands = golden.n_ands();

        let mut current = golden.clone();
        let mut e = 0.0_f64;
        let mut rounds = 0usize;
        let mut rounds_since_shrink = 0usize;

        for _ in 0..cfg.max_rounds {
            let sim = simulate(&current, &pats);
            eval.rebase(&sim.output_sigs(&current));
            let cands = lac::generate_candidates(&current, &sim, &cfg.candidates);
            if cands.is_empty() {
                break;
            }
            let mut estimator = BatchEstimator::new(&current, &sim, &eval);
            let mut scored = estimator.score_all(&cands);
            scored.retain(|s| s.gain > 0);
            if scored.is_empty() {
                break;
            }
            scored.sort_by(|a, b| {
                a.delta_e
                    .partial_cmp(&b.delta_e)
                    .expect("ΔE is never NaN")
                    .then(b.gain.cmp(&a.gain))
                    .then(a.lac.tn.cmp(&b.lac.tn))
            });

            // Try candidates in estimated order until one makes progress
            // (area shrinks, or the error moves at equal area); a bound
            // violation is terminal. Fully-masked nodes can otherwise be
            // rewritten back and forth forever at zero measured gain, and
            // adopting an area-growing edit lets the flow oscillate
            // between two circuits (grow with lower error, re-shrink,
            // repeat) — the same rule AccALS rounds use.
            let mut applied: Option<(aig::Aig, f64)> = None;
            for best in scored.into_iter().take(64) {
                let mut next = current.clone();
                apply(&mut next, &best.lac).expect("candidates apply cleanly");
                next.cleanup().expect("editing keeps the graph acyclic");
                let sim_next = simulate(&next, &pats);
                let e_next = error(
                    cfg.metric,
                    &golden_sigs,
                    &sim_next.output_sigs(&next),
                    pats.n_patterns(),
                );
                let progress = next.n_ands() <= current.n_ands()
                    && (next.n_ands() < current.n_ands() || e_next != e);
                let terminal = e_next > cfg.error_bound;
                if progress || terminal {
                    applied = Some((next, e_next));
                    break;
                }
            }
            let Some((next, e_next)) = applied else {
                break; // nothing moves the circuit: converged
            };
            rounds += 1;
            if e_next > cfg.error_bound {
                break;
            }
            if next.n_ands() < current.n_ands() {
                rounds_since_shrink = 0;
            } else {
                rounds_since_shrink += 1;
                if rounds_since_shrink >= 30 {
                    current = next;
                    e = e_next;
                    break;
                }
            }
            current = next;
            e = e_next;
        }

        SealsResult {
            aig: current,
            error: e,
            rounds,
            runtime: start.elapsed(),
            initial_ands,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seals_respects_bound_and_reduces_area() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let cfg = SealsConfig::new(MetricKind::Er, 0.05);
        let result = Seals::new(cfg).synthesize(&golden);
        assert!(result.error <= 0.05);
        assert!(result.aig.n_ands() < golden.n_ands());
        assert!(result.rounds >= 1);
    }

    #[test]
    fn seals_is_deterministic() {
        let golden = benchgen::multipliers::wallace_multiplier(4);
        let cfg = SealsConfig::new(MetricKind::Er, 0.05);
        let a = Seals::new(cfg.clone()).synthesize(&golden);
        let b = Seals::new(cfg).synthesize(&golden);
        assert_eq!(a.error, b.error);
        assert_eq!(a.aig.n_ands(), b.aig.n_ands());
    }

    #[test]
    fn seals_applies_one_lac_per_round() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let cfg = SealsConfig::new(MetricKind::Nmed, 0.005);
        let result = Seals::new(cfg).synthesize(&golden);
        // Rounds count LAC applications; the last (bound-violating) one
        // is rolled back, so area reduction needs at least rounds - 1.
        assert!(result.rounds >= 1);
        assert!(result.error <= 0.005);
    }

    #[test]
    fn seals_converges_without_growing_area_on_wal8() {
        // wal8 under ER 0.05 once adopted area-growing edits and
        // oscillated between two circuits until the round cap; a
        // 100-round cap makes that a quick failure rather than a hang.
        let golden = benchgen::suite::by_name("wal8").expect("suite circuit");
        let mut cfg = SealsConfig::new(MetricKind::Er, 0.05);
        cfg.max_rounds = 100;
        let result = Seals::new(cfg).synthesize(&golden);
        assert!(result.rounds < 100, "{} rounds", result.rounds);
        assert!(result.error <= 0.05, "error {}", result.error);
        assert!(result.aig.n_ands() <= golden.n_ands());
    }
}
