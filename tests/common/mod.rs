//! Production flow ≡ reference oracle, end to end.
//!
//! The production round generates candidates through the cross-round
//! store, scores them with the bound-pruned top-k estimator, and
//! measures candidate sets on the incremental trial engine (raced in
//! parallel on multi-threaded pools). `accals::reference` does each of
//! those the plain way: fresh candidates, dense scoring, full commit
//! and re-simulation of every set, sequentially. Every optimization
//! promises bit-identity, so at any thread count the two must walk the
//! identical round sequence and land on the identical circuit.

use accals::{Accals, AccalsConfig, SizeParam, SynthesisResult};
use aig::Aig;
use errmetrics::MetricKind;
use parkit::ThreadPool;

/// Round paths a flow took: `[single-mode rounds, reverted rounds,
/// rounds the random set won]`.
pub type PathCounts = [usize; 3];

fn leaked_pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

fn config(metric: MetricKind, bound: f64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.r_ref = SizeParam::Fixed(40);
    cfg.r_sel = SizeParam::Fixed(8);
    cfg
}

/// Asserts that `prod` walked the reference trajectory `reference`.
fn assert_same_trajectory(what: &str, prod: &SynthesisResult, reference: &SynthesisResult) {
    assert_eq!(
        prod.error.to_bits(),
        reference.error.to_bits(),
        "{what}: final error"
    );
    assert_eq!(
        prod.aig.n_ands(),
        reference.aig.n_ands(),
        "{what}: final gate count"
    );
    assert_eq!(
        prod.rounds.len(),
        reference.rounds.len(),
        "{what}: round count"
    );
    for (p, r) in prod.rounds.iter().zip(&reference.rounds) {
        let at = format!("{what} round {}", r.round);
        assert_eq!(p.applied, r.applied, "{at}: applied");
        assert_eq!(p.e_after.to_bits(), r.e_after.to_bits(), "{at}: e_after");
        assert_eq!(p.n_ands_after, r.n_ands_after, "{at}: n_ands_after");
        assert_eq!(p.n_candidates, r.n_candidates, "{at}: n_candidates");
        assert_eq!(p.r_top, r.r_top, "{at}: r_top");
        // The reference scores the whole retained population exactly;
        // production splits it into exact scores and pruned candidates.
        assert_eq!(r.scored_pruned, 0, "{at}: reference pruned");
        assert_eq!(
            r.scored_exact,
            p.scored_exact + p.scored_pruned,
            "{at}: scored population"
        );
    }
}

/// Runs every `(name, circuit, metric, bound)` case through production
/// and the reference oracle at 1, 2 and 8 threads, asserts identical
/// trajectories, and returns the round paths production took.
pub fn assert_production_matches_reference(cases: &[(&str, Aig, MetricKind, f64)]) -> PathCounts {
    let mut paths = [0usize; 3];
    for (name, golden, metric, bound) in cases {
        for threads in [1usize, 2, 8] {
            let pool = leaked_pool(threads);
            let cfg = config(*metric, *bound);
            let reference = accals::reference::synthesize(cfg.clone(), pool, golden);
            let prod = Accals::new(cfg).with_pool(pool).synthesize(golden);
            let what = format!("{name} {metric:?} <= {bound} threads={threads}");
            assert!(!prod.rounds.is_empty(), "{what}: no rounds ran");
            assert_same_trajectory(&what, &prod, &reference);
            for r in &prod.rounds {
                paths[0] += r.single_mode as usize;
                paths[1] += r.reverted as usize;
                paths[2] += (!r.single_mode && !r.chose_indp) as usize;
            }
        }
    }
    paths
}
