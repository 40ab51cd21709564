//! The reference oracle: Algorithm 1 with every incremental structure
//! taken out.
//!
//! The production round ([`crate::FlowInstance::step`]) generates
//! candidates through the cross-round [`lac::CandidateStore`], scores
//! them with the bound-pruned top-k estimator over cached transfer
//! masks and deviation payloads, and measures candidate sets on the
//! incremental [`crate::TrialEval`] engine, racing them in parallel.
//! Each of those is promised to be bit-identical to the plain
//! computation it replaces; [`synthesize`] is that plain computation:
//!
//! - candidates come fresh from [`lac::generate_candidates_counted`]
//!   every round;
//! - every candidate is scored densely ([`BatchEstimator::score_all`]
//!   over freshly built masks), keeping those with positive gain;
//! - every candidate set is measured by clone + [`lac::apply_all`] +
//!   cleanup + full re-simulation, one after another.
//!
//! Selection, the round decision, and the loop tail are the production
//! code, unchanged. A production run and a reference run of the same
//! configuration must therefore walk the identical trajectory, which is
//! what the identity tests and `bench_flow` assert. The oracle runs
//! dense rounds only; it exists for tests and benchmarks and is not
//! part of the supported API.

use crate::engine::{ms, FlowInstance, RoundShared};
use crate::{AccalsConfig, SynthesisResult};
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::ErrorEval;
use estimate::BatchEstimator;
use parkit::ThreadPool;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Runs the reference flow on `golden` over the same sample
/// [`crate::Accals::synthesize`] draws. `pool` parallelizes dense
/// scoring only (bit-identical at any width); trials always run
/// sequentially.
///
/// # Panics
///
/// Panics if `cfg.window` is set (the oracle runs dense rounds only) or
/// a configuration parameter is out of range.
pub fn synthesize(cfg: AccalsConfig, pool: &'static ThreadPool, golden: &Aig) -> SynthesisResult {
    assert!(cfg.window.is_none(), "the reference runs dense rounds only");
    let pats = Arc::new(Patterns::for_circuit(
        golden.n_pis(),
        cfg.max_exhaustive,
        cfg.n_random_patterns,
        cfg.seed,
    ));
    // The flow's own pool only drives trial speculation; a serial one
    // keeps every measurement in ladder order.
    static SERIAL: OnceLock<ThreadPool> = OnceLock::new();
    let serial = SERIAL.get_or_init(|| ThreadPool::new(1));
    let (mut flow, mut caches) = FlowInstance::new(cfg, serial, golden, pats.clone());
    while flow.begin_round() {
        let shared = prepare_round(flow.config(), pool, flow.current(), &pats, &mut caches.eval);
        if !flow.play_round(&mut caches, shared, true) {
            break;
        }
    }
    flow.into_result()
}

/// The dense counterpart of the production shared phases: simulate,
/// rebase the evaluator, generate candidates from scratch, and score
/// every one of them. `None` when nothing with positive gain is left.
fn prepare_round(
    cfg: &AccalsConfig,
    pool: &'static ThreadPool,
    current: &Aig,
    pats: &Patterns,
    eval: &mut ErrorEval,
) -> Option<RoundShared> {
    let sim = simulate(current, pats);
    eval.rebase(&sim.output_sigs(current));
    let t_candgen = Instant::now();
    let (cands, gen_ctrs) = lac::generate_candidates_counted(current, &sim, &cfg.candidates);
    let candgen_ms = ms(t_candgen.elapsed());
    if cands.is_empty() {
        return None;
    }
    let mut estimator = BatchEstimator::new(current, &sim, eval).use_pool(pool);
    let mut scored = estimator.score_all(&cands);
    let phases = estimator.phases();
    // A LAC must reduce hardware cost; changes that cost more nodes
    // than their MFFC frees are not LACs at all.
    scored.retain(|s| s.gain > 0);
    if scored.is_empty() {
        return None;
    }
    Some(RoundShared {
        sim,
        n_cands_eff: scored.len(),
        scored_exact: scored.len(),
        scored_pruned: 0,
        scored,
        gen_ctrs,
        candgen_ms,
        mask_ms: phases.mask_ms,
        score_ms: phases.score_ms,
        window_targets: 0,
    })
}
