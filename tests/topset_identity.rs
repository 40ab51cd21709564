//! Bit-identity of the bound-driven top-k scorer against the dense path.
//!
//! The contract under test: feeding `score_topk`'s exactly-scored subset
//! (plus the full retained-population count) into the top-set selection
//! must reproduce `score_all` + `obtain_top_set` bit-for-bit — same
//! members, same `ΔE` bits, same `(ΔE, gain, tn)` order — on every suite
//! circuit, metric, thread count, and deviation-mask path, including
//! mid-flow snapshots where the circuit is already approximate and the
//! evaluator sits at a nonzero error. End to end, production (pruned
//! scoring) walks the identical trajectory as `accals::reference`
//! (dense scoring) and lands on the identical circuit.

mod common;

use accals::topset::{obtain_top_set, obtain_top_set_from};
use aig::Aig;
use bitsim::{simulate, Patterns, Sim};
use errmetrics::{ErrorEval, MetricKind};
use estimate::BatchEstimator;
use lac::{generate_candidates, CandidateConfig, DevMask, DevView, Lac, ScoredLac};
use parkit::ThreadPool;

const R_REF: usize = 40;

fn circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).expect("known suite circuit")
}

fn leaked_pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

fn bound_for(kind: MetricKind) -> f64 {
    match kind {
        MetricKind::Er => 0.2,
        MetricKind::Nmed => 0.02,
        _ => 0.05,
    }
}

fn assert_sets_identical(dense: &[ScoredLac], pruned: &[ScoredLac], what: &str) {
    assert_eq!(dense.len(), pruned.len(), "{what}: top-set size");
    for (d, p) in dense.iter().zip(pruned) {
        assert_eq!(d.lac, p.lac, "{what}: member/order changed");
        assert_eq!(d.gain, p.gain, "{what}: gain differs for {}", d.lac);
        assert_eq!(
            d.delta_e.to_bits(),
            p.delta_e.to_bits(),
            "{what}: ΔE differs for {}: {} vs {}",
            d.lac,
            d.delta_e,
            p.delta_e
        );
    }
}

/// Dense top set and pruned top sets (1/2/8 threads × fresh/cached-dev)
/// over one circuit snapshot; asserts they are all bit-identical.
fn check_snapshot(g: &Aig, sim: &Sim, eval: &ErrorEval, cands: &[Lac], what: &str) {
    let e = eval.current();
    // Keep the top-set shrink factor meaningful even when the mid-flow
    // snapshot's error overshoots the nominal bound (coarse ER deltas).
    let e_b = bound_for(eval.kind()).max(e * 1.5 + 1e-9);
    let mut dense = BatchEstimator::new(g, sim, eval)
        .use_pool(leaked_pool(1))
        .score_all(cands);
    dense.retain(|s| s.gain > 0);
    assert!(!dense.is_empty(), "{what}: no retained candidates");
    let n_retained = dense.len();
    let dense_top = obtain_top_set(dense, e, e_b, R_REF);

    let mut scratch = vec![0u64; sim.stride()];
    let devs: Vec<DevMask> = cands
        .iter()
        .map(|l| DevMask::of(sim, l, &mut scratch))
        .collect();
    let dev_views: Vec<DevView<'_>> = devs.iter().map(|d| d.view()).collect();

    let k = R_REF.max(64);
    for threads in [1, 2, 8] {
        let (fresh, fs) = BatchEstimator::new(g, sim, eval)
            .use_pool(leaked_pool(threads))
            .score_topk(cands, k);
        assert_eq!(fs.n_candidates, n_retained, "{what}: population drifted");
        assert_eq!(fs.n_exact + fs.n_pruned, fs.n_candidates);
        let fresh_top = obtain_top_set_from(fresh, e, e_b, R_REF, fs.n_candidates);
        assert_sets_identical(&dense_top, &fresh_top, &format!("{what} fresh t={threads}"));

        let (cached, cs) = BatchEstimator::new(g, sim, eval)
            .use_pool(leaked_pool(threads))
            .score_topk_cached(cands, &dev_views, k);
        assert_eq!(cs.n_candidates, n_retained);
        let cached_top = obtain_top_set_from(cached, e, e_b, R_REF, cs.n_candidates);
        assert_sets_identical(&dense_top, &cached_top, &format!("{what} cached t={threads}"));
    }
}

/// A mid-flow snapshot: apply three safe LACs at distinct targets (the
/// same recipe a multi-LAC round commits) so the evaluator sits at a
/// nonzero error and the mask/candidate state resembles a later round.
fn mid_flow(g: &Aig, golden: &[Vec<u64>], pats: &Patterns, kind: MetricKind) -> Aig {
    let sim = simulate(g, pats);
    let mut eval = ErrorEval::new(kind, golden, pats.n_patterns());
    eval.rebase(&sim.output_sigs(g));
    let cands = generate_candidates(g, &sim, &CandidateConfig::default());
    let mut scored = BatchEstimator::new(g, &sim, &eval).score_all(&cands);
    // Prefer changes within a quarter of the bound; when the metric is
    // too coarse for that (ER on wide adders), fall back to the
    // smallest error increases available.
    let mut safe: Vec<ScoredLac> = scored
        .iter()
        .filter(|s| s.gain > 0 && s.delta_e <= 0.25 * bound_for(kind))
        .cloned()
        .collect();
    if safe.is_empty() {
        safe = scored.drain(..).filter(|s| s.gain > 0).collect();
    }
    let mut scored = safe;
    scored.sort_by(|a, b| {
        a.delta_e
            .partial_cmp(&b.delta_e)
            .unwrap()
            .then(b.gain.cmp(&a.gain))
            .then(a.lac.tn.cmp(&b.lac.tn))
    });
    let mut picked: Vec<Lac> = Vec::new();
    for s in &scored {
        if picked.iter().all(|l| l.tn != s.lac.tn) {
            picked.push(s.lac);
        }
        if picked.len() == 3 {
            break;
        }
    }
    assert!(!picked.is_empty(), "no safe LACs to build a mid-flow snapshot");
    let mut g1 = g.clone();
    lac::apply_all(&mut g1, &picked);
    g1.cleanup().unwrap();
    g1
}

fn run_circuit(name: &str) {
    let g = circuit(name);
    let pats = Patterns::random(g.n_pis(), 2048, 0x70_5e7 ^ name.len() as u64);
    let golden = simulate(&g, &pats).output_sigs(&g);
    for kind in [MetricKind::Er, MetricKind::Nmed, MetricKind::Mred] {
        // Round-0 snapshot: the golden circuit itself, error 0.
        let sim = simulate(&g, &pats);
        let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
        eval.rebase(&sim.output_sigs(&g));
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        check_snapshot(&g, &sim, &eval, &cands, &format!("{name}/{kind}/round0"));

        // Mid-flow snapshot: approximate circuit, nonzero error.
        let g1 = mid_flow(&g, &golden, &pats, kind);
        let sim1 = simulate(&g1, &pats);
        let mut eval1 = ErrorEval::new(kind, &golden, pats.n_patterns());
        eval1.rebase(&sim1.output_sigs(&g1));
        let cands1 = generate_candidates(&g1, &sim1, &CandidateConfig::default());
        check_snapshot(&g1, &sim1, &eval1, &cands1, &format!("{name}/{kind}/midflow"));
    }
}

#[test]
fn topset_identity_rca32() {
    run_circuit("rca32");
}

#[test]
fn topset_identity_mtp8() {
    run_circuit("mtp8");
}

#[test]
fn topset_identity_alu4() {
    run_circuit("alu4");
}

#[test]
fn whole_flow_identity_pruned_vs_dense() {
    let mult4 = || benchgen::multipliers::array_multiplier(4);
    common::assert_production_matches_reference(&[
        ("mult4", mult4(), MetricKind::Nmed, 0.005),
        ("mult4", mult4(), MetricKind::Nmed, 0.002),
        ("mult4", mult4(), MetricKind::Er, 0.05),
    ]);
}
