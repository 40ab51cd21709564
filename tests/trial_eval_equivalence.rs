//! Bit-exactness guarantees of the incremental trial-evaluation engine.
//!
//! `TrialEval` promises that a trial measurement of a candidate LAC set
//! — journaled apply, cone-union re-simulation, affected-output error
//! replay, rollback — reports *exactly* what the committed path (clone,
//! `apply_all`, `cleanup`, full re-simulate, full rescore) would report
//! for the same set: the error down to the last mantissa bit, the
//! post-cleanup gate count, and the applied/dropped accounting. The
//! same promise lifts to the whole flow: production, which measures
//! sets on the trial engine (raced in parallel on multi-threaded pools),
//! commits the identical circuit through the identical round sequence
//! as `accals::reference`, which commits and re-simulates every set, at
//! any thread count.

mod common;

use accals::TrialEval;
use aig::Aig;
use bitsim::{simulate, ConeTopology, Patterns};
use errmetrics::{error, ErrorEval, MetricKind};
use lac::{apply_all, generate_candidates, CandidateConfig, Lac, ScoredLac};

fn circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).expect("known suite circuit")
}

fn scored(lac: Lac) -> ScoredLac {
    ScoredLac {
        lac,
        delta_e: 0.0,
        gain: 0,
    }
}

/// Conflict-free check used when building multi-LAC sets: distinct
/// targets, and no LAC's substitute node is another LAC's target.
fn conflict_free(set: &[ScoredLac], cand: &Lac) -> bool {
    set.iter().all(|p| {
        p.lac.tn != cand.tn
            && p.lac.sns().all(|s| s != cand.tn)
            && cand.sns().all(|s| s != p.lac.tn)
    })
}

/// For every candidate LAC (and a handful of multi-LAC sets) on `base`,
/// asserts that `TrialEval` measures bit-identically to the committed
/// clone+apply+cleanup+resimulate path.
fn assert_trials_match_committed(
    base: &Aig,
    kind: MetricKind,
    golden_sigs: &[Vec<u64>],
    pats: &Patterns,
) {
    let sim = simulate(base, pats);
    let mut eval = ErrorEval::new(kind, golden_sigs, pats.n_patterns());
    eval.rebase(&sim.output_sigs(base));
    let cands = generate_candidates(base, &sim, &CandidateConfig::default());
    assert!(
        !cands.is_empty(),
        "{}: no candidates generated",
        base.name()
    );

    // Single candidates, every one of them; plus greedy disjoint
    // conflict-free sets of up to 8 LACs.
    let mut sets: Vec<Vec<ScoredLac>> = cands.iter().map(|&l| vec![scored(l)]).collect();
    let mut used = vec![false; cands.len()];
    for _ in 0..6 {
        let mut set: Vec<ScoredLac> = Vec::new();
        for (i, l) in cands.iter().enumerate() {
            if !used[i] && conflict_free(&set, l) {
                used[i] = true;
                set.push(scored(*l));
                if set.len() == 8 {
                    break;
                }
            }
        }
        if set.len() < 2 {
            break;
        }
        sets.push(set);
    }

    let topo = ConeTopology::build(base);
    let mut trial = TrialEval::new(base, &sim, &eval, topo);
    for set in &sets {
        let m = trial.measure(set, true);

        let mut copy = base.clone();
        let plain: Vec<Lac> = set.iter().map(|s| s.lac).collect();
        let report = apply_all(&mut copy, &plain);
        copy.cleanup().expect("editing keeps the graph acyclic");
        let csim = simulate(&copy, pats);
        let e_ref = error(
            kind,
            golden_sigs,
            &csim.output_sigs(&copy),
            pats.n_patterns(),
        );

        let what = format!("{} {kind:?} set {:?}", base.name(), plain);
        assert_eq!(m.report.applied, report.applied, "{what}: applied differs");
        assert_eq!(
            m.report.dropped_cycle, report.dropped_cycle,
            "{what}: dropped_cycle differs"
        );
        assert_eq!(
            m.e_after.to_bits(),
            e_ref.to_bits(),
            "{what}: error differs: {} vs {}",
            m.e_after,
            e_ref
        );
        assert_eq!(
            m.n_ands_after,
            Some(copy.n_ands()),
            "{what}: gate count differs"
        );
    }
}

#[test]
fn trial_measure_matches_committed_path_for_every_candidate() {
    for (name, kind) in [("rca32", MetricKind::Er), ("mtp8", MetricKind::Nmed)] {
        let g = circuit(name);
        let pats = Patterns::random(g.n_pis(), 2048, 0x7E57_7E57);
        let golden_sigs = simulate(&g, &pats).output_sigs(&g);
        assert_trials_match_committed(&g, kind, &golden_sigs, &pats);
    }
}

#[test]
fn trial_measure_matches_committed_path_mid_synthesis() {
    // Same contract on a degraded base (golden != base), which is what
    // every round after the first sees: the error replay must account
    // for already-deviating outputs, not just fresh flips.
    let g = circuit("rca32");
    let pats = Patterns::random(g.n_pis(), 2048, 0x0DE6_BA5E);
    let golden_sigs = simulate(&g, &pats).output_sigs(&g);

    let sim0 = simulate(&g, &pats);
    let cands0 = generate_candidates(&g, &sim0, &CandidateConfig::default());
    let mut base = g.clone();
    let first: Vec<Lac> = cands0.iter().take(2).copied().collect();
    assert!(apply_all(&mut base, &first).applied > 0);
    base.cleanup().unwrap();

    assert_trials_match_committed(&base, MetricKind::Er, &golden_sigs, &pats);
    assert_trials_match_committed(&base, MetricKind::Mred, &golden_sigs, &pats);
}

#[test]
fn synthesis_is_identical_across_trial_paths_and_thread_counts() {
    // Long enough to exercise the negative-set revert and the random set
    // winning the race, on top of single-mode rounds.
    let paths = common::assert_production_matches_reference(&[
        ("rca32", circuit("rca32"), MetricKind::Nmed, 0.02),
        ("c880", circuit("c880"), MetricKind::Er, 0.03),
    ]);
    assert!(
        paths.iter().all(|&n| n > 0),
        "the cases must cover single-mode rounds, reverts, and random-set wins: {paths:?}"
    );
}
