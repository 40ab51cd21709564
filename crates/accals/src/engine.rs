//! Resumable flow instances over externally-owned caches.
//!
//! [`crate::Accals::synthesize`] used to own its whole round loop: the
//! cross-round [`MaskCache`]/[`lac::CandidateStore`] state, the error
//! evaluator, and the per-round phases all lived in one function body,
//! so a flow could only run start-to-finish. Design-space exploration
//! wants more: a sweep over `(metric, error_bound, seed)` points runs
//! many flows whose round work is largely *identical* — everything up
//! to and including candidate scoring depends only on the current
//! circuit, the sample, the metric, and the candidate configuration,
//! not on the error bound — so nested-bound instances can share one
//! pass of the expensive phases for as long as their trajectories
//! agree.
//!
//! This module factors Algorithm 1 accordingly:
//!
//! - [`FlowCaches`] owns the bound-independent warm state (mask cache,
//!   candidate store, error evaluator, last commit remap) and can
//!   [`FlowCaches::fork`] when trajectories diverge;
//! - [`FlowInstance`] is a resumable flow value: one
//!   [`FlowInstance::step`] runs one round against externally-owned
//!   caches, bit-identical to the monolithic loop;
//! - [`step_cohort`] advances a whole *cohort* — instances of one
//!   family (equal configuration except the bound) whose trajectories
//!   are still identical — paying the shared phases (simulation,
//!   rebase, candidate generation, mask building, scoring) once and
//!   only the bound-dependent selection, trials, and commits per
//!   member, with trial and commit results memoized across members.
//!   Its return value tells the caller how the cohort partitions after
//!   the round: members that committed the same edit stay together,
//!   everyone else gets forked caches.
//!
//! The determinism contract is inherited, not re-proven per scheduler:
//! every per-member decision consumes only that member's own state
//! (configuration, error, RNG) plus round data that is a pure function
//! of the shared circuit — so a member's trajectory through any cohort
//! schedule is bit-identical to a standalone run.

use crate::conflict::find_solve_conflicts;
use crate::indep::select_indep_lacs;
use crate::topset::obtain_top_set_from;
use crate::trace::RoundTrace;
use crate::trial::{TrialEval, TrialMeasure};
use crate::window::WindowState;
use crate::{AccalsConfig, SynthesisResult};
use aig::{Aig, Lit, NodeId};
use bitsim::{simulate, ConeTopology, Patterns, Sim};
use errmetrics::{error, ErrorEval, MetricKind};
use estimate::{BatchEstimator, MaskCache};
use lac::{apply_all, ApplyReport, CandidateStore, GenCounters, Lac, ScoredLac};
use parkit::ThreadPool;
use prng::rngs::StdRng;
use prng::seq::SliceRandom;
use prng::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Milliseconds of a duration, for the per-phase round timings.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The bound-independent warm state of a flow: the cross-round transfer
/// mask cache, the candidate store, the error evaluator, and the node
/// remapping of the last committed edit. Owned by the caller so sweep
/// engines can share it between instances traversing identical circuit
/// prefixes and [`FlowCaches::fork`] it at the divergence round.
#[derive(Debug)]
pub struct FlowCaches {
    pub(crate) mask: MaskCache,
    pub(crate) store: CandidateStore,
    pub(crate) eval: ErrorEval,
    pub(crate) last_remap: Option<Vec<Option<Lit>>>,
    /// Window-rotation state of windowed flows (which segments the
    /// current epoch has covered); default/empty for dense flows.
    pub(crate) window: WindowState,
}

impl FlowCaches {
    /// Fresh caches for a flow measuring `metric` against
    /// `golden_sigs` over `n_patterns` samples.
    pub fn new(metric: MetricKind, golden_sigs: &[Vec<u64>], n_patterns: usize) -> Self {
        FlowCaches {
            mask: MaskCache::new(),
            store: CandidateStore::new(),
            eval: ErrorEval::new(metric, golden_sigs, n_patterns),
            last_remap: None,
            window: WindowState::default(),
        }
    }

    /// Forks the caches at the current trajectory point. The fork is
    /// exactly what a flow that had followed the shared trajectory
    /// alone would hold, so branches diverging from here stay
    /// bit-identical to standalone runs. The caller is responsible for
    /// setting the fork's pending remap to its own branch's committed
    /// edit ([`step_cohort`] does this).
    pub fn fork(&self) -> FlowCaches {
        FlowCaches {
            mask: self.mask.fork(),
            store: self.store.fork(),
            eval: self.eval.clone(),
            last_remap: self.last_remap.clone(),
            window: self.window.clone(),
        }
    }
}

/// The bound-independent round work, computed once per circuit
/// revision: the simulation, the candidate scores, and the phase
/// accounting destined for each member's [`RoundTrace`].
pub(crate) struct RoundShared {
    pub sim: Sim,
    pub scored: Vec<ScoredLac>,
    pub n_cands_eff: usize,
    pub scored_exact: usize,
    pub scored_pruned: usize,
    pub gen_ctrs: GenCounters,
    pub candgen_ms: f64,
    pub mask_ms: f64,
    pub score_ms: f64,
    pub window_targets: usize,
}

/// The identity remap over `n` nodes: rolls a cache "forward" without
/// moving anything — used when a new round starts from an unchanged
/// circuit revision (windowed retries).
fn identity_remap(n: usize) -> Vec<Option<Lit>> {
    (0..n)
        .map(|i| Some(Lit::new(NodeId::new(i), false)))
        .collect()
}

/// Runs the shared phases of one round — simulate, rebase the
/// evaluator, select the round window (when configured), generate
/// candidates through the store, build masks, and score — mutating
/// `caches` exactly as the monolithic loop did. Returns `None` when the
/// round would break (no candidates, or nothing scored with positive
/// gain, in any window of a full rotation): the flow has converged.
pub(crate) fn prepare_round(
    cfg: &AccalsConfig,
    pool: &'static ThreadPool,
    current: &Aig,
    pats: &Patterns,
    golden_sigs: &[Vec<u64>],
    caches: &mut FlowCaches,
    r_ref: usize,
) -> Option<RoundShared> {
    let sim = simulate(current, pats);
    caches.eval.rebase(&sim.output_sigs(current));
    // The pending commit remap rolls each cache forward exactly once
    // per circuit revision. A windowed round may try several windows
    // against the same revision (a region can come up empty), so after
    // a cache's first roll this revision it sits at the current ids and
    // later attempts roll it through the identity instead.
    let pending = caches.last_remap.take();
    let identity: Vec<Option<Lit>> = if cfg.window.is_some() {
        identity_remap(current.n_nodes())
    } else {
        Vec::new()
    };
    let mut store_rolled = false;
    let mut mask_rolled = false;
    // Two full rotations bound the empty-window retries: one pass over
    // the segments untouched this epoch, and — after the epoch resets —
    // one over the rest. Every segment has then proven empty.
    let n_attempts = match &cfg.window {
        Some(spec) => 2 * crate::window::segment_count(current, spec),
        None => 1,
    };
    for _ in 0..n_attempts {
        let win = cfg.window.as_ref().and_then(|spec| {
            crate::window::select_window(
                current,
                &sim,
                golden_sigs,
                pats.n_patterns(),
                spec,
                &mut caches.window,
            )
        });
        let win_mask = win.as_ref().map(|w| w.mask.as_slice());
        let window_targets = win.as_ref().map_or(0, |w| w.targets);
        let t_candgen = Instant::now();
        let store_remap = if store_rolled {
            Some(identity.as_slice())
        } else {
            pending.as_deref()
        };
        let cands =
            caches
                .store
                .generate(current, &sim, &cfg.candidates, store_remap, pool, win_mask);
        store_rolled = true;
        let gen_ctrs = caches.store.last_gen_counters();
        let candgen_ms = ms(t_candgen.elapsed());
        if cands.is_empty() {
            continue;
        }
        let mask_remap = if mask_rolled {
            Some(identity.as_slice())
        } else {
            pending.as_deref()
        };
        let mut estimator =
            BatchEstimator::with_cache(current, &sim, &caches.eval, &mut caches.mask, mask_remap)
                .use_pool(pool);
        mask_rolled = true;
        // Pruned scoring only ever needs candidates that can enter the
        // round's top set: `r_top` never exceeds `max(r_ref, r_min)` (ties
        // at the minimum are always scored exactly), and the single-mode
        // ladder looks at the first 64 — so `max(r_ref, 64)` exact scores
        // cover every consumer. Candidates that cost more nodes than
        // their MFFC frees are not LACs at all; the top-k scorer filters
        // them before scoring.
        let k_topk = r_ref.max(64);
        let (scored, stats) = estimator.score_topk_cached(&cands, &caches.store.devs(), k_topk);
        let phases = estimator.phases();
        drop(estimator);
        if let Some(w) = win_mask {
            // Keep transfer-mask memory O(window): masks for regions
            // the rotation has left are cheap to recompute on return.
            caches.mask.retain_only(w);
        }
        if scored.is_empty() {
            continue;
        }
        return Some(RoundShared {
            sim,
            scored,
            n_cands_eff: stats.n_candidates,
            scored_exact: stats.n_exact,
            scored_pruned: stats.n_pruned,
            gen_ctrs,
            candgen_ms,
            mask_ms: phases.mask_ms,
            score_ms: phases.score_ms,
            window_targets,
        });
    }
    None
}

/// How a round concluded for one member: adopt the committed edit,
/// discard it and retry the unchanged revision with the next window,
/// or converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundOutcome {
    Adopt,
    Retry,
    Finish,
}

/// A committed round edit: the new circuit, its measured error, the
/// apply report, and the cleanup remap from the round's base circuit.
/// Cohort members committing the same set share one `Arc<Committed>` —
/// pointer identity is how [`step_cohort`] partitions the cohort.
#[derive(Debug)]
pub(crate) struct Committed {
    aig: Aig,
    e_after: f64,
    report: ApplyReport,
    remap: Vec<Option<Lit>>,
}

/// The per-member view of one round: everything the bound-dependent
/// selection/trial/commit path reads. `current`, `sim`, and `eval`
/// carry the long `'a` lifetime shared with the memo scratch; the
/// member-specific fields are free to be shorter-lived.
pub(crate) struct RoundCtx<'s, 'a> {
    pub cfg: &'s AccalsConfig,
    pub pool: &'static ThreadPool,
    pub golden_sigs: &'s [Vec<u64>],
    pub pats: &'s Patterns,
    pub current: &'a Aig,
    pub sim: &'a Sim,
    pub eval: &'a ErrorEval,
    pub e: f64,
    pub r_ref: usize,
    pub r_sel: usize,
}

impl RoundCtx<'_, '_> {
    /// The error of `aig` measured in full: simulate the whole circuit
    /// over the sample and score it against the golden outputs.
    fn full_error(&self, aig: &Aig) -> f64 {
        let sim = simulate(aig, self.pats);
        error(
            self.cfg.metric,
            self.golden_sigs,
            &sim.output_sigs(aig),
            self.pats.n_patterns(),
        )
    }
}

/// Cross-member memoization for one cohort round. Trial measurements
/// and commits are pure functions of `(base circuit, LAC set)`, so
/// members that select the same set pay for it once; the single-mode
/// top list and the cone topology are bound-independent and shared
/// outright.
#[derive(Default)]
pub(crate) struct RoundScratch<'a> {
    topo: Option<Arc<ConeTopology>>,
    single_top: Option<Vec<ScoredLac>>,
    te: Option<TrialEval<'a>>,
    trials: HashMap<(Vec<Lac>, bool), TrialMeasure>,
    commits: HashMap<Vec<Lac>, Arc<Committed>>,
    /// Measure every set by a full commit instead of on the trial
    /// engine — set only by the [`crate::reference`] oracle.
    reference: bool,
}

impl<'a> RoundScratch<'a> {
    fn topo(&mut self, current: &Aig) -> Arc<ConeTopology> {
        self.topo
            .get_or_insert_with(|| ConeTopology::build(current))
            .clone()
    }

    /// Measures each of `sets` against the round's base circuit, in
    /// order. Every measurement of a round — the single-mode ladder, the
    /// multi-mode race, the `l_d` revert — goes through here. Production
    /// runs the [`TrialEval`] engine: several sets on a multi-threaded
    /// pool are raced on fresh evaluators, anything else goes through
    /// the cohort memo. The reference oracle instead commits each set
    /// (clone, apply, cleanup) and re-simulates it in full, in order.
    fn measure(
        &mut self,
        ctx: &RoundCtx<'_, 'a>,
        sets: &[&[ScoredLac]],
        want_n_ands: bool,
    ) -> Vec<TrialMeasure> {
        if self.reference {
            return sets
                .iter()
                .map(|set| {
                    let c = self.committed(ctx, set, |aig| ctx.full_error(aig));
                    TrialMeasure {
                        e_after: c.e_after,
                        n_ands_after: Some(c.aig.n_ands()),
                        report: c.report,
                    }
                })
                .collect();
        }
        let threads = ctx.pool.threads();
        if sets.len() > 1 && threads > 1 {
            let topo = self.topo(ctx.current);
            let chunk = sets.len().div_ceil(threads);
            let measures = ctx.pool.par_chunk_results(sets.len(), chunk, |_, r| {
                let mut te = TrialEval::new(ctx.current, ctx.sim, ctx.eval, topo.clone());
                r.map(|i| te.measure(sets[i], want_n_ands))
                    .collect::<Vec<_>>()
            });
            return measures.into_iter().flatten().collect();
        }
        sets.iter()
            .map(|set| self.trial(ctx, set, want_n_ands))
            .collect()
    }

    /// Memoized incremental trial measurement of `lacs` against the
    /// round's base circuit. Measurements are pure (the [`TrialEval`]
    /// contract), so the memo is unobservable in the results.
    fn trial(&mut self, ctx: &RoundCtx<'_, 'a>, lacs: &[ScoredLac], want_n_ands: bool) -> TrialMeasure {
        let key = (
            lacs.iter().map(|s| s.lac).collect::<Vec<_>>(),
            want_n_ands,
        );
        if let Some(m) = self.trials.get(&key) {
            return *m;
        }
        let topo = self.topo(ctx.current);
        let te = self
            .te
            .get_or_insert_with(|| TrialEval::new(ctx.current, ctx.sim, ctx.eval, topo));
        let m = te.measure(lacs, want_n_ands);
        self.trials.insert(key, m);
        m
    }

    /// Memoized commit of `lacs` — clone, apply, cleanup — carrying
    /// the trial-measured error `e_trial`. It is bit-identical to a
    /// full re-measure by the [`TrialEval`] contract; debug builds
    /// verify that on every fresh commit.
    fn commit(
        &mut self,
        ctx: &RoundCtx<'_, 'a>,
        lacs: &[ScoredLac],
        e_trial: f64,
    ) -> Arc<Committed> {
        self.committed(ctx, lacs, |_aig| {
            #[cfg(debug_assertions)]
            assert_eq!(
                ctx.full_error(_aig).to_bits(),
                e_trial.to_bits(),
                "trial measurement diverged from the committed circuit"
            );
            e_trial
        })
    }

    /// The memoized commit of `lacs`, built on a miss with `e_after`
    /// measuring the committed circuit.
    fn committed(
        &mut self,
        ctx: &RoundCtx<'_, 'a>,
        lacs: &[ScoredLac],
        e_after: impl FnOnce(&Aig) -> f64,
    ) -> Arc<Committed> {
        let key: Vec<Lac> = lacs.iter().map(|s| s.lac).collect();
        if let Some(c) = self.commits.get(&key) {
            return c.clone();
        }
        let mut copy = ctx.current.clone();
        let report = apply_all(&mut copy, &key);
        let remap = copy.cleanup().expect("editing keeps the graph acyclic");
        let c = Arc::new(Committed {
            e_after: e_after(&copy),
            aig: copy,
            report,
            remap,
        });
        self.commits.insert(key, c.clone());
        c
    }
}

/// One member's bound-dependent round: mode pick, selection, trials,
/// commit — mirroring the monolithic loop body (multi round with the
/// single-selection retry on no-progress). `scored` is never empty
/// (the caller's [`prepare_round`] guarantees it), so a committed edit
/// always comes back.
pub(crate) fn decide_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    shared: &RoundShared,
    rng: &mut StdRng,
    scratch: &mut RoundScratch<'a>,
) -> (Arc<Committed>, RoundTrace) {
    let single_mode = ctx.e > ctx.cfg.l_e * ctx.cfg.error_bound;
    if single_mode {
        return single_round(ctx, scratch, &shared.scored, shared.n_cands_eff);
    }
    let (c1, t1) = multi_round(ctx, scratch, rng, &shared.scored, shared.n_cands_eff);
    let progress = t1.applied > 0
        && c1.aig.n_ands() <= ctx.current.n_ands()
        && (c1.aig.n_ands() < ctx.current.n_ands() || t1.e_after != ctx.e);
    if progress {
        (c1, t1)
    } else {
        // The multi-LAC set churned without moving the circuit. Retry
        // with single selection from the SAME scored list: the
        // expensive simulate + estimate work is already paid for, so
        // this stays one round rather than burning a fresh estimation
        // pass on the retry.
        single_round(ctx, scratch, &shared.scored, shared.n_cands_eff)
    }
}

/// The trace of a round that committed `committed`, as a single-mode
/// round records it; multi rounds override the selection fields. The
/// shared-phase fields are filled in by [`FlowInstance::fill_shared`].
fn round_trace(
    ctx: &RoundCtx<'_, '_>,
    committed: &Committed,
    n_candidates: usize,
    e_est: f64,
    [select_ms, trial_ms, commit_ms]: [f64; 3],
) -> RoundTrace {
    RoundTrace {
        round: 0,
        single_mode: true,
        n_candidates,
        r_top: 1,
        n_sol: 1,
        n_indp: 1,
        n_rand: 0,
        chose_indp: false,
        applied: committed.report.applied,
        dropped_cycle: committed.report.dropped_cycle,
        reverted: false,
        e_before: ctx.e,
        e_after: committed.e_after,
        e_est,
        n_ands_after: committed.aig.n_ands(),
        scored_exact: 0,
        scored_pruned: 0,
        candgen_ms: 0.0,
        mask_ms: 0.0,
        score_ms: 0.0,
        select_ms,
        trial_ms,
        commit_ms,
        candgen_probe_draws: 0,
        candgen_strip_cmps: 0,
        candgen_pool_hits: 0,
        candgen_pool_misses: 0,
        window_targets: 0,
    }
}

fn single_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    scored: &[ScoredLac],
    n_candidates: usize,
) -> (Arc<Committed>, RoundTrace) {
    let t_select = Instant::now();
    // The sort is bound-independent, so one member's work serves the
    // whole cohort.
    let top: Vec<ScoredLac> = scratch
        .single_top
        .get_or_insert_with(|| {
            let mut top = scored.to_vec();
            top.sort_by(|a, b| {
                a.delta_e
                    .partial_cmp(&b.delta_e)
                    .expect("ΔE is never NaN")
                    .then(b.gain.cmp(&a.gain))
                    .then(a.lac.tn.cmp(&b.lac.tn))
            });
            top.truncate(64);
            top
        })
        .clone();
    let select_ms = ms(t_select.elapsed());
    let t_trial = Instant::now();
    let (i, m) = pick_single_trial(ctx, scratch, &top).expect("scored list is non-empty");
    let trial_ms = ms(t_trial.elapsed());
    let best = &top[i];
    let t_commit = Instant::now();
    let committed = scratch.commit(ctx, std::slice::from_ref(best), m.e_after);
    let commit_ms = ms(t_commit.elapsed());
    let trace = round_trace(
        ctx,
        &committed,
        n_candidates,
        ctx.e + best.delta_e,
        [select_ms, trial_ms, commit_ms],
    );
    (committed, trace)
}

/// The single-mode trial ladder: finds the index (and measurement) of
/// the first candidate in `top` that makes progress (area shrinks, or
/// the error moves at equal area — never area growth, which would let
/// the flow cycle) or overshoots the bound (terminal: Algorithm 1 stops
/// there). Falls back to the last index when none is decisive.
///
/// With more than one pool thread, candidates are measured
/// speculatively in parallel waves; every measurement is bit-identical
/// to its sequential counterpart and the wave results are scanned in
/// candidate order, so the pick is deterministic at any thread count.
fn pick_single_trial<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    top: &[ScoredLac],
) -> Option<(usize, TrialMeasure)> {
    let n_ands = ctx.current.n_ands();
    let done = |m: &TrialMeasure| {
        let na = m.n_ands_after.expect("single trials measure area");
        let progress = na <= n_ands && (na < n_ands || m.e_after != ctx.e);
        progress || m.e_after > ctx.cfg.error_bound
    };
    // Ladders are shallow in practice (the first candidate is usually
    // decisive), so ramp the speculative wave geometrically: the first
    // wave costs the same as the sequential ladder, and full-width
    // speculation only engages on the rare deep ladder where the
    // parallel race actually pays.
    let threads = ctx.pool.threads();
    let wave_cap = if threads > 1 {
        (threads * 2).min(16)
    } else {
        1
    };
    let mut wave = 1;
    let mut start = 0;
    let mut last = None;
    while start < top.len() {
        let sets: Vec<&[ScoredLac]> = top[start..(start + wave).min(top.len())]
            .iter()
            .map(std::slice::from_ref)
            .collect();
        for (i, m) in scratch.measure(ctx, &sets, true).into_iter().enumerate() {
            if done(&m) {
                return Some((start + i, m));
            }
            last = Some((start + i, m));
        }
        start += sets.len();
        wave = (wave * 2).min(wave_cap);
    }
    last
}

/// The multi-mode round: select the top set, solve its conflicts, pick
/// the independent set, race it against an equally sized random set
/// (Lines 7-12 of Algorithm 1), run the `l_d` negative-set check on the
/// measurements, and only then commit the chosen set through the one
/// real apply of the round.
fn multi_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    rng: &mut StdRng,
    scored: &[ScoredLac],
    n_candidates: usize,
) -> (Arc<Committed>, RoundTrace) {
    let cfg = ctx.cfg;
    let t_select = Instant::now();
    // Eq. (2) clamps against the full retained population, which a
    // pruned `scored` subset no longer reflects — pass it through.
    let l_top = obtain_top_set_from(
        scored.to_vec(),
        ctx.e,
        cfg.error_bound,
        ctx.r_ref,
        n_candidates,
    );
    let l_sol = find_solve_conflicts(&l_top);
    let l_indp = select_indep_lacs(
        ctx.current,
        &l_sol,
        ctx.e,
        cfg.error_bound,
        ctx.r_sel,
        cfg.t_b,
        cfg.lambda,
        cfg.mis,
    );
    // SelectRandomLACs: an equally sized uniform sample from L_sol.
    let l_rand: Vec<ScoredLac> = if cfg.race_random {
        l_sol.choose_multiple(rng, l_indp.len()).cloned().collect()
    } else {
        Vec::new()
    };
    let select_ms = ms(t_select.elapsed());

    let t_trial = Instant::now();
    let race: &[&[ScoredLac]] = if cfg.race_random {
        &[&l_indp, &l_rand]
    } else {
        &[&l_indp]
    };
    let es = scratch.measure(ctx, race, false);
    let e1 = es[0].e_after;
    let e2 = es.get(1).map_or(f64::INFINITY, |m| m.e_after);
    let chose_indp = e1 < e2 || (e1 == e2 && l_indp.len() >= l_rand.len());
    let (mut e_after, mut chosen) = if chose_indp {
        (e1, l_indp.as_slice())
    } else {
        (e2, l_rand.as_slice())
    };
    let mut e_est = ctx.e + chosen.iter().map(|s| s.delta_e).sum::<f64>();

    // Improvement technique 2: detect a negative LAC set and revert
    // to applying only the single best LAC.
    let mut reverted = false;
    if e_after > 0.0 && (e_after - e_est) / e_after > cfg.l_d {
        chosen = std::slice::from_ref(&l_top[0]);
        e_after = scratch.measure(ctx, &[chosen], false)[0].e_after;
        e_est = ctx.e + l_top[0].delta_e;
        reverted = true;
    }
    let trial_ms = ms(t_trial.elapsed());

    let t_commit = Instant::now();
    let committed = scratch.commit(ctx, chosen, e_after);
    let commit_ms = ms(t_commit.elapsed());
    let trace = RoundTrace {
        single_mode: false,
        r_top: l_top.len(),
        n_sol: l_sol.len(),
        n_indp: l_indp.len(),
        n_rand: l_rand.len(),
        chose_indp,
        reverted,
        ..round_trace(
            ctx,
            &committed,
            n_candidates,
            e_est,
            [select_ms, trial_ms, commit_ms],
        )
    };
    (committed, trace)
}

/// A resumable Algorithm 1 flow: one [`FlowInstance::step`] runs one
/// round against externally-owned [`FlowCaches`], leaving the instance
/// ready for the next round (or finished). Driving `step` to
/// completion with the caches it was created with is bit-identical to
/// [`crate::Accals::synthesize`].
#[derive(Debug)]
pub struct FlowInstance {
    cfg: AccalsConfig,
    pool: &'static ThreadPool,
    pats: Arc<Patterns>,
    golden_sigs: Arc<Vec<Vec<u64>>>,
    rng: StdRng,
    current: Aig,
    e: f64,
    round: usize,
    rounds_since_shrink: usize,
    /// Consecutive strict-sub-window rounds discarded because their
    /// window overshot the bound or stalled (reset on every adopted
    /// round).
    window_fails: usize,
    finished: bool,
    traces: Vec<RoundTrace>,
    initial_ands: usize,
    r_ref: usize,
    r_sel: usize,
    start: Instant,
    elapsed: Duration,
}

impl FlowInstance {
    /// Creates a flow over `golden` plus its matching fresh caches.
    ///
    /// # Panics
    ///
    /// Panics if a configuration parameter is out of range or `pats`
    /// does not cover `golden.n_pis()` inputs.
    pub fn new(
        cfg: AccalsConfig,
        pool: &'static ThreadPool,
        golden: &Aig,
        pats: Arc<Patterns>,
    ) -> (FlowInstance, FlowCaches) {
        let golden_sigs = Arc::new(simulate(golden, &pats).output_sigs(golden));
        let flow = FlowInstance::with_shared(cfg, pool, golden, pats, golden_sigs);
        let caches = flow.caches();
        (flow, caches)
    }

    /// Like [`FlowInstance::new`], but with precomputed golden output
    /// signatures — sweep engines share one simulation of the golden
    /// circuit across every instance over the same pattern set.
    pub fn with_shared(
        cfg: AccalsConfig,
        pool: &'static ThreadPool,
        golden: &Aig,
        pats: Arc<Patterns>,
        golden_sigs: Arc<Vec<Vec<u64>>>,
    ) -> FlowInstance {
        crate::validate_config(&cfg);
        let start = Instant::now();
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_cafe);
        let initial_ands = golden.n_ands();
        let r_ref = cfg.r_ref.resolve(initial_ands, 0);
        let r_sel = cfg.r_sel.resolve(initial_ands, 1);
        FlowInstance {
            cfg,
            pool,
            pats,
            golden_sigs,
            rng,
            current: golden.clone(),
            e: 0.0,
            round: 0,
            rounds_since_shrink: 0,
            window_fails: 0,
            finished: false,
            traces: Vec::new(),
            initial_ands,
            r_ref,
            r_sel,
            start,
            elapsed: Duration::ZERO,
        }
    }

    /// Fresh caches matching this instance's metric and sample shape.
    pub fn caches(&self) -> FlowCaches {
        FlowCaches::new(self.cfg.metric, &self.golden_sigs, self.pats.n_patterns())
    }

    /// The instance's configuration.
    pub fn config(&self) -> &AccalsConfig {
        &self.cfg
    }

    /// Whether the flow has converged (no further `step` will run).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Per-round diagnostics so far.
    pub fn rounds(&self) -> &[RoundTrace] {
        &self.traces
    }

    /// The current (last accepted) circuit.
    pub fn current(&self) -> &Aig {
        &self.current
    }

    /// The measured error of the current circuit.
    pub fn error(&self) -> f64 {
        self.e
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.elapsed = self.start.elapsed();
        }
    }

    /// Copies the shared-phase accounting into a member's round trace.
    fn fill_shared(&self, t: &mut RoundTrace, shared: &RoundShared) {
        t.round = self.round;
        t.candgen_ms = shared.candgen_ms;
        t.mask_ms = shared.mask_ms;
        t.score_ms = shared.score_ms;
        t.scored_exact = shared.scored_exact;
        t.scored_pruned = shared.scored_pruned;
        t.candgen_probe_draws = shared.gen_ctrs.probe_draws;
        t.candgen_strip_cmps = shared.gen_ctrs.strip_cmps;
        t.candgen_pool_hits = shared.gen_ctrs.pool_hits;
        t.candgen_pool_misses = shared.gen_ctrs.pool_misses;
        t.window_targets = shared.window_targets;
    }

    /// The loop tail of Algorithm 1: push the trace, stop on bound
    /// overshoot / shrink stagnation / no progress (keeping the
    /// previous circuit), otherwise adopt the committed edit. A strict
    /// sub-window round that overshoots or stalls exhausts only its
    /// *window*, not the circuit: the edit is discarded and the flow
    /// retries from the unchanged revision, letting the rotation move
    /// to the next region — until a full rotation of consecutive
    /// failures proves no window can make progress. The caller rolls
    /// the caches' pending remap forward on `Adopt`, and through the
    /// identity on `Retry`.
    fn conclude(&mut self, committed: &Committed, t: RoundTrace) -> RoundOutcome {
        let e_after = t.e_after;
        let applied = t.applied;
        let windowed = t.window_targets > 0;
        let cur_ands = self.current.n_ands();
        let next_ands = committed.aig.n_ands();
        let shrunk = next_ands < cur_ands;
        let progress = applied > 0 && next_ands <= cur_ands && (shrunk || e_after != self.e);
        self.traces.push(t);
        self.round += 1;
        if windowed && (e_after > self.cfg.error_bound || !progress) {
            // Two full rotations of consecutive failed windows bound
            // the retries, mirroring `prepare_round`'s empty-window
            // budget: every region has then proven unable to move the
            // flow at this revision.
            self.window_fails += 1;
            let budget = match &self.cfg.window {
                Some(spec) => 2 * crate::window::segment_count(&self.current, spec),
                None => 0,
            };
            if self.window_fails >= budget {
                self.finish();
                return RoundOutcome::Finish;
            }
            self.elapsed = self.start.elapsed();
            return RoundOutcome::Retry;
        }
        if e_after > self.cfg.error_bound {
            // The new circuit violates the bound: Algorithm 1 stops
            // and returns the previous circuit.
            self.finish();
            return RoundOutcome::Finish;
        }
        // The flow exists to reduce area: error-only movement is
        // tolerated briefly (positive sets can lower the error), but
        // a long stretch without any shrink means the candidate pool
        // is just churning masked nodes.
        if shrunk {
            self.rounds_since_shrink = 0;
        } else {
            self.rounds_since_shrink += 1;
            if self.rounds_since_shrink >= 30 {
                self.finish();
                return RoundOutcome::Finish;
            }
        }
        if !progress {
            // Neither the multi set nor the single-LAC retry moved
            // the circuit forward. Accepting an area-increasing edit
            // is never progress — gain estimates can be off by a
            // node after strashing, and taking such an edit lets the
            // flow oscillate between two circuits forever (grow with
            // lower error, re-shrink, repeat). The flow has
            // converged.
            self.finish();
            return RoundOutcome::Finish;
        }
        self.window_fails = 0;
        self.current = committed.aig.clone();
        self.e = e_after;
        self.elapsed = self.start.elapsed();
        RoundOutcome::Adopt
    }

    /// Runs one round. Returns `false` once the flow has converged —
    /// the instance then holds the final circuit and error.
    pub fn step(&mut self, caches: &mut FlowCaches) -> bool {
        if !self.begin_round() {
            return false;
        }
        let shared = prepare_round(
            &self.cfg,
            self.pool,
            &self.current,
            &self.pats,
            &self.golden_sigs,
            caches,
            self.r_ref,
        );
        self.play_round(caches, shared, false)
    }

    /// Whether another round may run; finishes the flow at the round
    /// cap.
    pub(crate) fn begin_round(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if self.round >= self.cfg.max_rounds {
            self.finish();
            return false;
        }
        true
    }

    /// The per-member half of a round over its prepared shared phases
    /// (`None`: nothing left to score, the flow has converged): decide,
    /// trace, conclude, and roll the caches' pending remap. `reference`
    /// measures every set by a full commit ([`crate::reference`]).
    /// Returns whether the flow continues.
    pub(crate) fn play_round(
        &mut self,
        caches: &mut FlowCaches,
        shared: Option<RoundShared>,
        reference: bool,
    ) -> bool {
        let Some(shared) = shared else {
            self.finish();
            return false;
        };
        let mut scratch = RoundScratch {
            reference,
            ..RoundScratch::default()
        };
        let ctx = RoundCtx {
            cfg: &self.cfg,
            pool: self.pool,
            golden_sigs: &self.golden_sigs,
            pats: &self.pats,
            current: &self.current,
            sim: &shared.sim,
            eval: &caches.eval,
            e: self.e,
            r_ref: self.r_ref,
            r_sel: self.r_sel,
        };
        let (committed, mut t) = decide_round(&ctx, &shared, &mut self.rng, &mut scratch);
        drop(scratch);
        self.fill_shared(&mut t, &shared);
        match self.conclude(&committed, t) {
            RoundOutcome::Adopt => {
                caches.last_remap = Some(committed.remap.clone());
                true
            }
            RoundOutcome::Retry => {
                // The circuit revision did not change; the caches roll
                // through the identity so the next round's window sees
                // them at current ids.
                caches.last_remap = Some(identity_remap(self.current.n_nodes()));
                true
            }
            RoundOutcome::Finish => false,
        }
    }

    /// Consumes the instance into the standard synthesis result.
    pub fn into_result(self) -> SynthesisResult {
        let runtime = if self.finished {
            self.elapsed
        } else {
            self.start.elapsed()
        };
        SynthesisResult {
            aig: self.current,
            error: self.e,
            rounds: self.traces,
            runtime,
            initial_ands: self.initial_ands,
            n_patterns: self.pats.n_patterns(),
        }
    }
}

/// How a cohort partitions after one shared round: the members (by
/// index into the cohort slice, in order) that continue on one common
/// branch, and the caches that branch runs on — `None` for the first
/// group, which keeps the cohort's shared caches.
#[derive(Debug)]
pub struct CohortSplit {
    /// Continuing members of this branch, as indices into the slice
    /// passed to [`step_cohort`].
    pub members: Vec<usize>,
    /// Forked caches for the branch; `None` means "keep the caches the
    /// cohort was stepped with" (first group only).
    pub caches: Option<FlowCaches>,
}

/// Advances every member of a cohort by one round, sharing the
/// bound-independent phases. Preconditions (debug-asserted): all
/// members are unfinished, share one family (equal configuration
/// except the bound), the same pattern set, and identical current
/// circuits — i.e. their trajectories so far are identical, which is
/// exactly the state `caches` encodes.
///
/// Members whose flow converges this round are finalized in place;
/// the rest come back grouped by committed edit. Each member's round
/// is bit-identical to its standalone run.
pub fn step_cohort(members: &mut [FlowInstance], caches: &mut FlowCaches) -> Vec<CohortSplit> {
    step_cohort_impl(members, caches, false)
}

/// Fault-injected [`step_cohort`] for the fuzz harness: when
/// `late_fork` is set and a round's commits diverge, the fork happens
/// one round too late — every continuing member is kept on the *first*
/// group's branch (circuit and shared caches) for one extra round
/// before any split. Displaced members continue from a circuit their
/// own trajectory never produced, so their next round diverges from a
/// standalone run, which the sweep differential oracle exists to
/// catch. Never enable outside tests.
#[doc(hidden)]
pub fn step_cohort_faulted(
    members: &mut [FlowInstance],
    caches: &mut FlowCaches,
    late_fork: bool,
) -> Vec<CohortSplit> {
    step_cohort_impl(members, caches, late_fork)
}

fn step_cohort_impl(
    members: &mut [FlowInstance],
    caches: &mut FlowCaches,
    late_fork: bool,
) -> Vec<CohortSplit> {
    assert!(!members.is_empty(), "a cohort has at least one member");
    debug_assert!(
        members.iter().all(|m| !m.finished),
        "cohorts hold only unfinished members"
    );
    debug_assert!(
        members
            .iter()
            .all(|m| m.cfg.family_eq(&members[0].cfg) && m.round == members[0].round),
        "cohort members share one family and round"
    );
    if members[0].round >= members[0].cfg.max_rounds {
        for m in members.iter_mut() {
            m.finish();
        }
        return Vec::new();
    }
    // The shared base circuit. Cloned out so member state can be
    // borrowed mutably during the per-member decisions.
    let base = members[0].current.clone();
    debug_assert!(
        members.iter().all(|m| m.current.n_nodes() == base.n_nodes()),
        "cohort members share one circuit"
    );
    let pats = members[0].pats.clone();
    let golden_sigs = members[0].golden_sigs.clone();
    let (rep_cfg, rep_pool, rep_r_ref) = (members[0].cfg.clone(), members[0].pool, members[0].r_ref);
    let Some(shared) =
        prepare_round(&rep_cfg, rep_pool, &base, &pats, &golden_sigs, caches, rep_r_ref)
    else {
        for m in members.iter_mut() {
            m.finish();
        }
        return Vec::new();
    };

    let mut scratch = RoundScratch::default();
    let mut outcomes: Vec<Option<Option<Arc<Committed>>>> = Vec::with_capacity(members.len());
    for m in members.iter_mut() {
        let ctx = RoundCtx {
            cfg: &m.cfg,
            pool: m.pool,
            golden_sigs: &golden_sigs,
            pats: &pats,
            current: &base,
            sim: &shared.sim,
            eval: &caches.eval,
            e: m.e,
            r_ref: m.r_ref,
            r_sel: m.r_sel,
        };
        let (committed, mut t) = decide_round(&ctx, &shared, &mut m.rng, &mut scratch);
        m.fill_shared(&mut t, &shared);
        // Outer option: still continuing. Inner option: adopted an edit
        // (`None` = windowed retry from the unchanged revision).
        outcomes.push(match m.conclude(&committed, t) {
            RoundOutcome::Adopt => Some(Some(committed)),
            RoundOutcome::Retry => Some(None),
            RoundOutcome::Finish => None,
        });
    }
    drop(scratch);

    // Partition continuing members by committed-edit identity (memo
    // Arc pointer): members that committed the same set share the same
    // downstream cache state. Distinct sets reaching the same circuit
    // are (conservatively, safely) treated as separate branches.
    // Windowed retries form one extra branch staying on the base
    // circuit (its caches roll through the identity).
    let mut groups: Vec<(Vec<usize>, Option<Arc<Committed>>)> = Vec::new();
    for (i, oc) in outcomes.iter().enumerate() {
        if let Some(c) = oc {
            let same = |g: &Option<Arc<Committed>>| match (g, c) {
                (Some(g), Some(c)) => Arc::ptr_eq(g, c),
                (None, None) => true,
                _ => false,
            };
            match groups.iter_mut().find(|(_, g)| same(g)) {
                Some((v, _)) => v.push(i),
                None => groups.push((vec![i], c.clone())),
            }
        }
    }
    if late_fork && groups.len() > 1 && groups[0].1.is_some() {
        // Deliberate fault: defer the fork by one round. Every
        // continuing member stays on the FIRST group's branch — its
        // circuit and the shared caches — for one more round, as if the
        // commit divergence had gone unnoticed. The caches alone cannot
        // carry the fault (their carry logic re-validates every entry
        // against the circuit it is asked to serve), but the displaced
        // members now continue from a circuit their own trajectory
        // never produced, so their next round must diverge from a
        // standalone run — which the sweep differential oracle exists
        // to catch.
        let (g0, c0) = &groups[0];
        let c0 = c0.as_ref().expect("guarded: group 0 adopted an edit");
        caches.last_remap = Some(c0.remap.clone());
        let mut all: Vec<usize> = groups.iter().flat_map(|(v, _)| v.iter().copied()).collect();
        all.sort_unstable();
        for &i in &all {
            if !g0.contains(&i) {
                members[i].current = c0.aig.clone();
            }
        }
        return vec![CohortSplit {
            members: all,
            caches: None,
        }];
    }
    let mut out = Vec::with_capacity(groups.len());
    for (gi, (idxs, c)) in groups.into_iter().enumerate() {
        let remap = match &c {
            Some(c) => c.remap.clone(),
            // Retry branch: the base circuit is unchanged, so its
            // caches roll through the identity.
            None => identity_remap(base.n_nodes()),
        };
        if gi == 0 {
            // The first group keeps the shared caches; its remap is
            // what the next prepare rolls them through.
            caches.last_remap = Some(remap);
            out.push(CohortSplit {
                members: idxs,
                caches: None,
            });
        } else {
            let mut f = caches.fork();
            f.last_remap = Some(remap);
            out.push(CohortSplit {
                members: idxs,
                caches: Some(f),
            });
        }
    }
    out
}
