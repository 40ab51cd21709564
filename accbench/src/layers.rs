//! Per-layer figures of the traced passes.
//!
//! Phase times and counters come from the `RoundTrace`s the program
//! publishes; step, map, write and set-up times from the harness's own
//! spans around each public call. In a sweep cohort the bound-
//! independent phases (candgen, mask, score) and their counters run
//! once for the whole cohort but are copied into every member's trace,
//! so each member is charged `1/cohort_size` of them; summed over the
//! cohort that is exactly the measured value.

use crate::spans::{self_time_ns, Recorder};
use crate::stats;
use crate::workload::{Inputs, Outcome, SynthTrace, Workload};
use accals::RoundTrace;

/// Layer totals summed over the traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    passes: usize,
    read_ms: f64,
    patterns_ms: f64,
    golden_sim_ms: f64,
    flow_new_ms: f64,
    candgen_ms: f64,
    pool_hits: f64,
    pool_misses: f64,
    probe_draws: f64,
    strip_cmps: f64,
    mask_ms: f64,
    score_ms: f64,
    scored_exact: f64,
    scored_pruned: f64,
    select_ms: f64,
    trial_ms: f64,
    commit_ms: f64,
    round_sim_ms: f64,
    /// Wall time available to rounds: the step spans of standalone
    /// flows, or workers × `sweep.run` for the sweep.
    step_capacity_ms: f64,
    rounds: f64,
    single_rounds: f64,
    multi_rounds: f64,
    sol_sum: f64,
    indp_sum: f64,
    adopted: f64,
    cohort_sum: f64,
    shared_rounds: f64,
    map_ms: f64,
    write_ms: f64,
    /// `synth` span time not covered by any child span (harness glue).
    synth_self_ms: f64,
    step_samples: Vec<f64>,
}

/// Milliseconds of a span duration.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Folds in one traced pass. Returns the pass's traced `synth_s`:
    /// the `synth` span minus the harness's own round re-simulations.
    pub fn add_pass(
        &mut self,
        inp: &Inputs,
        rec: &Recorder,
        outcomes: &[Outcome],
        trace: &SynthTrace,
        workers: usize,
    ) -> f64 {
        self.passes += 1;
        self.read_ms += rec.total_ms("circuitio.read");
        self.patterns_ms += rec.total_ms("bitsim.patterns");
        self.golden_sim_ms += rec.total_ms("bitsim.golden_sim");
        self.flow_new_ms += rec.total_ms("accals.flow_new");
        self.map_ms += rec.total_ms("techmap.map");
        self.write_ms += rec.total_ms("circuitio.write");
        self.round_sim_ms += rec.total_ms("bitsim.round_sim");

        let spans = rec.spans();
        let (synth_id, synth) = spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == "synth")
            .expect("a traced pass records its synth span");
        self.synth_self_ms += ms(self_time_ns(spans, synth_id));
        let resim_in_synth: u64 = spans
            .iter()
            .filter(|s| s.name == "bitsim.round_sim" && s.parent == Some(synth_id))
            .map(|s| s.dur_ns())
            .sum();

        let sweep = inp.workload == Workload::ArithSweep;
        if sweep {
            self.step_capacity_ms += workers as f64 * rec.total_ms("sweep.run");
        } else {
            self.step_capacity_ms += rec.total_ms("accals.step");
            for &(span, adopted) in &trace.steps {
                self.step_samples.push(ms(spans[span].dur_ns()));
                self.adopted += f64::from(u8::from(adopted));
            }
        }
        for o in outcomes {
            let cohorts = trace.cohorts.get(o.spec).map_or(&[][..], Vec::as_slice);
            for (r, t) in o.rounds.iter().enumerate() {
                let k = cohorts.get(r).copied().unwrap_or(1).max(1);
                let attributed = self.add_round(t, k as f64);
                if sweep {
                    self.step_samples.push(attributed);
                }
            }
            if sweep {
                let initial = inp.goldens[inp.specs[o.spec].circuit].n_ands();
                self.adopted += adopted_rounds(&o.rounds, initial, &o.aig, o.error) as f64;
            }
        }
        ms(synth.dur_ns() - resim_in_synth) / 1e3
    }

    /// Adds one member round charged `1/k` of its cohort's shared
    /// phases; returns the round's attributed phase time in ms.
    fn add_round(&mut self, t: &RoundTrace, k: f64) -> f64 {
        self.candgen_ms += t.candgen_ms / k;
        self.mask_ms += t.mask_ms / k;
        self.score_ms += t.score_ms / k;
        self.pool_hits += t.candgen_pool_hits as f64 / k;
        self.pool_misses += t.candgen_pool_misses as f64 / k;
        self.probe_draws += t.candgen_probe_draws as f64 / k;
        self.strip_cmps += t.candgen_strip_cmps as f64 / k;
        self.scored_exact += t.scored_exact as f64 / k;
        self.scored_pruned += t.scored_pruned as f64 / k;
        self.select_ms += t.select_ms;
        self.trial_ms += t.trial_ms;
        self.commit_ms += t.commit_ms;
        self.rounds += 1.0;
        if t.single_mode {
            self.single_rounds += 1.0;
        } else {
            self.multi_rounds += 1.0;
            self.sol_sum += t.n_sol as f64;
            self.indp_sum += t.n_indp as f64;
        }
        self.cohort_sum += k;
        if k >= 2.0 {
            self.shared_rounds += 1.0;
        }
        (t.candgen_ms + t.mask_ms + t.score_ms) / k + t.select_ms + t.trial_ms + t.commit_ms
    }

    fn phase_ms(&self) -> f64 {
        self.candgen_ms
            + self.mask_ms
            + self.score_ms
            + self.select_ms
            + self.trial_ms
            + self.commit_ms
    }

    /// The per-layer metrics, per traced pass, as `(name, value, unit)`
    /// in the order of `BENCHMARK.json`.
    pub fn metrics(
        &self,
        overhead_frac: f64,
        admission: (usize, usize),
    ) -> Vec<(&'static str, f64, &'static str)> {
        let p = self.passes.max(1) as f64;
        let unattributed = self.step_capacity_ms - self.phase_ms();
        let tail_pct = stats::tail_percentile(self.step_samples.len());
        let (p50, tail) = if self.step_samples.is_empty() {
            (0.0, 0.0)
        } else {
            (
                stats::percentile(&self.step_samples, 50),
                stats::percentile(&self.step_samples, tail_pct),
            )
        };
        vec![
            ("circuitio.read_ms", self.read_ms / p, "ms"),
            ("bitsim.patterns_ms", self.patterns_ms / p, "ms"),
            ("bitsim.golden_sim_ms", self.golden_sim_ms / p, "ms"),
            ("accals.flow_new_ms", self.flow_new_ms / p, "ms"),
            ("lac.candgen_ms", self.candgen_ms / p, "ms"),
            (
                "lac.regen_frac",
                ratio(self.pool_misses, self.pool_hits + self.pool_misses),
                "ratio",
            ),
            ("lac.probe_draws", self.probe_draws / p, "count"),
            ("lac.strip_cmps", self.strip_cmps / p, "count"),
            ("estimate.mask_ms", self.mask_ms / p, "ms"),
            ("estimate.score_ms", self.score_ms / p, "ms"),
            (
                "estimate.pruned_frac",
                ratio(self.scored_pruned, self.scored_exact + self.scored_pruned),
                "ratio",
            ),
            ("accals.select_ms", self.select_ms / p, "ms"),
            (
                "accals.sol_mean",
                ratio(self.sol_sum, self.multi_rounds),
                "count",
            ),
            (
                "accals.indp_mean",
                ratio(self.indp_sum, self.multi_rounds),
                "count",
            ),
            (
                "accals.single_frac",
                ratio(self.single_rounds, self.rounds),
                "ratio",
            ),
            ("accals.trial_ms", self.trial_ms / p, "ms"),
            ("accals.commit_ms", self.commit_ms / p, "ms"),
            ("bitsim.round_sim_ms", self.round_sim_ms / p, "ms"),
            ("accals.unattributed_ms", unattributed / p, "ms"),
            (
                "accals.unattributed_frac",
                ratio(unattributed, self.step_capacity_ms),
                "ratio",
            ),
            ("accals.step_ms_p50", p50, "ms"),
            ("accals.step_ms_tail", tail, "ms"),
            ("accals.step_tail_pct", f64::from(tail_pct), "pct"),
            ("accals.steps", self.step_samples.len() as f64 / p, "count"),
            (
                "accals.adopt_frac",
                ratio(self.adopted, self.rounds),
                "ratio",
            ),
            (
                "sweep.cohort_size_mean",
                ratio(self.cohort_sum, self.rounds),
                "count",
            ),
            (
                "sweep.shared_round_frac",
                ratio(self.shared_rounds, self.rounds),
                "ratio",
            ),
            ("techmap.map_ms", self.map_ms / p, "ms"),
            ("circuitio.write_ms", self.write_ms / p, "ms"),
            ("harness.synth_self_ms", self.synth_self_ms / p, "ms"),
            ("trace.overhead_frac", overhead_frac, "ratio"),
            ("admission.tried", admission.0 as f64, "count"),
            ("admission.refused", admission.1 as f64, "count"),
        ]
    }
}

/// Adopted rounds of a dense trajectory, inferred from circuit and
/// error change: every round but the last was adopted (a dense flow
/// stops at the first round it does not adopt), and the last one was
/// adopted if the final result is its outcome and differs from the
/// state before it.
pub fn adopted_rounds(
    rounds: &[RoundTrace],
    initial_ands: usize,
    result: &aig::Aig,
    error: f64,
) -> usize {
    let Some(last) = rounds.last() else {
        return 0;
    };
    let before_ands = rounds
        .len()
        .checked_sub(2)
        .map_or(initial_ands, |i| rounds[i].n_ands_after);
    let is_outcome =
        result.n_ands() == last.n_ands_after && error.to_bits() == last.e_after.to_bits();
    let changed =
        (last.n_ands_after, last.e_after.to_bits()) != (before_ands, last.e_before.to_bits());
    rounds.len() - 1 + usize::from(is_outcome && changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(n_ands_after: usize, e_before: f64, e_after: f64) -> RoundTrace {
        RoundTrace {
            round: 0,
            single_mode: false,
            n_candidates: 0,
            r_top: 0,
            n_sol: 0,
            n_indp: 0,
            n_rand: 0,
            chose_indp: false,
            applied: 1,
            dropped_cycle: 0,
            reverted: false,
            e_before,
            e_after,
            e_est: e_after,
            n_ands_after,
            scored_exact: 0,
            scored_pruned: 0,
            candgen_ms: 0.0,
            mask_ms: 0.0,
            score_ms: 0.0,
            select_ms: 0.0,
            trial_ms: 0.0,
            commit_ms: 0.0,
            candgen_probe_draws: 0,
            candgen_strip_cmps: 0,
            candgen_pool_hits: 0,
            candgen_pool_misses: 0,
            window_targets: 0,
        }
    }

    /// An AND chain over `n_ands + 1` inputs.
    fn circuit(n_ands: usize) -> aig::Aig {
        let mut g = aig::Aig::new("t", n_ands + 1);
        let mut x = g.pi(0);
        for i in 1..=n_ands {
            let y = g.pi(i);
            x = g.and(x, y);
        }
        g.add_output(x, "o");
        g
    }

    #[test]
    fn last_round_adopted_only_if_it_is_the_outcome() {
        let rounds = [round(8, 0.0, 0.01), round(6, 0.01, 0.02)];
        // Stopped by the round budget: the last round is the result.
        let g6 = circuit(6);
        assert_eq!(g6.n_ands(), 6);
        assert_eq!(adopted_rounds(&rounds, 10, &g6, 0.02), 2);
        // Stopped because the last round overshot: the previous circuit stays.
        let g8 = circuit(8);
        assert_eq!(adopted_rounds(&rounds, 10, &g8, 0.01), 1);
        assert_eq!(adopted_rounds(&[], 10, &g8, 0.0), 0);
    }

    #[test]
    fn cohort_members_split_shared_phases() {
        let mut t = round(5, 0.0, 0.0);
        t.candgen_ms = 6.0;
        t.trial_ms = 1.0;
        t.candgen_pool_misses = 4;
        let mut l = Layers::default();
        // Two members of one cohort round carry the same shared figures.
        assert_eq!(l.add_round(&t, 2.0), 4.0);
        assert_eq!(l.add_round(&t, 2.0), 4.0);
        assert_eq!(l.candgen_ms, 6.0);
        assert_eq!(l.trial_ms, 2.0);
        assert_eq!(l.pool_misses, 4.0);
        assert_eq!(l.shared_rounds, 2.0);
    }
}
