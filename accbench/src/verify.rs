//! The correctness gate run on every pass, and the quality figures
//! reported (not gated) once per run.

use crate::workload::{Inputs, Outcome};
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;

/// BDD node budget of the exact error check.
const BDD_NODE_LIMIT: usize = 1 << 18;
/// Exact BDD checks are skipped above this many inputs, where the
/// budget runs out (the 64-input adders, the widest random logic).
const BDD_MAX_PIS: usize = 40;
/// Holdout sample size and seed salt: a fresh sample the flows never saw.
const HOLDOUT_PATTERNS: usize = 1 << 13;
const HOLDOUT_SALT: u64 = 0x401d_0075_a3b1_e000;

/// Checks one pass's results. Each instance is one attempted operation;
/// it fails if
/// - its error, re-measured independently with `errmetrics::measure`
///   on the flow's own sample, differs from the flow's error in any bit
///   or exceeds the bound;
/// - its AIGER round trip (`write_binary` then `read_binary`) does not
///   reproduce its output signatures on that sample, or changes the
///   interface;
/// - it differs from the same instance in the run's first pass (every
///   pass does identical work).
///
/// Returns the attempted count and `(instance, description)` per
/// failed check; a missing result counts against instance `usize::MAX`.
pub fn check_pass(
    inp: &Inputs,
    outcomes: &[Outcome],
    first: Option<&[Outcome]>,
) -> (u64, Vec<(usize, String)>) {
    let mut failures = Vec::new();
    if outcomes.len() != inp.specs.len() {
        let msg = format!(
            "{} results for {} instances",
            outcomes.len(),
            inp.specs.len()
        );
        failures.push((usize::MAX, msg));
    }
    for o in outcomes {
        let spec = &inp.specs[o.spec];
        let golden = &inp.goldens[spec.circuit];
        let pats = &inp.samples[spec.sample];
        let what = format!(
            "{} {} <= {}",
            inp.names[spec.circuit], spec.cfg.metric, spec.cfg.error_bound
        );
        let mut bad = |msg: String| failures.push((o.spec, format!("{what}: {msg}")));
        if o.aig.n_pis() != golden.n_pis() || o.aig.n_pos() != golden.n_pos() {
            bad("interface changed".into());
            continue;
        }
        let e = errmetrics::measure(spec.cfg.metric, golden, &o.aig, pats);
        if e.to_bits() != o.error.to_bits() {
            bad(format!(
                "re-measured error {e} differs from the flow's {}",
                o.error
            ));
        }
        if e.is_nan() || e > spec.cfg.error_bound {
            bad(format!("error {e} exceeds the bound"));
        }
        match circuitio::aiger::read_binary(&o.bytes) {
            Ok(back) if back.n_pis() == o.aig.n_pis() && back.n_pos() == o.aig.n_pos() => {
                if output_sigs(&back, pats) != output_sigs(&o.aig, pats) {
                    bad("AIGER round trip changed the output signatures".into());
                }
            }
            Ok(_) => bad("AIGER round trip changed the interface".into()),
            Err(err) => bad(format!("written AIGER does not parse: {err}")),
        }
        if let Some(reference) = first.and_then(|f| f.iter().find(|r| r.spec == o.spec)) {
            if reference.bytes != o.bytes || reference.error.to_bits() != o.error.to_bits() {
                bad("result differs from the first pass".into());
            }
        }
    }
    (inp.specs.len() as u64, failures)
}

/// Failed operations among a pass's failures: each instance counts once.
pub fn failed_instances(failures: &[(usize, String)]) -> u64 {
    let mut ids: Vec<usize> = failures.iter().map(|f| f.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

fn output_sigs(g: &aig::Aig, pats: &Patterns) -> Vec<Vec<u64>> {
    simulate(g, pats).output_sigs(g)
}

/// Quality figures that are reported, not gated.
#[derive(Debug, Default)]
pub struct Quality {
    /// Largest holdout-sample error as a share of the bound.
    pub holdout_over_bound_max: f64,
    /// Instances whose exact error the BDD budget allowed, of those tried.
    pub bdd_checked: usize,
    pub bdd_tried: usize,
    /// Largest exact error as a share of the bound, over checked ones.
    pub bdd_over_bound_max: f64,
}

/// Error of each result on a fresh holdout sample, and its exact error
/// by BDD where the metric has an exact counterpart (ER, NMED) and the
/// node budget suffices. The BDD check covers the instances of the first
/// flow seed only, which keeps it to a few seconds per run.
pub fn quality(inp: &Inputs, outcomes: &[Outcome], seed: u64) -> Quality {
    let mut q = Quality::default();
    for o in outcomes {
        let spec = &inp.specs[o.spec];
        let golden = &inp.goldens[spec.circuit];
        let bound = spec.cfg.error_bound;
        let holdout = Patterns::random(golden.n_pis(), HOLDOUT_PATTERNS, seed ^ HOLDOUT_SALT);
        let h = errmetrics::measure(spec.cfg.metric, golden, &o.aig, &holdout);
        q.holdout_over_bound_max = q.holdout_over_bound_max.max(h / bound);
        let first_seed = inp
            .specs
            .iter()
            .find(|s| s.circuit == spec.circuit)
            .map(|s| s.sample);
        if golden.n_pis() > BDD_MAX_PIS || first_seed != Some(spec.sample) {
            continue;
        }
        let exact = match spec.cfg.metric {
            MetricKind::Er => bdd::exact::error_rate(golden, &o.aig, BDD_NODE_LIMIT),
            MetricKind::Nmed => bdd::exact::mean_error_distance(golden, &o.aig, BDD_NODE_LIMIT)
                .map(|med| med / ((1u128 << golden.n_pos()) - 1) as f64),
            _ => continue,
        };
        q.bdd_tried += 1;
        if let Ok(e) = exact {
            q.bdd_checked += 1;
            q.bdd_over_bound_max = q.bdd_over_bound_max.max(e / bound);
        }
    }
    q
}
