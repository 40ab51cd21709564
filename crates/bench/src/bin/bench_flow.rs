//! End-to-end flow benchmark: full `synthesize` wall-clock of the
//! production round pipeline — cross-round candidate store, pruned
//! top-k scoring over cached masks, incremental trial evaluation —
//! versus `accals::reference`, the oracle that generates candidates
//! fresh, scores densely, and measures every candidate set by a full
//! commit and re-simulation. Same circuits, bounds, and thread pool.
//!
//! Both commit the identical circuit through the identical round
//! sequence — each pair is run once and asserted identical before it is
//! timed — so the numbers compare two implementations of the same
//! algorithm, not two algorithms. Std-only timing
//! (`std::time::Instant`; min, median and max of the repeats, so a
//! reader can tell a change from host noise); results go to
//! `BENCH_flow.json` in the working directory.
//!
//! Usage: `bench_flow [circuit[=bound] ...]` (default: mtp8 rca32 alu4
//! at per-circuit default bounds), or `bench_flow --smoke` for a fast
//! single-circuit sanity run that writes no file (used by
//! `scripts/check_offline.sh`). Every circuit is timed once per pool
//! width in [`THREAD_COUNTS`] that does not exceed the visible core
//! count — one JSON row each; wider pools would only time
//! oversubscription, so they are listed under `threads_skipped` and
//! run once, untimed, for the identity check. The committed circuit is
//! asserted identical across production and reference *and* all
//! thread counts.

use accals::{Accals, AccalsConfig, RoundTrace, SynthesisResult};
use aig::Aig;
use errmetrics::MetricKind;
use parkit::ThreadPool;
use std::fmt::Write as _;
use std::time::Instant;

const REPEATS: usize = 3;

/// Pool widths benchmarked per circuit. Determinism is part of the
/// contract: the trajectory must not depend on the pool width, so each
/// width's result is checked against the first.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Metric and error bound per circuit, loose enough to sustain a
/// multi-round run. The arithmetic circuits use NMED (the paper's
/// metric for them); the control circuit uses ER.
fn metric_for(name: &str) -> (MetricKind, f64) {
    match name {
        "mtp8" | "wal8" => (MetricKind::Nmed, 0.01),
        "rca32" | "cla32" | "ksa32" => (MetricKind::Nmed, 0.02),
        _ => (MetricKind::Er, 0.2),
    }
}

/// Min, median and max wall time of repeated runs, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn json(&self) -> String {
        format!(
            "{{\"min\": {:.3}, \"median\": {:.3}, \"max\": {:.3}}}",
            self.min, self.median, self.max
        )
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}ms [{:.1}..{:.1}]", self.median, self.min, self.max)
    }
}

/// Wall time of `f` over `repeats` runs.
fn time_spread(repeats: usize, mut f: impl FnMut()) -> Spread {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Spread {
        min: times[0],
        median: times[times.len() / 2],
        max: times[times.len() - 1],
    }
}

/// Production and reference promise the identical committed circuit;
/// a benchmark comparing divergent runs would be meaningless.
fn check_identity(name: &str, a: &SynthesisResult, b: &SynthesisResult) {
    assert_eq!(
        (a.aig.n_ands(), a.error.to_bits(), a.rounds.len()),
        (b.aig.n_ands(), b.error.to_bits(), b.rounds.len()),
        "{name}: final circuit diverged"
    );
    let key = |r: &RoundTrace| {
        let e_after = r.e_after.to_bits();
        (r.applied, e_after, r.n_ands_after, r.n_candidates, r.r_top)
    };
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(key(ra), key(rb), "{name}: round {} diverged", ra.round);
    }
}

struct FlowReport {
    name: String,
    kind: MetricKind,
    bound: f64,
    threads: usize,
    initial_ands: usize,
    final_ands: usize,
    error: f64,
    rounds: usize,
    reference_ms: Spread,
    production_ms: Spread,
    /// Per-phase totals of the production run, from
    /// [`SynthesisResult::phase_totals_ms`]: candgen, mask, score,
    /// select, trial, commit.
    production_phases_ms: [f64; 6],
    /// Candidates scored exactly / abandoned on the bound across every
    /// round of the production run.
    scored_exact: usize,
    scored_pruned: usize,
}

const PHASE_NAMES: [&str; 6] = ["candgen", "mask", "score", "select", "trial", "commit"];

impl FlowReport {
    /// Ratio of the median wall times.
    fn speedup(&self) -> f64 {
        self.reference_ms.median / self.production_ms.median.max(1e-9)
    }

    fn rounds_per_sec(&self, ms: f64) -> f64 {
        self.rounds as f64 / (ms / 1e3).max(1e-9)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("    {\n");
        let _ = writeln!(s, "      \"circuit\": \"{}\",", self.name);
        let _ = writeln!(s, "      \"metric\": \"{:?}\",", self.kind);
        let _ = writeln!(s, "      \"error_bound\": {},", self.bound);
        let _ = writeln!(s, "      \"threads\": {},", self.threads);
        let _ = writeln!(s, "      \"initial_ands\": {},", self.initial_ands);
        let _ = writeln!(s, "      \"final_ands\": {},", self.final_ands);
        let _ = writeln!(s, "      \"error\": {:.6},", self.error);
        let _ = writeln!(s, "      \"rounds\": {},", self.rounds);
        let _ = writeln!(s, "      \"reference_ms\": {},", self.reference_ms.json());
        let _ = writeln!(s, "      \"production_ms\": {},", self.production_ms.json());
        for (n, v) in PHASE_NAMES.iter().zip(self.production_phases_ms) {
            let _ = writeln!(s, "      \"production_{n}_ms\": {v:.3},");
        }
        let _ = writeln!(s, "      \"scored_exact\": {},", self.scored_exact);
        let _ = writeln!(s, "      \"scored_pruned\": {},", self.scored_pruned);
        let _ = writeln!(
            s,
            "      \"rounds_per_sec_reference\": {:.2},",
            self.rounds_per_sec(self.reference_ms.median)
        );
        let _ = writeln!(
            s,
            "      \"rounds_per_sec_production\": {:.2},",
            self.rounds_per_sec(self.production_ms.median)
        );
        let _ = writeln!(s, "      \"speedup\": {:.2}", self.speedup());
        s.push_str("    }");
        s
    }
}

/// Runs one production/reference pair on `pool`, asserts identity, then
/// times `repeats` runs of each. Returns the report and the production
/// result (for the cross-thread identity check).
fn bench_circuit(
    name: &str,
    golden: &Aig,
    kind: MetricKind,
    bound: f64,
    repeats: usize,
    pool: &'static ThreadPool,
) -> (FlowReport, SynthesisResult) {
    let cfg = AccalsConfig::new(kind, bound);
    let production = || Accals::new(cfg.clone()).with_pool(pool).synthesize(golden);
    let reference = || accals::reference::synthesize(cfg.clone(), pool, golden);
    let prod = production();
    check_identity(
        &format!("{name} threads={}", pool.threads()),
        &prod,
        &reference(),
    );
    let reference_ms = time_spread(repeats, || drop(reference()));
    let production_ms = time_spread(repeats, || drop(production()));
    let report = FlowReport {
        name: name.to_string(),
        kind,
        bound,
        threads: pool.threads(),
        initial_ands: prod.initial_ands,
        final_ands: prod.aig.n_ands(),
        error: prod.error,
        rounds: prod.rounds.len(),
        reference_ms,
        production_ms,
        production_phases_ms: prod.phase_totals_ms(),
        scored_exact: prod.rounds.iter().map(|r| r.scored_exact).sum(),
        scored_pruned: prod.rounds.iter().map(|r| r.scored_pruned).sum(),
    };
    (report, prod)
}

fn print_report(r: &FlowReport) {
    println!(
        "{:>6} ({:?} <= {}) threads {}: {} -> {} ANDs, {} rounds | reference {} ({:.1} rounds/s) | production {} ({:.1} rounds/s) -> {:.2}x",
        r.name,
        r.kind,
        r.bound,
        r.threads,
        r.initial_ands,
        r.final_ands,
        r.rounds,
        r.reference_ms,
        r.rounds_per_sec(r.reference_ms.median),
        r.production_ms,
        r.rounds_per_sec(r.production_ms.median),
        r.speedup()
    );
    let phases: Vec<String> = PHASE_NAMES
        .iter()
        .zip(r.production_phases_ms)
        .map(|(n, v)| format!("{n} {v:.0}"))
        .collect();
    println!(
        "        production phase ms: {} ({} pruned / {} exact scores)",
        phases.join(", "),
        r.scored_pruned,
        r.scored_exact
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pools: Vec<&'static ThreadPool> = THREAD_COUNTS
        .iter()
        .map(|&t| &*Box::leak(Box::new(ThreadPool::new(t))))
        .collect();

    if args.iter().any(|a| a == "--smoke") {
        // One tiny circuit, one repeat per pool width, identity asserted
        // between production and reference and across all widths; no
        // file.
        let golden = benchgen::multipliers::array_multiplier(4);
        let mut baseline: Option<SynthesisResult> = None;
        for pool in &pools {
            let (r, prod) = bench_circuit("mtp4", &golden, MetricKind::Nmed, 0.005, 1, pool);
            print_report(&r);
            match &baseline {
                None => baseline = Some(prod),
                Some(first) => {
                    check_identity(&format!("mtp4 threads={}", pool.threads()), first, &prod)
                }
            }
        }
        println!("smoke ok (production = reference, identical across threads {THREAD_COUNTS:?})");
        return;
    }

    let circuits: Vec<(String, Option<f64>)> = if args.is_empty() {
        ["mtp8", "rca32", "alu4"]
            .iter()
            .map(|n| (n.to_string(), None))
            .collect()
    } else {
        args.iter()
            .map(|a| match a.split_once('=') {
                Some((n, b)) => (
                    n.to_string(),
                    Some(b.parse().expect("bound must be a number")),
                ),
                None => (a.clone(), None),
            })
            .collect()
    };

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (timed, skipped): (Vec<&'static ThreadPool>, Vec<&'static ThreadPool>) = pools
        .iter()
        .partition(|p| cores == 0 || p.threads() <= cores);
    let skipped_widths: Vec<usize> = skipped.iter().map(|p| p.threads()).collect();
    println!(
        "bench_flow: end-to-end synthesize, {REPEATS} repeats (median [min..max]), threads {THREAD_COUNTS:?} ({cores} cores visible)"
    );
    if !skipped.is_empty() {
        println!("        timing skipped at threads {skipped_widths:?} (more than {cores} cores; identity still checked)");
    }
    let mut reports = Vec::new();
    for (name, bound) in &circuits {
        let golden = benchgen::suite::by_name(name).expect("known suite circuit");
        let (kind, default_bound) = metric_for(name);
        let bound = bound.unwrap_or(default_bound);
        let mut baseline: Option<SynthesisResult> = None;
        for pool in &timed {
            let (r, prod) = bench_circuit(name, &golden, kind, bound, REPEATS, pool);
            print_report(&r);
            match &baseline {
                None => baseline = Some(prod),
                Some(first) => {
                    check_identity(&format!("{name} threads={}", pool.threads()), first, &prod)
                }
            }
            reports.push(r);
        }
        let first = baseline.expect("the one-thread pool is always timed");
        for pool in &skipped {
            let prod = Accals::new(AccalsConfig::new(kind, bound))
                .with_pool(pool)
                .synthesize(&golden);
            check_identity(&format!("{name} threads={}", pool.threads()), &first, &prod);
        }
    }

    let mut json = format!(
        "{{\n  \"bench\": \"flow\",\n  \"cores_visible\": {cores},\n  \"repeats\": {REPEATS},\n  \"threads_skipped\": {skipped_widths:?},\n  \"circuits\": [\n"
    );
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&r.to_json());
        json.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_flow.json", &json).expect("write BENCH_flow.json");
    println!("wrote BENCH_flow.json");
}
