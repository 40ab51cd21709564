//! End-to-end and per-layer benchmark of the AccALS reproduction.
//!
//! ```text
//! accbench --workload <arith_sweep|control_er> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it prepares the circuits (as AIGER
//! bytes in memory), times batched set-ups, then repeats fixed-work
//! passes (set-up, synthesis to final mapped and written results,
//! verification) until `--seconds` is spent, and prints the median
//! figures. `--trace 1` alternates untraced and traced passes and
//! reports per-layer figures instead; the traced passes' spans are
//! written as JSON lines under the cargo target directory. The last
//! line of standard output is the result object; the line before it is
//! the run header. See README.md in this directory.

mod layers;
mod report;
mod spans;
mod stats;
mod sys;
mod verify;
mod workload;

use accals::FlowInstance;
use errmetrics::MetricKind;
use layers::Layers;
use parkit::ThreadPool;
use spans::Recorder;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Inputs, Outcome, Workload};

/// Target duration of one set-up timing sample; set-ups are repeated
/// within a sample until it lasts about this long.
const SETUP_SAMPLE_S: f64 = 0.05;
/// Set-up samples taken before each pass of an untraced run.
const SETUP_SAMPLES_PER_PASS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The flows' pattern and selection seed for a benchmark seed.
fn flow_seed(seed: u64) -> u64 {
    (seed ^ 0xACC_A15).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Times workload set-ups in batched samples spread over the run: each
/// sample sums `batch` individually timed set-ups, sized so a sample
/// lasts about [`SETUP_SAMPLE_S`]; each ready state is dropped outside
/// the timed region before the next set-up.
struct SetupTimer {
    batch: usize,
    samples: Vec<f64>,
}

impl SetupTimer {
    /// Calibrates the batch size on one (warm-up) set-up.
    fn new(inp: &Inputs, pool: &'static ThreadPool) -> Self {
        let one = Self::timed(inp, pool);
        let batch = ((SETUP_SAMPLE_S / one.max(1e-6)).ceil() as usize).clamp(1, 100_000);
        SetupTimer {
            batch,
            samples: Vec::new(),
        }
    }

    fn timed(inp: &Inputs, pool: &'static ThreadPool) -> f64 {
        let t = Instant::now();
        let ready = black_box(workload::setup(inp, pool, &mut Recorder::new(false)));
        let s = t.elapsed().as_secs_f64();
        drop(ready);
        s
    }

    /// Takes `n` samples of seconds per set-up.
    fn sample(&mut self, inp: &Inputs, pool: &'static ThreadPool, n: usize) {
        for _ in 0..n {
            let total: f64 = (0..self.batch).map(|_| Self::timed(inp, pool)).sum();
            self.samples.push(total / self.batch as f64);
        }
    }
}

/// Tries to build a flow under the arithmetic workload's NMED
/// configuration on each wide instance, counting panics. Untimed.
fn admission_probe(pool: &'static ThreadPool, seed: u64) -> (usize, Vec<String>) {
    let cfg = workload::arith_config(MetricKind::Nmed, 0.005, seed);
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut refused = Vec::new();
    for name in workload::ADMISSION_PROBE {
        let g = workload::build_circuit(name);
        let tried = panic::catch_unwind(AssertUnwindSafe(|| {
            let pats = Arc::new(workload::patterns_for(&cfg, g.n_pis()));
            drop(FlowInstance::new(cfg.clone(), pool, &g, pats));
        }));
        if let Err(payload) = tried {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            refused.push(format!("{name}: {msg}"));
        }
    }
    panic::set_hook(default_hook);
    (workload::ADMISSION_PROBE.len(), refused)
}

/// Where the traced run writes its spans.
fn spans_path(w: Workload, seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("accbench")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("accbench: {e}");
            eprintln!("usage: accbench --workload <arith_sweep|control_er> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // An explicit thread budget: one pool thread per visible core for the
    // flows' own pool, the program's global pool and the sweep workers,
    // whatever the environment asks for.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(parkit::THREADS_ENV, threads.to_string());
    std::env::set_var(sweep::SWEEP_THREADS_ENV, threads.to_string());
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(threads)));

    let wall0 = Instant::now();
    let ticks0 = sys::cpu_ticks();
    let cpu0 = sys::process_cpu_s();
    let seed = flow_seed(args.seed);
    let inp = workload::prepare(args.workload, seed);
    let workers = if args.workload == Workload::ArithSweep {
        threads.min(inp.specs.len())
    } else {
        0
    };

    let mut untraced_synth = Vec::new();
    let mut traced_synth = Vec::new();
    let mut pass_walls = Vec::new();
    let mut layers = Layers::default();
    let mut spans_out = String::new();
    let mut first: Option<Vec<Outcome>> = None;
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let mut peak_rss = None;
    let mut setup_timer = (!args.trace).then(|| SetupTimer::new(&inp, pool));
    let run0 = Instant::now();
    loop {
        let pass = pass_walls.len();
        let pass0 = Instant::now();
        if let Some(timer) = setup_timer.as_mut() {
            timer.sample(&inp, pool, SETUP_SAMPLES_PER_PASS);
        }
        let traced = args.trace && pass % 2 == 1;
        let mut rec = Recorder::new(traced);
        let ready = workload::setup(&inp, pool, &mut rec);
        let t = Instant::now();
        let (outcomes, trace) = workload::synth(&inp, ready, threads, &mut rec);
        let synth_s = t.elapsed().as_secs_f64();
        if pass == 0 {
            // Peak memory of one cold pass: later passes, set-up timing,
            // verification and the admission probe are not counted.
            peak_rss = sys::peak_rss_mb();
        }
        if traced {
            if args.workload == Workload::ArithSweep {
                workload::resim_final_rounds(&inp, &outcomes, &mut rec);
            }
            traced_synth.push(layers.add_pass(&inp, &rec, &outcomes, &trace, workers));
            spans_out.push_str(&rec.to_jsonl(pass));
        } else {
            untraced_synth.push(synth_s);
        }
        let (n, fails) = verify::check_pass(&inp, &outcomes, first.as_deref());
        attempted += n;
        failed += verify::failed_instances(&fails);
        failures.extend(fails.into_iter().map(|(_, msg)| msg));
        if first.is_none() {
            first = Some(outcomes);
        }
        pass_walls.push(pass0.elapsed().as_secs_f64());
        let both_kinds = !args.trace || (!untraced_synth.is_empty() && !traced_synth.is_empty());
        if both_kinds && run0.elapsed().as_secs_f64() + stats::median(&pass_walls) > args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let quality = verify::quality(&inp, &first, seed);
    let (admission_tried, refused) = if args.workload == Workload::ArithSweep {
        admission_probe(pool, seed)
    } else {
        (0, Vec::new())
    };

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let overhead = stats::median(&traced_synth) / stats::median(&untraced_synth) - 1.0;
        if let Err(e) = write_spans(&spans_path(args.workload, args.seed), &spans_out) {
            eprintln!("accbench: could not write spans: {e}");
        }
        layers.metrics(overhead, (admission_tried, refused.len()))
    } else {
        let synth_s = stats::median(&untraced_synth);
        let mut removed = 0usize;
        let (mut area, mut mapped) = (Vec::new(), Vec::new());
        for o in &first {
            let c = inp.specs[o.spec].circuit;
            let initial = inp.goldens[c].n_ands();
            removed += initial.saturating_sub(o.aig.n_ands());
            area.push(o.aig.n_ands() as f64 / initial as f64);
            mapped.push(o.mapped_area / inp.golden_area[c]);
        }
        let timer = setup_timer.as_ref().expect("untraced runs time set-up");
        let values = [
            stats::median(&timer.samples),
            synth_s,
            removed as f64 / synth_s,
            stats::geomean(&area),
            stats::geomean(&mapped),
            peak_rss.unwrap_or(f64::NAN),
        ];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    let header = header_line(
        &args,
        &HeaderFacts {
            threads,
            workers,
            wall_s: wall0.elapsed().as_secs_f64(),
            cpu_s: sys::process_cpu_s().zip(cpu0).map(|(a, b)| a - b),
            steal_pct: sys::steal_pct(ticks0, sys::cpu_ticks()),
            untraced_synth: &untraced_synth,
            traced_synth: &traced_synth,
            setup: setup_timer.as_ref(),
            quality: &quality,
            admission_tried,
            refused: &refused,
            failures: &failures,
        },
    );
    for f in &failures {
        eprintln!("accbench: FAILED {f}");
    }
    let correct = failures.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    println!("{header}");
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Interquartile range over median of the per-pass figures (`null`
/// below two passes).
fn iqr_frac(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return "null".into();
    }
    let [q1, _, q3] = stats::quartiles(xs);
    report::number((q3 - q1) / stats::median(xs))
}

fn write_spans(path: &std::path::Path, jsonl: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, jsonl)
}

struct HeaderFacts<'a> {
    threads: usize,
    workers: usize,
    wall_s: f64,
    cpu_s: Option<f64>,
    steal_pct: Option<f64>,
    untraced_synth: &'a [f64],
    traced_synth: &'a [f64],
    setup: Option<&'a SetupTimer>,
    quality: &'a verify::Quality,
    admission_tried: usize,
    refused: &'a [String],
    failures: &'a [String],
}

/// The run header: machine, thread budget, toolchain, CPU time and
/// steal during the run, the per-pass figures behind the medians, and
/// the reported (not gated) quality and admission counts.
fn header_line(args: &Args, h: &HeaderFacts) -> String {
    use report::{number, string};
    let list = |xs: &[f64]| {
        format!(
            "[{}]",
            xs.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ")
        )
    };
    let strings = |xs: &[String]| {
        format!(
            "[{}]",
            xs.iter().map(|s| string(s)).collect::<Vec<_>>().join(", ")
        )
    };
    let (setup_batch, setup_samples) = h.setup.map_or((0, 0), |t| (t.batch, t.samples.len()));
    let q = h.quality;
    let fields = [
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", number(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", h.threads.to_string()),
        ("pool_threads", h.threads.to_string()),
        ("sweep_workers", h.workers.to_string()),
        ("rustc", string(&sys::command_line("rustc", &["-V"]))),
        (
            "git_rev",
            string(&sys::command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("wall_s", number(h.wall_s)),
        ("cpu_s", h.cpu_s.map_or("null".into(), number)),
        ("steal_pct", h.steal_pct.map_or("null".into(), number)),
        ("untraced_synth_s", list(h.untraced_synth)),
        ("untraced_synth_iqr_frac", iqr_frac(h.untraced_synth)),
        ("traced_synth_s", list(h.traced_synth)),
        ("setup_batch", setup_batch.to_string()),
        ("setup_samples", setup_samples.to_string()),
        ("holdout_over_bound_max", number(q.holdout_over_bound_max)),
        ("bdd_exact_checked", q.bdd_checked.to_string()),
        ("bdd_exact_tried", q.bdd_tried.to_string()),
        ("bdd_exact_over_bound_max", number(q.bdd_over_bound_max)),
        ("admission_tried", h.admission_tried.to_string()),
        ("admission_refused", h.refused.len().to_string()),
        ("admission_errors", strings(h.refused)),
        ("failures", strings(h.failures)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{\"header\": {{{}}}}}", body.join(", "))
}
