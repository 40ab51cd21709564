//! The three workloads: their inputs, set-up, timed synthesis, and the
//! layer figures a traced pass yields.
//!
//! Every pass does a fixed, deterministic amount of work: dense flows
//! run to convergence and windowed flows run a fixed round budget, so
//! the final circuits (and the quality metrics) repeat exactly for a
//! seed and only the speed varies.

use crate::spans::Recorder;
use accals::{AccalsConfig, FlowCaches, FlowInstance, RoundTrace};
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;
use parkit::ThreadPool;
use std::hint::black_box;
use std::sync::Arc;
use sweep::{SweepEvent, SweepJob, SweepOptions};
use techmap::{Library, MapMode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-size arithmetic circuits under nested NMED and MRED bound
    /// grids, run as one `sweep::SweepJob`.
    ArithSweep,
    /// Control and random logic as standalone dense ER flows.
    ControlEr,
}

/// Small arithmetic circuits of the paper suite.
const ARITH: [&str; 5] = ["rca32", "cla32", "ksa32", "mtp8", "wal8"];
/// Two nested bounds per metric family, so every circuit and seed forms
/// two cohorts of two instances.
const ARITH_GRIDS: [(MetricKind, [f64; 2]); 2] = [
    (MetricKind::Nmed, [0.002, 0.005]),
    (MetricKind::Mred, [0.005, 0.01]),
];
/// Sample size of the arithmetic flows.
const ARITH_PATTERNS: usize = 1 << 11;

/// ISCAS- and LGSynth-like control and random logic.
const CONTROL: [&str; 8] = [
    "alu4", "c1908", "c3540", "c880", "alu2", "apex6", "frg2", "term1",
];
const CONTROL_ER_BOUNDS: [f64; 3] = [0.01, 0.03, 0.05];

/// Wide-output EPFL-class instances whose admission under the
/// arithmetic workload's NMED configuration is probed (untimed).
pub const ADMISSION_PROBE: [&str; 3] = ["adder128", "sqrt128", "mult128"];

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ArithSweep, Workload::ControlEr];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArithSweep => "arith_sweep",
            Workload::ControlEr => "control_er",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Flow seeds per instance: each circuit and bound runs once per
    /// seed drawn from the benchmark seed, so a pass averages over
    /// several trajectories and its work depends little on the seed.
    fn sub_seeds(self) -> u64 {
        match self {
            Workload::ArithSweep => 6,
            Workload::ControlEr => 2,
        }
    }

    /// Round budget per flow and pass.
    fn rounds(self) -> usize {
        match self {
            Workload::ArithSweep => 4,
            Workload::ControlEr => 3,
        }
    }

    fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::ArithSweep => &ARITH,
            Workload::ControlEr => &CONTROL,
        }
    }

    /// The flow configurations run on one circuit for one flow seed, in
    /// instance order.
    fn configs(self, seed: u64) -> Vec<AccalsConfig> {
        let mut cfgs: Vec<AccalsConfig> = match self {
            Workload::ArithSweep => ARITH_GRIDS
                .iter()
                .flat_map(|&(metric, bounds)| bounds.map(|b| (metric, b)))
                .map(|(metric, bound)| arith_config(metric, bound, seed))
                .collect(),
            Workload::ControlEr => CONTROL_ER_BOUNDS
                .iter()
                .map(|&bound| AccalsConfig::new(MetricKind::Er, bound))
                .collect(),
        };
        for cfg in &mut cfgs {
            cfg.seed = seed;
            cfg.max_rounds = self.rounds();
        }
        cfgs
    }
}

/// An arithmetic-workload flow configuration (also the admission
/// probe's, which never steps).
pub fn arith_config(metric: MetricKind, bound: f64, seed: u64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.max_exhaustive = ARITH_PATTERNS;
    cfg.n_random_patterns = ARITH_PATTERNS;
    cfg.seed = seed;
    cfg
}

/// Builds a circuit of the paper suite or the full-scale EPFL class
/// (the admission probe's wide instances).
pub fn build_circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).unwrap_or_else(|| panic!("unknown circuit `{name}`"))
}

/// The flows' sample for `cfg` over `n_pis` inputs.
pub fn patterns_for(cfg: &AccalsConfig, n_pis: usize) -> Patterns {
    Patterns::for_circuit(n_pis, cfg.max_exhaustive, cfg.n_random_patterns, cfg.seed)
}

/// One flow instance of a workload.
pub struct Spec {
    pub circuit: usize,
    /// Index of the instance's sample in [`Inputs::samples`].
    pub sample: usize,
    pub cfg: AccalsConfig,
}

/// Everything a workload needs before set-up: the circuits as AIGER
/// bytes in memory, plus reference data for verification. Built once
/// per run and never timed.
pub struct Inputs {
    pub workload: Workload,
    pub names: Vec<&'static str>,
    pub aiger: Vec<Vec<u8>>,
    pub goldens: Vec<Aig>,
    pub golden_area: Vec<f64>,
    /// Per circuit and flow seed: the sample the flows measure their
    /// error on.
    pub samples: Vec<Arc<Patterns>>,
    /// Instances, grouped by circuit in ascending order, then by sample.
    pub specs: Vec<Spec>,
    pub lib: Library,
}

pub fn prepare(workload: Workload, seed: u64) -> Inputs {
    let lib = Library::mcnc_mini();
    let names = workload.circuits().to_vec();
    let goldens: Vec<Aig> = names.iter().map(|n| build_circuit(n)).collect();
    let aiger = goldens.iter().map(circuitio::aiger::write_binary).collect();
    let golden_area = goldens
        .iter()
        .map(|g| techmap::map(g, &lib, MapMode::Area).area)
        .collect();
    let mut specs = Vec::new();
    let mut samples = Vec::new();
    for (circuit, g) in goldens.iter().enumerate() {
        for k in 0..workload.sub_seeds() {
            let cfgs = workload.configs(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let sample = samples.len();
            samples.push(Arc::new(patterns_for(&cfgs[0], g.n_pis())));
            specs.extend(cfgs.into_iter().map(|cfg| Spec {
                circuit,
                sample,
                cfg,
            }));
        }
    }
    Inputs {
        workload,
        names,
        aiger,
        goldens,
        golden_area,
        samples,
        specs,
        lib,
    }
}

/// A flow built and ready to step.
pub struct ReadyFlow {
    spec: usize,
    flow: FlowInstance,
    caches: FlowCaches,
    pats: Arc<Patterns>,
}

/// The workload's ready state: standalone flows or one sweep job.
pub enum Ready {
    Flows(Vec<ReadyFlow>),
    Sweep(SweepJob),
}

/// From AIGER bytes in memory to ready flows. Spans: `setup` with
/// children `circuitio.read`, `bitsim.patterns`, `bitsim.golden_sim`,
/// `accals.flow_new` (standalone flows) or `sweep.job_build` (sweep).
/// Instances on one circuit and flow seed share one sample and golden
/// simulation.
pub fn setup(inp: &Inputs, pool: &'static ThreadPool, rec: &mut Recorder) -> Ready {
    let root = rec.begin("setup");
    let sweep = inp.workload == Workload::ArithSweep;
    let mut job = SweepJob::new();
    let mut flows = Vec::new();
    for (c, bytes) in inp.aiger.iter().enumerate() {
        let s = rec.begin("circuitio.read");
        let g = circuitio::aiger::read_binary(bytes).expect("benchmark circuits parse");
        rec.end(s);
        let mut specs = inp
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.circuit == c)
            .peekable();
        if sweep {
            let s = rec.begin("sweep.job_build");
            let id = job.add_circuit(g);
            for (_, spec) in specs {
                job.add_instance(id, spec.cfg.clone());
            }
            rec.end(s);
            continue;
        }
        // Specs are grouped by sample: one pattern set and golden
        // simulation per group.
        while let Some(&(_, first)) = specs.peek() {
            let sample = first.sample;
            let s = rec.begin("bitsim.patterns");
            let pats = Arc::new(patterns_for(&first.cfg, g.n_pis()));
            rec.end(s);
            let s = rec.begin("bitsim.golden_sim");
            let sigs = Arc::new(simulate(&g, &pats).output_sigs(&g));
            rec.end(s);
            while let Some((i, spec)) = specs.next_if(|(_, s)| s.sample == sample) {
                let s = rec.begin("accals.flow_new");
                let flow = FlowInstance::with_shared(
                    spec.cfg.clone(),
                    pool,
                    &g,
                    pats.clone(),
                    sigs.clone(),
                );
                let caches = flow.caches();
                rec.end(s);
                flows.push(ReadyFlow {
                    spec: i,
                    flow,
                    caches,
                    pats: pats.clone(),
                });
            }
        }
    }
    rec.end(root);
    if sweep {
        Ready::Sweep(job)
    } else {
        Ready::Flows(flows)
    }
}

/// One finished instance, mapped and written.
pub struct Outcome {
    pub spec: usize,
    pub aig: Aig,
    pub error: f64,
    pub rounds: Vec<RoundTrace>,
    pub mapped_area: f64,
    pub bytes: Vec<u8>,
}

/// What a traced pass saw besides its spans.
#[derive(Default)]
pub struct SynthTrace {
    /// Standalone flows: one entry per `step` call that ran a round —
    /// its span id and whether the round was adopted (the circuit or
    /// its error changed).
    pub steps: Vec<(usize, bool)>,
    /// Sweep: per instance, the cohort size of each of its rounds.
    pub cohorts: Vec<Vec<usize>>,
}

/// From ready flows to final results mapped and written. Spans:
/// `synth` with children `accals.step` (plus `bitsim.round_sim`, the
/// harness re-simulating each round's circuit) or `sweep.run`, then
/// `techmap.map` and `circuitio.write` per instance.
pub fn synth(
    inp: &Inputs,
    ready: Ready,
    threads: usize,
    rec: &mut Recorder,
) -> (Vec<Outcome>, SynthTrace) {
    let root = rec.begin("synth");
    let mut trace = SynthTrace::default();
    let finished: Vec<(usize, accals::SynthesisResult)> = match ready {
        Ready::Flows(flows) => flows
            .into_iter()
            .map(|rf| (rf.spec, run_flow(rf, rec, &mut trace)))
            .collect(),
        Ready::Sweep(job) => {
            let opts = SweepOptions {
                threads,
                ..SweepOptions::default()
            };
            let s = rec.begin("sweep.run");
            let result = if rec.is_on() {
                let cohorts = &mut trace.cohorts;
                sweep::run_traced(&job, &opts, &mut |ev| {
                    if let SweepEvent::Round {
                        instance,
                        round,
                        cohort_size,
                        ..
                    } = ev
                    {
                        if cohorts.len() <= instance {
                            cohorts.resize(instance + 1, Vec::new());
                        }
                        let sizes = &mut cohorts[instance];
                        if sizes.len() <= round {
                            sizes.resize(round + 1, 0);
                        }
                        sizes[round] = cohort_size;
                    }
                })
            } else {
                sweep::run(&job, &opts)
            };
            rec.end(s);
            result
                .instances
                .into_iter()
                .map(|i| {
                    let spec = &inp.specs[i.instance].cfg;
                    assert!(
                        i.metric == spec.metric && i.error_bound == spec.error_bound,
                        "sweep instances come back in submission order"
                    );
                    (i.instance, i.result)
                })
                .collect()
        }
    };
    let mut out = Vec::with_capacity(finished.len());
    for (spec, result) in finished {
        let s = rec.begin("techmap.map");
        let mapped_area = techmap::map(&result.aig, &inp.lib, MapMode::Area).area;
        rec.end(s);
        let s = rec.begin("circuitio.write");
        let bytes = circuitio::aiger::write_binary(&result.aig);
        rec.end(s);
        out.push(Outcome {
            spec,
            aig: result.aig,
            error: result.error,
            rounds: result.rounds,
            mapped_area,
            bytes,
        });
    }
    rec.end(root);
    (out, trace)
}

fn run_flow(
    mut rf: ReadyFlow,
    rec: &mut Recorder,
    trace: &mut SynthTrace,
) -> accals::SynthesisResult {
    loop {
        let before = (
            rf.flow.rounds().len(),
            rf.flow.current().n_ands(),
            rf.flow.error().to_bits(),
        );
        let s = rec.begin("accals.step");
        let more = rf.flow.step(&mut rf.caches);
        rec.end(s);
        if rec.is_on() && rf.flow.rounds().len() > before.0 {
            let adopted =
                (rf.flow.current().n_ands(), rf.flow.error().to_bits()) != (before.1, before.2);
            trace.steps.push((s, adopted));
            let r = rec.begin("bitsim.round_sim");
            black_box(simulate(rf.flow.current(), &rf.pats));
            rec.end(r);
        }
        if !more {
            return rf.flow.into_result();
        }
    }
}

/// The sweep does not expose its intermediate circuits, so a traced
/// sweep pass re-times `simulate` on each instance's final circuit once
/// per round it ran, as a stand-in for the per-round circuits (spans
/// `bitsim.round_sim`, outside `synth`).
pub fn resim_final_rounds(inp: &Inputs, outcomes: &[Outcome], rec: &mut Recorder) {
    for o in outcomes {
        let pats = &inp.samples[inp.specs[o.spec].sample];
        for _ in &o.rounds {
            let s = rec.begin("bitsim.round_sim");
            black_box(simulate(&o.aig, pats));
            rec.end(s);
        }
    }
}
