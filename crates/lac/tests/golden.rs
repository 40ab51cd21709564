//! Golden digests of candidate generation.
//!
//! The store-vs-fresh and production-vs-reference identity tests compare
//! two paths that share the same candgen kernels, so a kernel change that
//! altered a ranking, a deviation payload or a selection floor would pass
//! them unnoticed. These digests pin the absolute output instead: the
//! fresh candidate list and its sub-phase counters, and the store's list
//! plus its arena-held deviation payloads, on a fixed set of circuits and
//! samples. Any change to what candgen emits changes a digest.

use aig::NodeId;
use bitsim::{simulate, Patterns};
use lac::{generate_candidates_counted, CandidateConfig, CandidateStore, Lac, LacKind};
use parkit::ThreadPool;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn node(&mut self, n: NodeId) {
        self.word(n.index() as u64);
    }

    fn lac(&mut self, l: &Lac) {
        self.node(l.tn);
        match l.kind {
            LacKind::Constant(v) => self.word(v as u64),
            LacKind::Wire { sn, neg } => {
                self.word(2 + neg as u64);
                self.node(sn);
            }
            LacKind::Binary { sns, tt } => {
                self.word(4 + ((tt as u64) << 8));
                sns.iter().for_each(|&s| self.node(s));
            }
            LacKind::Ternary { sns, tt } => {
                self.word(5 + ((tt as u64) << 8));
                sns.iter().for_each(|&s| self.node(s));
            }
        }
    }
}

/// `(circuit, patterns, ternaries, n_cands, list digest, dev digest,
/// probe_draws, strip_cmps)`.
type Golden = (&'static str, usize, bool, usize, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("rca32", 2048, false, 2185, 0x4d69247b3642a41d, 0x8679c4158b5f4269, 126390, 19896),
    ("mtp8", 2048, false, 4162, 0xe864c961dbe75060, 0x190592fdc909c19d, 304058, 40323),
    ("alu4", 8192, false, 3914, 0x2bdc6f3868f24ebd, 0xaddee818a2e84f8c, 292300, 36340),
    ("c3540", 8192, false, 6052, 0xe188f4d8e1643a40, 0x8a24810658102ca7, 689442, 56953),
    // 1000 = 15 full words (one 8-word strip plus 7) and a 40-bit tail.
    ("mtp8", 1000, false, 4171, 0x0494bd955010545b, 0xc584ea07f62a2870, 304058, 40296),
    // Ternary resubstitution pins the three-divisor kernel too.
    ("alu4", 2048, true, 4900, 0xb3cfb6d734967941, 0x472ecea9b7452c5d, 292300, 45699),
];

fn run(name: &'static str, n_patterns: usize, ternaries: bool) -> Golden {
    let g = benchgen::suite::by_name(name).expect("known suite circuit");
    let pats = Patterns::random(g.n_pis(), n_patterns, 0x0060_1DE4_5EED);
    let sim = simulate(&g, &pats);
    let cfg = CandidateConfig {
        ternaries,
        ..CandidateConfig::default()
    };
    let (fresh, ctrs) = generate_candidates_counted(&g, &sim, &cfg);
    let mut list = Digest::new();
    fresh.iter().for_each(|l| list.lac(l));

    let mut dev_digest = None;
    for threads in [1, 2] {
        let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(threads)));
        let mut store = CandidateStore::new();
        let stored = store.generate(&g, &sim, &cfg, None, pool, None);
        assert_eq!(
            stored, fresh,
            "{name}@{n_patterns}: store list differs at {threads} threads"
        );
        assert_eq!(
            store.last_gen_counters().strip_cmps,
            ctrs.strip_cmps,
            "{name}@{n_patterns}: store counters differ at {threads} threads"
        );
        let mut devs = Digest::new();
        for d in store.devs() {
            devs.word(d.words.len() as u64);
            d.words.iter().for_each(|&w| devs.word(w as u64));
            d.bits.iter().for_each(|&b| devs.word(b));
        }
        match dev_digest {
            None => dev_digest = Some(devs.0),
            Some(prev) => assert_eq!(prev, devs.0, "{name}@{n_patterns}: devs differ by threads"),
        }
    }
    (
        name,
        n_patterns,
        ternaries,
        fresh.len(),
        list.0,
        dev_digest.unwrap(),
        ctrs.probe_draws,
        ctrs.strip_cmps,
    )
}

#[test]
fn candgen_output_matches_golden_digests() {
    let mut failures = Vec::new();
    for want in GOLDEN {
        let got = run(want.0, want.1, want.2);
        if got != *want {
            let (c, n, t, len, list, devs, draws, cmps) = got;
            failures.push(format!(
                "    (\"{c}\", {n}, {t}, {len}, {list:#018x}, {devs:#018x}, {draws}, {cmps}),"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests changed:\n{}",
        failures.join("\n")
    );
}
