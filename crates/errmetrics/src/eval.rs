use crate::kinds::MetricKind;

/// Patterns per reduction chunk. The per-pattern reductions (value
/// decoding, contribution sums) are computed chunk by chunk and folded
/// in chunk order; this constant is part of the numeric contract — the
/// floating-point sums are bit-identical at every thread count because
/// the chunk boundaries and the fold order never depend on scheduling.
/// It is a multiple of 64, so chunk boundaries align with signature
/// words.
pub const PAT_CHUNK: usize = 4096;

/// Words per inner evaluation strip: flip unions are computed for a
/// fixed-width batch of deviating words at a time so the OR/AND loops
/// compile to straight-line vector code. Purely a batching width — the
/// per-word fold order (and thus every rounded sum) is unchanged.
const STRIP: usize = 8;

/// Outcome of a bounded scoring call ([`ErrorEval::masked_rows_bounded`]
/// / [`ErrorEval::er_deviation_bounded`]): either the exact new error,
/// or proof that the candidate's error increase exceeds the caller's
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedScore {
    /// The exact new error, bit-identical to the unbounded evaluation.
    Exact(f64),
    /// The candidate was abandoned: its final `ΔE` is provably `>` the
    /// threshold the caller's `prune` callback accepted. `lb_delta` is
    /// the monotone lower bound on `ΔE` that triggered the cut.
    Pruned {
        /// The lower bound on `ΔE` at the abandonment point.
        lb_delta: f64,
    },
}

/// Inflates a nonnegative partial sum so it dominates the exact real
/// sum it approximates despite accumulated rounding: one multiply per
/// accumulation step with a relative slack (`256 ulp`) far above the
/// worst-case relative error of the additions it covers (at most 64
/// nonnegative terms per word plus one suffix add, each contributing
/// one rounding of at most half an ulp).
#[inline]
fn inflate(x: f64) -> f64 {
    x * (1.0 + 256.0 * f64::EPSILON)
}

/// Incremental error evaluator.
///
/// The evaluator is anchored to the golden output signatures. Calling
/// [`ErrorEval::rebase`] sets the current approximate circuit's output
/// signatures; [`ErrorEval::current`] returns its error, and
/// [`ErrorEval::with_flips`] returns the error the circuit *would* have if
/// the given per-output flip masks were applied on top — without mutating
/// the evaluator. For the arithmetic metrics the cost of `with_flips` is
/// proportional to the number of flipped patterns, which is what makes
/// scoring thousands of candidate changes per round cheap.
#[derive(Debug, Clone)]
pub struct ErrorEval {
    kind: MetricKind,
    n_patterns: usize,
    stride: usize,
    n_outputs: usize,
    golden: Vec<Vec<u64>>,
    golden_vals: Vec<u128>,
    max_val: f64,
    // State of the current approximate circuit.
    diff: Vec<Vec<u64>>,
    cur_vals: Vec<u128>,
    contrib: Vec<f64>,
    cur_sum: f64,
    cur_max: f64,
    /// Per-chunk contribution sums in chunk order (arithmetic metrics
    /// only) — the partials of the canonical fold behind `cur_sum`, kept
    /// so [`ErrorEval::measured_with_flips_words`] can replay only the
    /// chunks a sparse flip set touches.
    chunk_sums: Vec<f64>,
    /// Per-word baseline contribution sums, inflated to dominate their
    /// exact real value (mean arithmetic metrics only). Suffix sums over
    /// a candidate's deviating words turn these into a sound bound on
    /// how much error the not-yet-replayed words could still remove —
    /// the heart of [`ErrorEval::masked_rows_bounded`].
    word_base: Vec<f64>,
    // ER-only per-word union of the output diffs and its popcounts, so
    // sparse candidate scoring can rescore just the deviating words.
    er_words: Vec<u64>,
    er_word_pops: Vec<u32>,
    er_total: usize,
}

impl ErrorEval {
    /// Creates an evaluator anchored to `golden` output signatures. The
    /// current circuit starts out identical to the golden one (zero
    /// error); call [`ErrorEval::rebase`] to set it.
    ///
    /// # Panics
    ///
    /// Panics if `golden` is empty, if signatures are narrower than the
    /// pattern count requires, or if an arithmetic metric is requested
    /// with more than 128 outputs.
    pub fn new(kind: MetricKind, golden: &[Vec<u64>], n_patterns: usize) -> Self {
        assert!(!golden.is_empty(), "need at least one output");
        let stride = n_patterns.div_ceil(64);
        assert!(
            golden.iter().all(|s| s.len() >= stride),
            "signatures too short for {n_patterns} patterns"
        );
        let n_outputs = golden.len();
        let arith = kind.is_arithmetic();
        if arith {
            assert!(
                n_outputs <= MetricKind::MAX_ARITH_OUTPUTS,
                "arithmetic metrics support at most 128 outputs, got {n_outputs}"
            );
        }
        let golden_vals = if arith {
            decode_values(golden, n_patterns)
        } else {
            Vec::new()
        };
        let max_val = if n_outputs >= 128 {
            u128::MAX as f64
        } else {
            ((1u128 << n_outputs) - 1) as f64
        };
        let mut eval = ErrorEval {
            kind,
            n_patterns,
            stride,
            n_outputs,
            max_val,
            diff: vec![vec![0u64; stride]; n_outputs],
            cur_vals: golden_vals.clone(),
            contrib: vec![0.0; if arith { n_patterns } else { 0 }],
            cur_sum: 0.0,
            cur_max: 0.0,
            chunk_sums: Vec::new(),
            word_base: Vec::new(),
            golden: golden.iter().map(|s| s[..stride].to_vec()).collect(),
            golden_vals,
            er_words: Vec::new(),
            er_word_pops: Vec::new(),
            er_total: 0,
        };
        eval.recompute_contributions();
        eval
    }

    /// The metric kind this evaluator computes.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// The number of patterns in the sample.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// The number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Words per signature.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The per-chunk partial sums of the canonical contribution fold
    /// behind [`ErrorEval::current`] (arithmetic metrics; empty for ER).
    /// Chunk `c` covers patterns `c * PAT_CHUNK ..`; the serial fold of
    /// these partials in chunk order is exactly `cur_sum`.
    pub fn chunk_sums(&self) -> &[f64] {
        &self.chunk_sums
    }

    /// Fills `out` with inflated suffix sums of the per-word baseline
    /// contributions over `words`: `out[j]` dominates the exact real sum
    /// of every baseline contribution in `words[j..]`, and `out[words.len()]`
    /// is `0`. Input words must ascend. Mean arithmetic metrics only —
    /// other kinds leave `out` all zero (they carry no contribution
    /// sums).
    pub fn word_base_suffix(&self, words: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.resize(words.len() + 1, 0.0);
        if self.word_base.is_empty() {
            return;
        }
        for j in (0..words.len()).rev() {
            out[j] = inflate(out[j + 1] + self.word_base[words[j] as usize]);
        }
    }

    /// Sets the current approximate circuit from its output signatures.
    ///
    /// # Panics
    ///
    /// Panics if the signature set has the wrong shape.
    pub fn rebase(&mut self, approx: &[Vec<u64>]) {
        assert_eq!(approx.len(), self.n_outputs, "output count mismatch");
        for (o, sig) in approx.iter().enumerate() {
            assert!(sig.len() >= self.stride, "signature too short");
            let golden = &self.golden[o];
            for (d, (&g, &s)) in self.diff[o][..self.stride]
                .iter_mut()
                .zip(golden.iter().zip(sig))
            {
                *d = g ^ s;
            }
        }
        if self.kind.is_arithmetic() {
            self.cur_vals = decode_values(approx, self.n_patterns);
        }
        self.recompute_contributions();
    }

    fn recompute_contributions(&mut self) {
        if !self.kind.is_arithmetic() {
            self.refresh_er_pops();
            return;
        }
        let pool = parkit::global();
        let kind = self.kind;
        let (cur_vals, golden_vals) = (&self.cur_vals, &self.golden_vals);
        let mut contrib = std::mem::take(&mut self.contrib);
        pool.par_chunks_mut(&mut contrib, PAT_CHUNK, |c, slice| {
            let base = c * PAT_CHUNK;
            for (i, v) in slice.iter_mut().enumerate() {
                *v = pattern_contrib(kind, cur_vals[base + i], golden_vals[base + i]);
            }
        });
        self.contrib = contrib;
        // Canonical chunked fold: per-chunk sums arrive in chunk order
        // and are folded serially, so the result does not depend on the
        // thread count (see `PAT_CHUNK`).
        let contrib = &self.contrib;
        let partials = pool.par_chunk_results(self.n_patterns, PAT_CHUNK, |_, r| {
            let (mut sum, mut max) = (0.0f64, 0.0f64);
            for c in &contrib[r] {
                sum += c;
                max = max.max(*c);
            }
            (sum, max)
        });
        self.cur_sum = 0.0;
        self.cur_max = 0.0;
        self.chunk_sums.clear();
        for (s, m) in partials {
            self.chunk_sums.push(s);
            self.cur_sum += s;
            self.cur_max = self.cur_max.max(m);
        }
        self.refresh_word_base();
    }

    /// Recomputes the inflated per-word baseline contribution sums (mean
    /// arithmetic metrics only; other kinds keep the vector empty).
    fn refresh_word_base(&mut self) {
        if !is_mean(self.kind) {
            return;
        }
        let contrib = &self.contrib;
        let n_patterns = self.n_patterns;
        let mut base = std::mem::take(&mut self.word_base);
        base.clear();
        base.resize(self.stride, 0.0);
        parkit::global().par_chunks_mut(&mut base, 1024, |c, slice| {
            let first = c * 1024;
            for (i, slot) in slice.iter_mut().enumerate() {
                let w = first + i;
                let mut sum = 0.0f64;
                for &v in &contrib[w * 64..((w + 1) * 64).min(n_patterns)] {
                    sum += v;
                }
                *slot = inflate(sum);
            }
        });
        self.word_base = base;
    }

    /// Recomputes the ER per-word popcounts of the union diff (the words
    /// a sparse [`ErrorEval::with_flips_words`] call leaves untouched).
    fn refresh_er_pops(&mut self) {
        if self.kind != MetricKind::Er {
            return;
        }
        let diff = &self.diff;
        let n_outputs = self.n_outputs;
        let mut words = std::mem::take(&mut self.er_words);
        words.clear();
        words.resize(self.stride, 0);
        let mut pops = std::mem::take(&mut self.er_word_pops);
        pops.clear();
        pops.resize(self.stride, 0);
        let masks: Vec<u64> = (0..self.stride).map(|w| self.word_mask(w)).collect();
        parkit::global().par_chunks_mut(&mut words, 1024, |c, slice| {
            let base = c * 1024;
            for (i, slot) in slice.iter_mut().enumerate() {
                let w = base + i;
                let mut acc = 0u64;
                for row in diff.iter().take(n_outputs) {
                    acc |= row[w];
                }
                *slot = acc;
            }
        });
        for (w, slot) in pops.iter_mut().enumerate() {
            *slot = (words[w] & masks[w]).count_ones();
        }
        self.er_total = pops.iter().map(|&p| p as usize).sum();
        self.er_words = words;
        self.er_word_pops = pops;
    }

    fn pattern_contrib(&self, approx: u128, golden: u128) -> f64 {
        pattern_contrib(self.kind, approx, golden)
    }

    fn finalize(&self, sum: f64, max: f64) -> f64 {
        let n = self.n_patterns as f64;
        match self.kind {
            MetricKind::Er => sum / n,
            MetricKind::Med | MetricKind::Mred | MetricKind::Mse => sum / n,
            MetricKind::Nmed => sum / n / self.max_val,
            MetricKind::Wce => max,
        }
    }

    /// The error of the current approximate circuit.
    pub fn current(&self) -> f64 {
        match self.kind {
            MetricKind::Er => self.er_total as f64 / self.n_patterns as f64,
            _ => self.finalize(self.cur_sum, self.cur_max),
        }
    }

    /// The error the circuit would have if the per-output `flips` masks
    /// were XORed into the current output signatures.
    ///
    /// `flips[o]` must have at least `stride` words. Cost: `O(outputs ×
    /// stride)` for ER, `O(outputs × stride + changed_patterns × outputs)`
    /// for the mean arithmetic metrics, and `O(n_patterns)` for WCE.
    ///
    /// # Panics
    ///
    /// Panics if `flips` has the wrong shape.
    pub fn with_flips(&self, flips: &[Vec<u64>]) -> f64 {
        assert_eq!(flips.len(), self.n_outputs, "output count mismatch");
        match self.kind {
            MetricKind::Er => {
                let mut count = 0usize;
                for w in 0..self.stride {
                    let mut acc = 0u64;
                    for (d, f) in self.diff.iter().zip(flips) {
                        acc |= d[w] ^ f[w];
                    }
                    count += (acc & self.word_mask(w)).count_ones() as usize;
                }
                count as f64 / self.n_patterns as f64
            }
            MetricKind::Wce => {
                let mut max = 0.0f64;
                for p in 0..self.n_patterns {
                    let val = self.cur_vals[p] ^ self.toggle_bits(flips, p);
                    max = max.max(self.pattern_contrib(val, self.golden_vals[p]));
                }
                self.finalize(0.0, max)
            }
            _ => {
                let mut sum = self.cur_sum;
                for w in 0..self.stride {
                    let mut union = 0u64;
                    for f in flips {
                        union |= f[w];
                    }
                    union &= self.word_mask(w);
                    while union != 0 {
                        let b = union.trailing_zeros() as usize;
                        union &= union - 1;
                        let p = w * 64 + b;
                        let val = self.cur_vals[p] ^ self.toggle_bits(flips, p);
                        sum += self.pattern_contrib(val, self.golden_vals[p]) - self.contrib[p];
                    }
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// Like [`ErrorEval::with_flips`], but `flips` is known to be zero
    /// outside the given ascending word list — the caller passes the
    /// words where the candidate's deviation mask is non-zero, and only
    /// those words are rescored. Returns a bit-identical result to the
    /// dense call: integer popcounts are order-free, and the arithmetic
    /// metrics visit the same flipped patterns in the same ascending
    /// order as the dense loop.
    ///
    /// # Panics
    ///
    /// Panics if `flips` has the wrong shape. Words outside the list
    /// holding non-zero flips produce an unspecified (not undefined)
    /// result.
    pub fn with_flips_words(&self, words: &[u32], flips: &[Vec<u64>]) -> f64 {
        assert_eq!(flips.len(), self.n_outputs, "output count mismatch");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        match self.kind {
            MetricKind::Er => {
                let mut count = self.er_total as i64;
                for &w in words {
                    let w = w as usize;
                    let mut acc = 0u64;
                    for (d, f) in self.diff.iter().zip(flips) {
                        acc |= d[w] ^ f[w];
                    }
                    count +=
                        (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
                }
                count as f64 / self.n_patterns as f64
            }
            MetricKind::Wce => {
                // Rescore the flipped patterns; the unflipped maximum is
                // `cur_max` unless a flipped pattern carried it.
                let mut flipped: Vec<(usize, f64)> = Vec::new();
                let mut new_max = 0.0f64;
                let mut max_flipped = false;
                for &w in words {
                    let w = w as usize;
                    let mut union = 0u64;
                    for f in flips {
                        union |= f[w];
                    }
                    union &= self.word_mask(w);
                    while union != 0 {
                        let b = union.trailing_zeros() as usize;
                        union &= union - 1;
                        let p = w * 64 + b;
                        let val = self.cur_vals[p] ^ self.toggle_bits(flips, p);
                        let c = self.pattern_contrib(val, self.golden_vals[p]);
                        max_flipped |= self.contrib[p] == self.cur_max;
                        new_max = new_max.max(c);
                        flipped.push((p, c));
                    }
                }
                if !max_flipped {
                    return self.finalize(0.0, self.cur_max.max(new_max));
                }
                // The max-carrying pattern itself flipped: merge-scan all
                // patterns, taking the rescored value where flipped.
                let mut it = flipped.iter().peekable();
                let mut max = 0.0f64;
                for p in 0..self.n_patterns {
                    let c = match it.peek() {
                        Some(&&(fp, fc)) if fp == p => {
                            it.next();
                            fc
                        }
                        _ => self.contrib[p],
                    };
                    max = max.max(c);
                }
                self.finalize(0.0, max)
            }
            _ => {
                let mut sum = self.cur_sum;
                for &w in words {
                    let w = w as usize;
                    let mut union = 0u64;
                    for f in flips {
                        union |= f[w];
                    }
                    union &= self.word_mask(w);
                    while union != 0 {
                        let b = union.trailing_zeros() as usize;
                        union &= union - 1;
                        let p = w * 64 + b;
                        let val = self.cur_vals[p] ^ self.toggle_bits(flips, p);
                        sum += self.pattern_contrib(val, self.golden_vals[p]) - self.contrib[p];
                    }
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// Like [`ErrorEval::with_flips_words`], but **bit-identical to a
    /// fresh rebase**: the returned value equals, bit for bit, what
    /// [`ErrorEval::current`] would report after `rebase` on the flipped
    /// signatures. `with_flips_words` is exact for ER (integer
    /// popcounts) and WCE (order-free max) but scores the mean metrics
    /// as `cur_sum + Σ deltas`, whose rounding differs from the
    /// canonical chunked fold; this method instead replays the fold —
    /// chunks without flipped patterns reuse their stored partial sum,
    /// touched chunks re-accumulate per pattern in the same serial
    /// order. Cost stays proportional to the flipped region.
    ///
    /// This is the measurement contract of the incremental trial
    /// evaluator: a trial's error must equal the committed circuit's
    /// measured error exactly, not just approximately.
    ///
    /// # Panics
    ///
    /// Panics if `flips` has the wrong shape. `words` must list, in
    /// ascending order, every word where some flip row is non-zero.
    pub fn measured_with_flips_words(&self, words: &[u32], flips: &[Vec<u64>]) -> f64 {
        match self.kind {
            MetricKind::Er | MetricKind::Wce => self.with_flips_words(words, flips),
            _ => {
                assert_eq!(flips.len(), self.n_outputs, "output count mismatch");
                debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
                // PAT_CHUNK is a multiple of 64, so chunk boundaries
                // align with word boundaries.
                let words_per_chunk = PAT_CHUNK / 64;
                let n_chunks = self.n_patterns.div_ceil(PAT_CHUNK);
                let mut sum = 0.0f64;
                let mut wi = 0usize;
                for c in 0..n_chunks {
                    let w_end = ((c + 1) * words_per_chunk) as u32;
                    let chunk_wi = wi;
                    while wi < words.len() && words[wi] < w_end {
                        wi += 1;
                    }
                    if wi == chunk_wi {
                        sum += self.chunk_sums[c];
                        continue;
                    }
                    // Replay the touched chunk pattern by pattern, in
                    // the same order the canonical fold accumulated it.
                    let p_end = ((c + 1) * PAT_CHUNK).min(self.n_patterns);
                    let mut csum = 0.0f64;
                    let mut fw = chunk_wi;
                    for w in c * words_per_chunk..p_end.div_ceil(64) {
                        let mut union = 0u64;
                        if fw < wi && words[fw] as usize == w {
                            for f in flips {
                                union |= f[w];
                            }
                            union &= self.word_mask(w);
                            fw += 1;
                        }
                        for b in 0..(p_end - w * 64).min(64) {
                            let p = w * 64 + b;
                            csum += if union >> b & 1 == 1 {
                                let val = self.cur_vals[p] ^ self.toggle_bits(flips, p);
                                self.pattern_contrib(val, self.golden_vals[p])
                            } else {
                                self.contrib[p]
                            };
                        }
                    }
                    sum += csum;
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// ER only: the per-word union diff the circuit would have if *every*
    /// pattern deviated, i.e. `OR_o (diff_o ^ mask_o)` where `mask_o` is
    /// the transfer mask of the listed output `o` (outputs not listed keep
    /// a zero mask). `rows[k * stride..][..stride]` is the mask row of
    /// `outs[k]`; rows and `outs` ascend.
    ///
    /// Together with [`ErrorEval::er_with_deviation`] this factors the
    /// candidate scoring loop: per pattern the new error indicator is a
    /// two-way select between the current union diff (deviation bit 0)
    /// and this precomputed union (deviation bit 1), so the per-output
    /// loop runs once per *target node* instead of once per candidate.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator or with misshapen rows.
    pub fn er_conditional_union(&self, outs: &[u32], rows: &[u64], e1: &mut Vec<u64>) {
        assert_eq!(self.kind, MetricKind::Er, "ER-only precomputation");
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        e1.clear();
        e1.resize(self.stride, 0);
        let mut k = 0;
        for (o, d) in self.diff.iter().enumerate() {
            if k < outs.len() && outs[k] as usize == o {
                let row = &rows[k * self.stride..][..self.stride];
                for (slot, (&dw, &mw)) in e1.iter_mut().zip(d.iter().zip(row)) {
                    *slot |= dw ^ mw;
                }
                k += 1;
            } else {
                for (slot, &dw) in e1.iter_mut().zip(d.iter()) {
                    *slot |= dw;
                }
            }
        }
    }

    /// ER only: the error rate if the candidate's deviation mask `dev`
    /// were applied through the transfer masks baked into `e1` (from
    /// [`ErrorEval::er_conditional_union`]). `words` lists the words
    /// where `dev` is non-zero, ascending. Bit-identical to the
    /// equivalent [`ErrorEval::with_flips`] call: per pattern the union
    /// diff is selected between the current one and `e1`, and the
    /// popcount accumulation visits the same words in the same order.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator.
    pub fn er_with_deviation(&self, words: &[u32], dev: &[u64], e1: &[u64]) -> f64 {
        assert_eq!(self.kind, MetricKind::Er, "ER-only scoring");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        let mut count = self.er_total as i64;
        for &w in words {
            let w = w as usize;
            let d = dev[w];
            let acc = (self.er_words[w] & !d) | (e1[w] & d);
            count += (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
        }
        count as f64 / self.n_patterns as f64
    }

    /// [`ErrorEval::er_with_deviation`] taking the deviation values
    /// sparsely — `bits[j]` is the deviation word at `words[j]`, the
    /// exact shape `lac::DevMask` stores — so a cached sparse mask is
    /// scored without scattering it into a dense stride-long buffer
    /// first. Bit-identical to the dense call: same words, same fold
    /// order, same two rounded ops at the end.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator or with misaligned bits.
    pub fn er_with_deviation_sparse(&self, words: &[u32], bits: &[u64], e1: &[u64]) -> f64 {
        assert_eq!(self.kind, MetricKind::Er, "ER-only scoring");
        assert_eq!(bits.len(), words.len(), "one deviation word per index");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        let mut count = self.er_total as i64;
        for (j, &w) in words.iter().enumerate() {
            let w = w as usize;
            let d = bits[j];
            let acc = (self.er_words[w] & !d) | (e1[w] & d);
            count += (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
        }
        count as f64 / self.n_patterns as f64
    }

    /// Like [`ErrorEval::er_with_deviation`], but taking the deviation
    /// values sparsely (`bits[j]` is the deviation word at `words[j]`)
    /// and checking a monotone lower bound before every word: the words
    /// not yet counted can remove at most their remaining baseline
    /// popcounts, so `(partial - remaining) / n - current` never exceeds
    /// the final `ΔE`. `prune` is called with that bound (and finally
    /// with the exact `ΔE`); returning `true` abandons the candidate.
    /// When it never does, the result is bit-identical to
    /// `er_with_deviation` — the bound is all integer arithmetic plus
    /// the same two rounded ops the exact path ends with.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator or with misaligned bits.
    pub fn er_deviation_bounded(
        &self,
        words: &[u32],
        bits: &[u64],
        e1: &[u64],
        current: f64,
        mut prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore {
        assert_eq!(self.kind, MetricKind::Er, "ER-only scoring");
        assert_eq!(bits.len(), words.len(), "one deviation word per index");
        let n = self.n_patterns as f64;
        let mut remaining: i64 = words
            .iter()
            .map(|&w| self.er_word_pops[w as usize] as i64)
            .sum();
        let mut count = self.er_total as i64;
        for (j, &w) in words.iter().enumerate() {
            let lb_delta = (count - remaining) as f64 / n - current;
            if prune(lb_delta) {
                return BoundedScore::Pruned { lb_delta };
            }
            let w = w as usize;
            let d = bits[j];
            let acc = (self.er_words[w] & !d) | (e1[w] & d);
            count += (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
            remaining -= self.er_word_pops[w] as i64;
        }
        let e = count as f64 / n;
        let delta = e - current;
        if prune(delta) {
            return BoundedScore::Pruned { lb_delta: delta };
        }
        BoundedScore::Exact(e)
    }

    /// Fused equivalent of materializing per-output flip rows
    /// `flips[o] = dev & row_o` (outputs in `outs`, zero elsewhere) and
    /// calling [`ErrorEval::with_flips_words`]: the flip bits are
    /// decoded inline from `dev & row`, so no `n_outputs × stride`
    /// scratch is ever written or re-zeroed. `rows[k * stride..][..stride]`
    /// is the transfer-mask row of output `outs[k]`; `outs` ascends,
    /// `words` lists the words where `dev` is non-zero, ascending.
    ///
    /// Bit-identical to the materialized call for every metric kind:
    /// the flip unions, per-pattern toggles, and the order of every
    /// rounded accumulation are the same.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not hold one stride-long row per listed
    /// output.
    pub fn with_masked_rows(&self, words: &[u32], dev: &[u64], outs: &[u32], rows: &[u64]) -> f64 {
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        match self.kind {
            MetricKind::Er => {
                let mut count = self.er_total as i64;
                for &w in words {
                    let w = w as usize;
                    let mut acc = 0u64;
                    let mut k = 0usize;
                    for (o, d) in self.diff.iter().enumerate() {
                        let mut f = 0u64;
                        if k < outs.len() && outs[k] as usize == o {
                            f = dev[w] & rows[k * self.stride + w];
                            k += 1;
                        }
                        acc |= d[w] ^ f;
                    }
                    count +=
                        (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
                }
                count as f64 / self.n_patterns as f64
            }
            MetricKind::Wce => {
                let mut flipped: Vec<(usize, f64)> = Vec::new();
                let mut new_max = 0.0f64;
                let mut max_flipped = false;
                let mut unions = [0u64; STRIP];
                for strip in words.chunks(STRIP) {
                    self.masked_unions(strip, dev, outs.len(), rows, &mut unions);
                    for (i, &w) in strip.iter().enumerate() {
                        let w = w as usize;
                        let mut union = unions[i];
                        while union != 0 {
                            let b = union.trailing_zeros() as usize;
                            union &= union - 1;
                            let p = w * 64 + b;
                            let val = self.cur_vals[p] ^ self.masked_toggle(outs, rows, w, b);
                            let c = self.pattern_contrib(val, self.golden_vals[p]);
                            max_flipped |= self.contrib[p] == self.cur_max;
                            new_max = new_max.max(c);
                            flipped.push((p, c));
                        }
                    }
                }
                if !max_flipped {
                    return self.finalize(0.0, self.cur_max.max(new_max));
                }
                let mut it = flipped.iter().peekable();
                let mut max = 0.0f64;
                for p in 0..self.n_patterns {
                    let c = match it.peek() {
                        Some(&&(fp, fc)) if fp == p => {
                            it.next();
                            fc
                        }
                        _ => self.contrib[p],
                    };
                    max = max.max(c);
                }
                self.finalize(0.0, max)
            }
            _ => {
                let mut sum = self.cur_sum;
                let mut unions = [0u64; STRIP];
                for strip in words.chunks(STRIP) {
                    self.masked_unions(strip, dev, outs.len(), rows, &mut unions);
                    for (i, &w) in strip.iter().enumerate() {
                        let w = w as usize;
                        let mut union = unions[i];
                        while union != 0 {
                            let b = union.trailing_zeros() as usize;
                            union &= union - 1;
                            let p = w * 64 + b;
                            let val = self.cur_vals[p] ^ self.masked_toggle(outs, rows, w, b);
                            sum += self.pattern_contrib(val, self.golden_vals[p]) - self.contrib[p];
                        }
                    }
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// The mean-metric arm of [`ErrorEval::with_masked_rows`] with a
    /// sound monotone lower bound checked before every word and once
    /// more (exactly) at the end.
    ///
    /// After `j` of `m` deviating words, the running sum `S` is the
    /// exact rounded prefix of the final fold. Every remaining
    /// per-pattern delta `fl(new - old)` is `>= -old` (contributions are
    /// nonnegative and `old` is exactly representable), rounded addition
    /// is monotone in each argument, and adding further nonpositive
    /// terms only lowers a fold — so the final sum is at least the fold
    /// of `-old_p` over *all* patterns of the remaining words onto `S`.
    /// `base_suffix[j]` (from [`ErrorEval::word_base_suffix`]) dominates
    /// that remaining baseline mass `T`, and the classical summation
    /// error of a `64 * (m - j) + 1`-term fold is below
    /// `gamma_n * (|S| + T)`; the margin term over-covers that gamma,
    /// the inflation slack, and the rounding of the bound expression
    /// itself by a factor of at least 3. Hence
    /// `finalize(S - base_suffix[j] - margin) - current <= ΔE` always —
    /// the pruning decision is sound no matter what threshold `prune`
    /// compares against.
    ///
    /// `prune` is called with each lower bound and finally with the
    /// exact `ΔE`; the first `true` abandons the candidate. If it never
    /// returns `true`, the result is bit-identical to
    /// `with_masked_rows` (the bound computation never touches the
    /// running sum).
    ///
    /// # Panics
    ///
    /// Panics unless the evaluator is a mean arithmetic metric (MED,
    /// NMED, MRED, MSE) and the shapes match.
    #[allow(clippy::too_many_arguments)]
    pub fn masked_rows_bounded(
        &self,
        words: &[u32],
        dev: &[u64],
        outs: &[u32],
        rows: &[u64],
        base_suffix: &[f64],
        current: f64,
        mut prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore {
        assert!(is_mean(self.kind), "bounded replay is mean-metric only");
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        assert_eq!(base_suffix.len(), words.len() + 1, "one suffix per word");
        let m = words.len();
        let mut sum = self.cur_sum;
        let mut unions = [0u64; STRIP];
        for (s, strip) in words.chunks(STRIP).enumerate() {
            self.masked_unions(strip, dev, outs.len(), rows, &mut unions);
            for (i, &w) in strip.iter().enumerate() {
                let j = s * STRIP + i; // words folded so far
                let r = base_suffix[j];
                let margin =
                    (((m - j) * 64) as f64 + 8.0) * 4.0 * f64::EPSILON * (sum.abs() + r);
                let lb_delta = self.finalize(sum - r - margin, 0.0) - current;
                if prune(lb_delta) {
                    return BoundedScore::Pruned { lb_delta };
                }
                let w = w as usize;
                let mut union = unions[i];
                while union != 0 {
                    let b = union.trailing_zeros() as usize;
                    union &= union - 1;
                    let p = w * 64 + b;
                    let val = self.cur_vals[p] ^ self.masked_toggle(outs, rows, w, b);
                    sum += self.pattern_contrib(val, self.golden_vals[p]) - self.contrib[p];
                }
            }
        }
        let e = self.finalize(sum, 0.0);
        let delta = e - current;
        if prune(delta) {
            return BoundedScore::Pruned { lb_delta: delta };
        }
        BoundedScore::Exact(e)
    }

    /// The flip unions of up to [`STRIP`] deviating words: per strip
    /// word, `dev & (OR over listed rows) & word_mask`. Looping rows on
    /// the outside over a fixed-width buffer keeps the inner loop a
    /// straight-line OR that autovectorizes.
    #[inline]
    fn masked_unions(
        &self,
        strip: &[u32],
        dev: &[u64],
        n_rows: usize,
        rows: &[u64],
        buf: &mut [u64; STRIP],
    ) {
        buf.fill(0);
        for k in 0..n_rows {
            let row = &rows[k * self.stride..(k + 1) * self.stride];
            for (slot, &w) in buf.iter_mut().zip(strip) {
                *slot |= row[w as usize];
            }
        }
        for (slot, &w) in buf.iter_mut().zip(strip) {
            *slot &= dev[w as usize] & self.word_mask(w as usize);
        }
    }

    /// The per-pattern toggle value decoded inline from the mask rows:
    /// bit `outs[k]` is set iff row `k` flips this pattern. Only called
    /// for patterns inside the flip union, where the deviation bit is
    /// already known set, so `row >> b & 1` equals `(dev & row) >> b & 1`.
    #[inline]
    fn masked_toggle(&self, outs: &[u32], rows: &[u64], w: usize, b: usize) -> u128 {
        let mut toggle = 0u128;
        for (k, &o) in outs.iter().enumerate() {
            toggle |= ((rows[k * self.stride + w] >> b & 1) as u128) << o;
        }
        toggle
    }

    fn toggle_bits(&self, flips: &[Vec<u64>], p: usize) -> u128 {
        let (w, b) = (p / 64, p % 64);
        let mut toggle = 0u128;
        for (o, f) in flips.iter().enumerate() {
            if f[w] >> b & 1 == 1 {
                toggle |= 1 << o;
            }
        }
        toggle
    }

    #[inline]
    fn word_mask(&self, w: usize) -> u64 {
        let rem = self.n_patterns - w * 64;
        if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }
}

/// Mean-style metrics: nonnegative per-pattern contributions folded in
/// a fixed ascending order (all arithmetic kinds except the order-free
/// WCE max). Only these support bounded early-terminating replay.
fn is_mean(kind: MetricKind) -> bool {
    matches!(
        kind,
        MetricKind::Med | MetricKind::Nmed | MetricKind::Mred | MetricKind::Mse
    )
}

fn pattern_contrib(kind: MetricKind, approx: u128, golden: u128) -> f64 {
    let ed = approx.abs_diff(golden) as f64;
    match kind {
        MetricKind::Er => 0.0,
        MetricKind::Med | MetricKind::Nmed | MetricKind::Wce => ed,
        MetricKind::Mred => ed / (golden.max(1) as f64),
        MetricKind::Mse => ed * ed,
    }
}

/// Decodes per-pattern output values (output 0 = LSB). Each pattern's
/// value is written into its own slot, so the parallel chunking cannot
/// change the result.
fn decode_values(sigs: &[Vec<u64>], n_patterns: usize) -> Vec<u128> {
    let mut vals = vec![0u128; n_patterns];
    parkit::global().par_chunks_mut(&mut vals, PAT_CHUNK, |c, slice| {
        let base = c * PAT_CHUNK;
        for (o, sig) in sigs.iter().enumerate() {
            for (i, val) in slice.iter_mut().enumerate() {
                let p = base + i;
                if sig[p / 64] >> (p % 64) & 1 == 1 {
                    *val |= 1 << o;
                }
            }
        }
    });
    vals
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-output golden circuit values: patterns 0..4 -> 0,1,2,3.
    fn golden_2bit() -> Vec<Vec<u64>> {
        // Output 0 (LSB) = 0b0101... pattern parity; output 1 = 0b0011 style.
        vec![vec![0b1010], vec![0b1100]]
    }

    #[test]
    fn zero_error_when_identical() {
        let g = golden_2bit();
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &g, 4);
            e.rebase(&g.clone());
            assert_eq!(e.current(), 0.0, "{kind}");
        }
    }

    #[test]
    fn er_counts_any_output_mismatch() {
        let g = golden_2bit();
        let mut e = ErrorEval::new(MetricKind::Er, &g, 4);
        // Flip output 0 on patterns 1 and 3; output 1 on pattern 3.
        let approx = vec![vec![0b1010 ^ 0b1010u64], vec![0b1100 ^ 0b1000u64]];
        e.rebase(&approx);
        assert_eq!(e.current(), 0.5);
    }

    #[test]
    fn med_and_nmed() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1011], vec![0b1100]]; // values 1,1,2,3
        let mut e = ErrorEval::new(MetricKind::Med, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 0.25); // |1-0| averaged over 4
        let mut e = ErrorEval::new(MetricKind::Nmed, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 0.25 / 3.0);
    }

    #[test]
    fn mred_uses_relative_distance() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1010], vec![0b0110]]; // values 0,3,2,1
        let mut e = ErrorEval::new(MetricKind::Mred, &g, 4);
        e.rebase(&approx);
        // Pattern 1: |3-1|/1 = 2; pattern 3: |1-3|/3 = 2/3.
        assert!((e.current() - (2.0 + 2.0 / 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn wce_is_max_distance() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1011], vec![0b1110]]; // values 1,3,3,3
        let mut e = ErrorEval::new(MetricKind::Wce, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 2.0); // pattern 1: |3-1| = 2
    }

    #[test]
    fn with_flips_matches_rebase() {
        let g = golden_2bit();
        let approx = vec![vec![0b1011], vec![0b0100]];
        let flips = vec![vec![0b0110u64], vec![0b1001u64]];
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &g, 4);
            e.rebase(&approx);
            let predicted = e.with_flips(&flips);
            let flipped: Vec<Vec<u64>> = approx
                .iter()
                .zip(&flips)
                .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
                .collect();
            let mut e2 = ErrorEval::new(kind, &g, 4);
            e2.rebase(&flipped);
            assert!(
                (predicted - e2.current()).abs() < 1e-12,
                "{kind}: {predicted} vs {}",
                e2.current()
            );
        }
    }

    #[test]
    fn measured_with_flips_words_is_bit_identical_to_rebase() {
        // Multiple PAT_CHUNK chunks with a ragged tail, pseudo-random
        // signatures, and a sparse flip set touching a few words across
        // different chunks (including the tail word).
        let n_patterns = 10_000usize;
        let stride = n_patterns.div_ceil(64);
        let n_outputs = 3;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        };
        let golden: Vec<Vec<u64>> = (0..n_outputs)
            .map(|_| (0..stride).map(|_| next()).collect())
            .collect();
        let approx: Vec<Vec<u64>> = golden
            .iter()
            .map(|s| s.iter().map(|w| w ^ (next() & next())).collect())
            .collect();
        let flip_words = [3usize, 64, 65, 130, stride - 1];
        let mut flips = vec![vec![0u64; stride]; n_outputs];
        for &w in &flip_words {
            for f in flips.iter_mut() {
                f[w] = next() & next() & next();
            }
        }
        let words: Vec<u32> = flip_words.iter().map(|&w| w as u32).collect();
        let flipped: Vec<Vec<u64>> = approx
            .iter()
            .zip(&flips)
            .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
            .collect();
        let zero = vec![vec![0u64; stride]; n_outputs];
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &golden, n_patterns);
            e.rebase(&approx);
            let mut e2 = ErrorEval::new(kind, &golden, n_patterns);
            e2.rebase(&flipped);
            assert_eq!(
                e.measured_with_flips_words(&words, &flips).to_bits(),
                e2.current().to_bits(),
                "{kind}"
            );
            assert_eq!(
                e.measured_with_flips_words(&[], &zero).to_bits(),
                e.current().to_bits(),
                "{kind} with no flips"
            );
        }
    }

    /// Deterministic xorshift-style generator for the randomized tests.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        }
    }

    /// A randomized scoring scenario: golden/approx signatures, a
    /// deviation mask over a few words, and transfer-mask rows for a
    /// subset of outputs.
    struct MaskedCase {
        golden: Vec<Vec<u64>>,
        approx: Vec<Vec<u64>>,
        words: Vec<u32>,
        dev: Vec<u64>,
        outs: Vec<u32>,
        rows: Vec<u64>,
        flips: Vec<Vec<u64>>,
        n_patterns: usize,
    }

    fn masked_case(seed: u64, n_patterns: usize, n_outputs: usize) -> MaskedCase {
        let stride = n_patterns.div_ceil(64);
        let mut next = lcg(seed);
        let golden: Vec<Vec<u64>> = (0..n_outputs)
            .map(|_| (0..stride).map(|_| next()).collect())
            .collect();
        let approx: Vec<Vec<u64>> = golden
            .iter()
            .map(|s| s.iter().map(|w| w ^ (next() & next())).collect())
            .collect();
        let mut word_set: Vec<u32> = (0..stride as u32).filter(|_| next() % 3 == 0).collect();
        if word_set.is_empty() {
            word_set.push((next() % stride as u64) as u32);
        }
        let mut dev = vec![0u64; stride];
        for &w in &word_set {
            dev[w as usize] = next() | next(); // dense-ish deviations
        }
        let words: Vec<u32> = word_set
            .iter()
            .copied()
            .filter(|&w| dev[w as usize] != 0)
            .collect();
        let outs: Vec<u32> = (0..n_outputs as u32).filter(|_| next() % 4 != 0).collect();
        let mut rows = vec![0u64; outs.len() * stride];
        for r in rows.iter_mut() {
            *r = next() & next();
        }
        let mut flips = vec![vec![0u64; stride]; n_outputs];
        for (k, &o) in outs.iter().enumerate() {
            for &w in &words {
                let w = w as usize;
                flips[o as usize][w] = dev[w] & rows[k * stride + w];
            }
        }
        MaskedCase {
            golden,
            approx,
            words,
            dev,
            outs,
            rows,
            flips,
            n_patterns,
        }
    }

    #[test]
    fn masked_rows_match_materialized_flips_bitwise() {
        // The fused dev & row decode must equal materializing the flip
        // rows and calling with_flips_words, bit for bit, on every
        // metric kind — including multi-chunk samples with ragged tails
        // and strides that exercise the strip batching.
        for (seed, n_patterns) in [(1u64, 130), (2, 4096 + 77), (3, 10_000), (4, 64)] {
            let c = masked_case(seed, n_patterns, 5);
            for kind in MetricKind::ALL {
                let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                e.rebase(&c.approx);
                let dense = e.with_flips_words(&c.words, &c.flips);
                let fused = e.with_masked_rows(&c.words, &c.dev, &c.outs, &c.rows);
                assert_eq!(dense.to_bits(), fused.to_bits(), "{kind} seed {seed}");
            }
        }
    }

    #[test]
    fn bounded_scores_are_exact_and_bounds_never_exceed_delta() {
        // Every lower bound handed to the prune callback must be <= the
        // exact final ΔE (soundness), and a never-pruning run must be
        // bit-identical to the unbounded evaluation.
        for (seed, n_patterns) in [(11u64, 200), (12, 4096 + 77), (13, 10_000)] {
            let c = masked_case(seed, n_patterns, 5);
            for kind in [
                MetricKind::Med,
                MetricKind::Nmed,
                MetricKind::Mred,
                MetricKind::Mse,
            ] {
                let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                e.rebase(&c.approx);
                let current = e.current();
                let exact = e.with_masked_rows(&c.words, &c.dev, &c.outs, &c.rows);
                let delta = exact - current;
                let mut suffix = Vec::new();
                e.word_base_suffix(&c.words, &mut suffix);
                let mut lbs: Vec<f64> = Vec::new();
                let got = e.masked_rows_bounded(
                    &c.words,
                    &c.dev,
                    &c.outs,
                    &c.rows,
                    &suffix,
                    current,
                    |lb| {
                        lbs.push(lb);
                        false
                    },
                );
                assert_eq!(got, BoundedScore::Exact(exact), "{kind} seed {seed}");
                assert_eq!(lbs.len(), c.words.len() + 1);
                for (j, &lb) in lbs.iter().enumerate() {
                    assert!(
                        lb <= delta,
                        "{kind} seed {seed}: checkpoint {j} bound {lb} > ΔE {delta}"
                    );
                }
                // The final callback sees the exact ΔE.
                assert_eq!(lbs.last().unwrap().to_bits(), delta.to_bits());
                // A threshold just under ΔE prunes at the latest at the
                // final checkpoint, with a sound bound attached.
                let thr = delta - delta.abs() * 1e-6 - 1e-15;
                match e.masked_rows_bounded(
                    &c.words,
                    &c.dev,
                    &c.outs,
                    &c.rows,
                    &suffix,
                    current,
                    |lb| lb > thr,
                ) {
                    BoundedScore::Pruned { lb_delta } => {
                        assert!(lb_delta <= delta, "{kind} seed {seed}")
                    }
                    BoundedScore::Exact(_) => panic!("{kind} seed {seed}: must prune"),
                }
            }

            // ER: the integer remaining-popcount bound, against the
            // deviation-select scorer it accelerates.
            let mut e = ErrorEval::new(MetricKind::Er, &c.golden, c.n_patterns);
            e.rebase(&c.approx);
            let current = e.current();
            let mut e1 = Vec::new();
            e.er_conditional_union(&c.outs, &c.rows, &mut e1);
            let exact = e.er_with_deviation(&c.words, &c.dev, &e1);
            let delta = exact - current;
            let bits: Vec<u64> = c.words.iter().map(|&w| c.dev[w as usize]).collect();
            // The sparse-input variant is bit-identical to the dense one.
            assert_eq!(
                e.er_with_deviation_sparse(&c.words, &bits, &e1).to_bits(),
                exact.to_bits(),
                "er sparse seed {seed}"
            );
            let mut lbs: Vec<f64> = Vec::new();
            let got = e.er_deviation_bounded(&c.words, &bits, &e1, current, |lb| {
                lbs.push(lb);
                false
            });
            assert_eq!(got, BoundedScore::Exact(exact), "er seed {seed}");
            for &lb in &lbs {
                assert!(lb <= delta, "er seed {seed}: bound {lb} > ΔE {delta}");
            }
            assert_eq!(lbs.last().unwrap().to_bits(), delta.to_bits());
        }
    }

    #[test]
    fn touched_chunk_prefix_sums_stay_below_measured() {
        // The monotone-replay property behind every bound: folding the
        // canonical chunk sequence (baseline sums for untouched chunks,
        // per-pattern replay for touched ones), every prefix is <= the
        // final measured value — contributions are nonnegative and
        // rounded addition of a nonnegative term never decreases the
        // sum. Checked per metric kind with its own monotone statement.
        for seed in [21u64, 22, 23] {
            let c = masked_case(seed, 10_000, 4);
            for kind in MetricKind::ALL {
                let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                e.rebase(&c.approx);
                let measured = e.measured_with_flips_words(&c.words, &c.flips);
                match kind {
                    MetricKind::Er => {
                        // Word prefixes: the remaining words can remove
                        // at most their baseline popcounts.
                        let mut pops: i64 = c
                            .words
                            .iter()
                            .map(|&w| e.er_word_pops[w as usize] as i64)
                            .sum();
                        let mut count = e.er_total as i64;
                        for (j, &w) in c.words.iter().enumerate() {
                            let lb = (count - pops) as f64 / c.n_patterns as f64;
                            assert!(lb <= measured, "er seed {seed} word {j}");
                            let w = w as usize;
                            let mut acc = 0u64;
                            for (d, f) in e.diff.iter().zip(&c.flips) {
                                acc |= d[w] ^ f[w];
                            }
                            count += (acc & e.word_mask(w)).count_ones() as i64
                                - e.er_word_pops[w] as i64;
                            pops -= e.er_word_pops[w] as i64;
                        }
                        assert_eq!(count as f64 / c.n_patterns as f64, measured);
                    }
                    MetricKind::Wce => {
                        // Running maxima only grow toward the final max.
                        let mut max = 0.0f64;
                        for p in 0..c.n_patterns {
                            let val = e.cur_vals[p] ^ e.toggle_bits(&c.flips, p);
                            max = max.max(e.pattern_contrib(val, e.golden_vals[p]));
                            assert!(e.finalize(0.0, max) <= measured, "wce seed {seed}");
                        }
                    }
                    _ => {
                        // Chunk prefixes of the canonical fold, replaying
                        // touched chunks exactly as the measurement does.
                        let words_per_chunk = PAT_CHUNK / 64;
                        let n_chunks = c.n_patterns.div_ceil(PAT_CHUNK);
                        let mut sum = 0.0f64;
                        let mut wi = 0usize;
                        for ch in 0..n_chunks {
                            let w_end = ((ch + 1) * words_per_chunk) as u32;
                            let chunk_wi = wi;
                            while wi < c.words.len() && c.words[wi] < w_end {
                                wi += 1;
                            }
                            if wi == chunk_wi {
                                sum += e.chunk_sums()[ch];
                            } else {
                                let p_end = ((ch + 1) * PAT_CHUNK).min(c.n_patterns);
                                let mut csum = 0.0f64;
                                for w in ch * words_per_chunk..p_end.div_ceil(64) {
                                    let mut union = 0u64;
                                    for f in &c.flips {
                                        union |= f[w];
                                    }
                                    union &= e.word_mask(w);
                                    for b in 0..(p_end - w * 64).min(64) {
                                        let p = w * 64 + b;
                                        csum += if union >> b & 1 == 1 {
                                            let val = e.cur_vals[p] ^ e.toggle_bits(&c.flips, p);
                                            e.pattern_contrib(val, e.golden_vals[p])
                                        } else {
                                            e.contrib[p]
                                        };
                                    }
                                }
                                sum += csum;
                            }
                            assert!(
                                e.finalize(sum, 0.0) <= measured,
                                "{kind} seed {seed}: prefix after chunk {ch} exceeds final"
                            );
                        }
                        assert_eq!(e.finalize(sum, 0.0).to_bits(), measured.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn tail_patterns_are_masked() {
        // 3 valid patterns in a 1-word signature with garbage in bit 3.
        let g = vec![vec![0b0000u64]];
        let mut e = ErrorEval::new(MetricKind::Er, &g, 3);
        e.rebase(&vec![vec![0b1000u64]]); // differs only at invalid bit
        assert_eq!(e.current(), 0.0);
    }
}
