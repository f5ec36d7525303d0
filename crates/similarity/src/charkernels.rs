//! Bit-parallel and scratch-buffer char-level kernels over precomputed
//! analyses.
//!
//! The set kernels of [`crate::analysis`] made blocking-rule application
//! hardware-fast, which left full-pair vectorization dominated by the five
//! char-level measures — Levenshtein, Jaro, Jaro-Winkler, Monge-Elkan, and
//! Smith-Waterman — each of which re-collected `Vec<char>`s (and for
//! Smith-Waterman re-lowercased, for Monge-Elkan re-tokenized) per pair.
//! This module reimplements all five over the interned char-id sequences
//! the analysis layer precomputes, with zero per-pair allocation:
//!
//! * **Levenshtein** runs Myers' bit-parallel algorithm (one u64 for
//!   patterns up to 64 chars, blocked words past that), with the left
//!   value as the pattern and its bit table kept across a run of pairs:
//!   `O(⌈m/64⌉·n)` word operations instead of `O(m·n)` cell updates, and
//!   the exact integer distance of the reference DP.
//! * **Jaro / Jaro-Winkler** of two whole values of at most 64 chars
//!   match through the left value's positional table, the one
//!   Levenshtein keeps for the run: each right char, in order, takes the
//!   lowest untaken matching left position in its window with one mask
//!   and a find-first-set, so a run builds no table per pair. Longer
//!   values, and Monge-Elkan's token pairs, match through availability
//!   bitmasks over the right value (`jaro_ids`), rebuilt per pair; a pair
//!   of at most 8 chars together takes the plain window scan instead.
//! * **Monge-Elkan** scores one left value against a whole run of right
//!   values ([`monge_elkan_run`]): the bitset Jaro-Winkler grid of the
//!   left value's distinct tokens against the distinct tokens of all the
//!   run's right values is computed once, a right token's backward best
//!   is its column's maximum whichever pair it sits in, and each pair
//!   folds only its own columns into its forward bests. Rows and columns
//!   are word ids, whose chars and char sets the task's
//!   [`crate::analysis::WordTable`] holds; a cell of two words with
//!   disjoint char sets is 0.0 without a kernel call. The sums walk each
//!   value's tokens in occurrence order, duplicates kept — exactly what
//!   `tokenize::words` yields.
//! * **Smith-Waterman** scores one left value against a whole run of
//!   right values ([`smith_waterman_run`]), sixteen at a time: the right
//!   sequences are transposed into `[i16; 16]` lane arrays and one DP
//!   sweep advances all sixteen alignments ([`sw_lanes`]). Every pair of
//!   every run takes the lanes, a lone pair as a run of one. The few
//!   pairs no 16-bit lane holds (a char pool too wide to narrow, or a
//!   sequence past [`SW_I16_MAX_LEN`]) take the reference recurrence in
//!   two rolling rows ([`sw_fallback`]).
//!
//! # Value rows and the token table
//!
//! Two per-thread direct-mapped tables remember results, 2 MiB each:
//!
//! * **Value rows** ([`ValueRow`]) hold the text features of one pair of
//!   values on one attribute, keyed by `(attribute, value id, value id)`
//!   ([`row_key`]). They pay only where values recur, so the vectorizer
//!   keys them only on attributes that
//!   [`crate::analysis::TaskAnalysis::recurring`] flags (distinct values
//!   at most half of the non-null cells): one probe then serves a
//!   pair's whole feature row. A row's mask says which slots it holds,
//!   since the rule sweep fills one feature at a time.
//! * **The token table** remembers Monge-Elkan's inner Jaro-Winkler
//!   scores of longer token pairs, keyed by word-pool ids: token pairs
//!   recur on every attribute.
//!
//! # Bit-identity contract
//!
//! Every kernel returns the **exact bits** of its string-path reference
//! (`edit`, `jaro`, `monge_elkan`, `align`), under the same contract as
//! the set kernels:
//!
//! * Char ids are ranks into a shared pool, so id equality is char
//!   equality — and equality is the *only* char operation any of these
//!   measures performs.
//! * Myers computes the same exact integer distance as the reference DP,
//!   so `1 - d/max` is the identical f64 expression on identical
//!   integers. Likewise Smith-Waterman's integer score and
//!   `(s/max).clamp(..)`; the lanes' padding argument is at [`sw_lanes`].
//! * Jaro's bitset matching over the right value selects the same `b`
//!   position for each `a` char as the reference's greedy window scan
//!   (the lowest untaken match), so its match/transposition counts are
//!   identical integers. Matching from the left table runs the same
//!   greedy pass with the roles swapped, which takes the same position
//!   sets on both sides (see [`jaro_left`]), so the counts are the
//!   reference's too. Jaro-Winkler applies the reference's prefix boost
//!   to that score.
//!   Monge-Elkan's run grid leaves every per-token fold of both
//!   directions equal to its true maximum (see [`monge_elkan_run`] for
//!   the symmetry argument and the char-set zero) and sums per-occurrence
//!   terms in the reference's order.
//! * A hit in a value row, the token table or the scratch's last-pair
//!   Jaro slot returns the bits the kernel computed for the same inputs,
//!   so whether a kernel consults them cannot change a result.
//!
//! The property suite (`tests/analysis_equivalence.rs`) enforces this
//! with `f64::to_bits` equality over arbitrary inputs, including
//! combining marks and strings crossing the 64-char word boundary, and
//! `bench --bin blocking_perf` asserts it in-bin on full datasets
//! (`char_equivalence=ok`, grepped by CI).
//!
//! Scratch buffers are per-thread (`thread_local!`); kernel outputs never
//! depend on scratch history (every call fully overwrites the regions it
//! reads), so the determinism contract is untouched.

use crate::analysis::{AttrView, TaskAnalysis, WordTable};
use std::cell::RefCell;

/// Reusable per-thread scratch for the char kernels. All buffers grow to
/// the high-water mark of the thread's workload and are reused across
/// calls; no kernel output depends on their prior contents.
#[derive(Default)]
pub struct CharScratch {
    /// Positional bitmask table, `pool × words`, direct-indexed by global
    /// char id: row `c` holds the positions of char `c` in the current
    /// subject string. Zeroed wholesale per build (it is a few KiB), so
    /// absent chars read an all-zero row with no mapping layer at all.
    /// The per-pair availability rows of [`jaro_ids`].
    peq: Vec<u64>,
    /// Persistent positional table of the left value: Myers' Peq for
    /// Levenshtein, whose *pattern* the left value is, and the table
    /// [`jaro_left`] matches against. Candidate streams arrive grouped by
    /// the left record, so the table is rebuilt only when `(pat_gen,
    /// pat_value_id)` changes and amortizes across a whole run of pairs.
    pat_peq: Vec<u64>,
    pat_gen: u64,
    pat_value_id: u32,
    /// Myers vertical-delta bit vectors, one u64 per 64-row block.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// [`jaro_ids`]: bitmask of taken `b` positions and matched `a` chars.
    taken: Vec<u64>,
    a_matches: Vec<u32>,
    /// Monge-Elkan run grid ([`monge_elkan_run`]): the cells, column-major
    /// (one column per distinct right token of the chunk), each column's
    /// maximum, one pair's row maxima, and the token → column map.
    me_grid: Vec<f64>,
    me_cols: Vec<f64>,
    me_rows: Vec<f64>,
    me_columns: TokenColumns,
    /// The buffers of a run chunk's lists (`MeChunk`).
    me_pairs: Vec<u32>,
    me_tokens: Vec<u32>,
    me_pair_columns: Vec<u32>,
    /// The token table: Monge-Elkan's inner token-pair scores,
    /// direct-mapped by the unordered pair of word-pool ids. Token pairs
    /// recur across record pairs far more often than records do, and id
    /// equality is input equality, so a hit returns the exact bits a
    /// recompute would. Collisions simply evict.
    cache_keys: Vec<u64>,
    cache_vals: Vec<f64>,
    /// `TaskAnalysis::generation` the token table's entries belong to.
    /// Ids are ranks into per-task pools, so entries from another
    /// analysis build must never hit; a generation change flushes it.
    cache_gen: u64,
    /// The value rows ([`ValueRow`]), direct-mapped by [`row_key`], and
    /// the generation they belong to, flushed on a change like the token
    /// table.
    rows: Vec<ValueRow>,
    rows_gen: u64,
    /// Smith-Waterman lanes ([`sw_lanes`]): the right sequences
    /// transposed, `sw_bt[j][lane]` (`-1` past a sequence's end), and the
    /// DP column over the left sequence.
    sw_bt: Vec<[i16; SW_LANES]>,
    sw_col: Vec<[i16; SW_LANES]>,
    /// The two rolling DP rows of [`sw_fallback`], back to back.
    sw_rows: Vec<i64>,
    /// The last value pair's Jaro score, keyed by the analysis generation
    /// and both value ids, so a hit is the same two strings: a pair's
    /// Jaro-Winkler reuses its Jaro matching when a run computes both.
    last_jaro: Option<(PairId, f64)>,
}

/// A value pair within one analysis build: `(TaskAnalysis::generation,
/// value id, value id)`. Equal ids are equal raw strings
/// ([`AttrView::value_id`]).
type PairId = (u64, u32, u32);

thread_local! {
    static SCRATCH: RefCell<CharScratch> = RefCell::new(CharScratch::default());
}

/// Run `f` with the calling thread's scratch. `FeatureVectorizer` calls
/// it once per run of pairs (for all features, or for one) and hands the
/// scratch to every kernel it calls.
#[inline]
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut CharScratch) -> T) -> T {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// What the kernels need to know about the analysis their views come
/// from and the attribute they score.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx {
    /// Char intern-pool size (`AnalysisStats::distinct_chars`): every
    /// char id is below it.
    pub pool: usize,
    /// `TaskAnalysis::generation`, which scopes the per-thread tables.
    pub gen: u64,
}

impl Ctx {
    /// The context for the tables of `an`.
    pub fn new(an: &TaskAnalysis) -> Ctx {
        Ctx { pool: an.stats.distinct_chars, gen: an.generation }
    }
}

/// Bits reserved per id in a packed key; ids at or above `1 << ID_BITS`
/// bypass both tables (correct, just not remembered).
const ID_BITS: u32 = 24;
const EMPTY_KEY: u64 = u64::MAX;

/// The slot of `key` in a direct-mapped table of `2^bits` slots.
#[inline]
fn slot_of(key: u64, bits: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

// ---- per-thread token table ----------------------------------------------

/// Token-table geometry: 2^17 direct-mapped slots (2 MiB per thread).
/// 2^18 slots measured no faster on the blocker samples, and 2^16 about
/// 4% slower; the other 2 MiB of the budget hold the value rows.
const CACHE_BITS: u32 = 17;
/// Key tag of Monge-Elkan's inner token-pair scores, keyed by the
/// unordered pair of word-pool ids: Jaro-Winkler is symmetric. Nonzero,
/// so the all-ones empty-slot sentinel can't collide with a real key.
const TAG_ME_TOKEN: u64 = 6;

/// Compute-through-the-token-table: return the remembered score of the
/// token pair `(ida, idb)` within analysis build `gen`, or run `f` once
/// and remember its bits. Only exact key matches from the same
/// generation hit, and word-pool ids are injective into their tokens
/// within a generation, so the table can only ever substitute a value
/// `f` itself would return — determinism (and the bit-identity contract)
/// is unaffected by hit patterns, thread counts, or evictions.
#[inline]
fn cached(
    s: &mut CharScratch,
    gen: u64,
    ida: u32,
    idb: u32,
    f: impl FnOnce(&mut CharScratch) -> f64,
) -> f64 {
    if (ida | idb) >> ID_BITS != 0 {
        return f(s);
    }
    if s.cache_keys.is_empty() {
        s.cache_keys.resize(1 << CACHE_BITS, EMPTY_KEY);
        s.cache_vals.resize(1 << CACHE_BITS, 0.0);
    }
    if s.cache_gen != gen {
        s.cache_keys.fill(EMPTY_KEY);
        s.cache_gen = gen;
    }
    let key = (TAG_ME_TOKEN << (2 * ID_BITS)) | (u64::from(ida) << ID_BITS) | u64::from(idb);
    let slot = slot_of(key, CACHE_BITS);
    if s.cache_keys[slot] == key {
        return s.cache_vals[slot];
    }
    let v = f(s);
    s.cache_keys[slot] = key;
    s.cache_vals[slot] = v;
    v
}

// ---- per-thread value rows -----------------------------------------------

/// Value-row geometry: 2^14 direct-mapped rows of 128 bytes (2 MiB per
/// thread). Restaurants@3's name, recurring with 17,921 distinct value
/// pairs in a 30k-pair sample, is the largest working set the benchmark
/// workloads bring.
const ROW_BITS: u32 = 14;

/// Slots of a [`ValueRow`]: one per text feature kind, at
/// `FeatureKind as usize` (the text kinds come first in its declaration).
pub(crate) const ROW_SLOTS: usize = 14;

/// The text features of one pair of values on one attribute: slot `k`
/// holds the feature of kind `k` when bit `k` of the mask is set. Two
/// cache lines, so a hit reads no more than a pair's own features.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub(crate) struct ValueRow {
    key: u64,
    mask: u16,
    vals: [f64; ROW_SLOTS],
}

impl ValueRow {
    const EMPTY: ValueRow = ValueRow { key: EMPTY_KEY, mask: 0, vals: [0.0; ROW_SLOTS] };

    /// The feature in slot `k` (which the row holds).
    #[inline]
    pub(crate) fn get(&self, k: usize) -> f64 {
        debug_assert!(self.mask & (1 << k) != 0, "slot {k} not filled");
        self.vals[k]
    }

    /// Fill slot `k` with `v`.
    #[inline]
    pub(crate) fn put(&mut self, k: usize, v: f64) {
        self.vals[k] = v;
        self.mask |= 1 << k;
    }
}

/// The value-row key of the values `a` and `b` of attribute `attr`, or
/// `None` when the attribute or an id is too wide to key. The key holds
/// the attribute because value ids are shared across attributes while
/// cosine's TF/IDF weights are not.
#[inline]
pub(crate) fn row_key(attr: usize, a: AttrView<'_>, b: AttrView<'_>) -> Option<u64> {
    let (ida, idb) = (a.value_id(), b.value_id());
    // An attribute of 0xFFFF could spell the empty sentinel.
    if attr >= 0xFFFF || (ida | idb) >> ID_BITS != 0 {
        return None;
    }
    Some(((attr as u64) << (2 * ID_BITS)) | (u64::from(ida) << ID_BITS) | u64::from(idb))
}

impl CharScratch {
    /// The value rows, once they hold only rows of generation `gen`.
    #[inline]
    fn rows_of(&mut self, gen: u64) -> &mut [ValueRow] {
        if self.rows.is_empty() {
            self.rows.resize(1 << ROW_BITS, ValueRow::EMPTY);
        }
        if self.rows_gen != gen {
            self.rows.fill(ValueRow::EMPTY);
            self.rows_gen = gen;
        }
        &mut self.rows
    }

    /// Row `key` of generation `gen`, if it holds every slot of `need`.
    #[inline]
    pub(crate) fn row(&mut self, gen: u64, key: u64, need: u16) -> Option<&ValueRow> {
        let row = &self.rows_of(gen)[slot_of(key, ROW_BITS)];
        (row.key == key && row.mask & need == need).then_some(row)
    }

    /// Row `key` of generation `gen`, to fill: the row already kept for
    /// `key`, or an empty one in place of whatever shared its slot.
    #[inline]
    pub(crate) fn row_mut(&mut self, gen: u64, key: u64) -> &mut ValueRow {
        let row = &mut self.rows_of(gen)[slot_of(key, ROW_BITS)];
        if row.key != key {
            *row = ValueRow { key, ..ValueRow::EMPTY };
        }
        row
    }
}

// ---- Myers bit-parallel edit distance ------------------------------------

/// Exact Levenshtein distance between the raw char ids of two values via
/// Myers' bit-parallel algorithm, over `⌈m/64⌉` u64 blocks with carry
/// propagation between blocks — the blocked formulation of Myers (1999)
/// as corrected by Hyyrö. `pool` is the char intern-pool size.
///
/// `a` is always the pattern, and its Peq table survives in the scratch
/// until a different value (or analysis generation) shows up. Candidate
/// streams arrive grouped by the left record, so the build amortizes
/// across a whole run of pairs. Fixing the pattern side is sound because
/// unit-cost edit distance is symmetric: the same integer comes out
/// whichever side drives the bit matrix.
fn myers_distance_pat(
    a: AttrView<'_>,
    b: AttrView<'_>,
    pool: usize,
    gen: u64,
    s: &mut CharScratch,
) -> usize {
    let (pat, text) = (a.raw_char_ids(), b.raw_char_ids());
    if pat.is_empty() {
        return text.len();
    }
    if text.is_empty() {
        return pat.len();
    }
    let m = pat.len();
    let words = left_table(a, pool, gen, s);
    match words {
        1 => myers_64(&s.pat_peq, text, m),
        _ => myers_blocked(&s.pat_peq, &mut s.pv, &mut s.mv, text, m, words),
    }
}

/// Make `s.pat_peq` the positional table of the left value `a` (raw char
/// ids, `⌈|a|/64⌉` words per char), building it only when the scratch
/// holds another value's or another generation's; returns its words per
/// char. One table per value, whichever kernel asks first: Levenshtein
/// drives Myers with it, and [`jaro_left`] matches against it.
#[inline]
fn left_table(a: AttrView<'_>, pool: usize, gen: u64, s: &mut CharScratch) -> usize {
    let pat = a.raw_char_ids();
    let words = pat.len().div_ceil(64);
    if s.pat_gen != gen || s.pat_value_id != a.value_id() {
        build_peq(pat, pool, words, &mut s.pat_peq);
        s.pat_gen = gen;
        s.pat_value_id = a.value_id();
    }
    words
}

/// (Re)build a direct-indexed positional bitmask table over `seq`: row
/// `c` (of `words` u64s) gets a bit per position of char `c`. The whole
/// `pool × words` table is zeroed first — it is a few KiB, so the memset
/// is cheaper than any dedup/cleanup bookkeeping — leaving absent chars
/// with all-zero rows.
#[inline]
fn build_peq(seq: &[u32], pool: usize, words: usize, peq: &mut Vec<u64>) {
    let need = pool * words;
    if peq.len() < need {
        peq.resize(need, 0);
    }
    peq[..need].fill(0);
    for (i, &cid) in seq.iter().enumerate() {
        peq[cid as usize * words + i / 64] |= 1u64 << (i % 64);
    }
}

/// Single-word Myers: pattern fits one u64 (`m ≤ 64`). `peq` is
/// direct-indexed by char id; absent chars hold all-zero rows, so the
/// lookup is branch-free.
#[inline]
fn myers_64(peq: &[u64], text: &[u32], m: usize) -> usize {
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m as i64;
    let top = 1u64 << (m - 1);
    for &tc in text {
        let eq = peq[tc as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & top != 0 {
            score += 1;
        }
        if mh & top != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score as usize
}

/// Blocked Myers for patterns over 64 chars: per text char, sweep the
/// `words` blocks bottom-up, chaining the horizontal delta (−1/0/+1)
/// through each block boundary; the score is tracked at the pattern's
/// true last row (bit `(m−1) mod 64` of the last block).
fn myers_blocked(
    peq: &[u64],
    pvs: &mut Vec<u64>,
    mvs: &mut Vec<u64>,
    text: &[u32],
    m: usize,
    words: usize,
) -> usize {
    if pvs.len() < words {
        pvs.resize(words, 0);
        mvs.resize(words, 0);
    }
    pvs[..words].fill(!0u64);
    mvs[..words].fill(0);
    let mut score = m as i64;
    let last = words - 1;
    let top = 1u64 << ((m - 1) % 64);
    const HIGH: u64 = 1u64 << 63;
    for &tc in text {
        let eq_base = tc as usize * words;
        // Horizontal delta entering block 0 is the first matrix row's
        // +1-per-column boundary.
        let mut hin: i32 = 1;
        for w in 0..words {
            // Bits of the last block above the pattern's top row carry
            // garbage; additions only carry upward and the score reads
            // `top`, so they never contaminate live cells. Absent text
            // chars read all-zero Peq rows.
            let eq = peq[eq_base + w];
            let pv = pvs[w];
            let mv = mvs[w];
            let hin_neg = u64::from(hin < 0);
            let eq_in = eq | hin_neg;
            let xv = eq | mv;
            let xh = (((eq_in & pv).wrapping_add(pv)) ^ pv) | eq_in;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            let hbit = if w == last { top } else { HIGH };
            let mut hout: i32 = 0;
            if ph & hbit != 0 {
                hout = 1;
            } else if mh & hbit != 0 {
                hout = -1;
            }
            let ph = (ph << 1) | u64::from(hin > 0);
            let mh = (mh << 1) | hin_neg;
            pvs[w] = mh | !(xv | ph);
            mvs[w] = ph & xv;
            hin = hout;
        }
        score += i64::from(hin);
    }
    score as usize
}

/// Normalized Levenshtein over precomputed raw char ids; bit-identical to
/// `edit::levenshtein_similarity` on the raw strings.
pub(crate) fn levenshtein_pre(
    a: AttrView<'_>,
    b: AttrView<'_>,
    cx: Ctx,
    s: &mut CharScratch,
) -> f64 {
    let max = a.raw_char_ids().len().max(b.raw_char_ids().len());
    if max == 0 {
        return 1.0;
    }
    let d = myers_distance_pat(a, b, cx.pool, cx.gen, s);
    1.0 - d as f64 / max as f64
}

// ---- Jaro / Jaro-Winkler -------------------------------------------------

/// Jaro similarity over char-id slices via bitset matching: one
/// availability bitmask row per pool char (direct-indexed, like the
/// Myers Peq) lets each `a` char find its match with a find-first-set
/// per word of its window instead of a linear window scan: one word
/// for `b` up to 64 chars, a loop over the window's words past that.
/// Pairs of at most 8 chars together take the plain window scan. The
/// kernel of whole values past 64 chars and of Monge-Elkan's token pairs;
/// a run's shorter whole values take [`jaro_left`].
///
/// The greedy semantics are the reference's exactly — the lowest untaken
/// matching `b` position inside the window, processed in `a` order — so
/// the match set, the transposition count, and the final expression are
/// bit-identical to `jaro::jaro`.
fn jaro_ids(a: &[u32], b: &[u32], pool: usize, s: &mut CharScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a == b {
        // Greedy matching on identical sequences pairs every position
        // with itself: m = |a| = |b|, t = 0, and each of the reference's
        // three ratios is an exact 1.0.
        return 1.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);

    // Short pairs (Monge-Elkan's short token pairs, which skip the token
    // table): the plain window scan beats the availability-row build,
    // whose fixed cost is a pool-sized table clear. It *is* the reference
    // scan, so the match set is trivially identical. At most 4 chars
    // match, so the matched chars fit a fixed array: no scratch.
    if a.len() + b.len() <= 8 {
        let mut taken = 0u64;
        let (mut matched, mut m) = ([0u32; 4], 0);
        for (i, &ca) in a.iter().enumerate() {
            let hi = (i + window + 1).min(b.len());
            // An `a` position past the window's reach yields an empty
            // slice (lo clamped to hi), matching the empty range scan.
            let lo = i.saturating_sub(window).min(hi);
            for (off, &cb) in b[lo..hi].iter().enumerate() {
                let j = lo + off;
                if taken & (1u64 << j) == 0 && cb == ca {
                    taken |= 1u64 << j;
                    matched[m] = ca;
                    m += 1;
                    break;
                }
            }
        }
        return jaro_finish(a, b, &[taken], &matched[..m]);
    }
    let words = b.len().div_ceil(64);

    // Availability rows over b, direct-indexed by global char id (see
    // `build_peq`): absent `a` chars read an all-zero row, so the scan
    // needs no mapping layer and no cleanup pass. Matching clears bits
    // in place; the table is rebuilt per call anyway.
    build_peq(b, pool, words, &mut s.peq);

    // Single-word specialization (b up to 64 chars): the window is one
    // contiguous bit range of one u64, so the whole candidate set is one
    // load and two mask shifts.
    if words == 1 {
        let mut taken = 0u64;
        s.a_matches.clear();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            if lo >= hi {
                continue;
            }
            let mask = s.peq[ca as usize] & (!0u64 << lo) & (!0u64 >> (64 - hi));
            if mask != 0 {
                let bit = mask & mask.wrapping_neg();
                s.peq[ca as usize] ^= bit;
                taken |= bit;
                s.a_matches.push(ca);
            }
        }
        return jaro_finish(a, b, &[taken], &s.a_matches);
    }

    if s.taken.len() < words {
        s.taken.resize(words, 0);
    }
    s.taken[..words].fill(0);
    s.a_matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        let base = ca as usize * words;
        let w_lo = lo / 64;
        for w in w_lo..=(hi - 1) / 64 {
            let mut mask = s.peq[base + w];
            if w == w_lo {
                mask &= !0u64 << (lo % 64);
            }
            let covered = hi - w * 64;
            if covered < 64 {
                mask &= (1u64 << covered) - 1;
            }
            if mask != 0 {
                let bit = mask & mask.wrapping_neg();
                s.peq[base + w] ^= bit;
                s.taken[w] |= bit;
                s.a_matches.push(ca);
                break;
            }
        }
    }

    jaro_finish(a, b, &s.taken[..words], &s.a_matches)
}

/// Transposition count and final Jaro expression over the taken-position
/// bitmask; the bit walk visits b's matched positions in order — the same
/// zip the reference materializes `b_matches` for.
#[inline]
fn jaro_finish(a: &[u32], b: &[u32], taken: &[u64], a_matches: &[u32]) -> f64 {
    let m = a_matches.len();
    if m == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (w, &tw) in taken.iter().enumerate() {
        let mut t = tw;
        while t != 0 {
            let j = w * 64 + t.trailing_zeros() as usize;
            if a_matches[k] != b[j] {
                transpositions += 1;
            }
            k += 1;
            t &= t - 1;
        }
    }
    jaro_expr(m, transpositions, a.len(), b.len())
}

/// The reference's final Jaro expression over `m > 0` matches, of which
/// `mismatches` zip to different chars (half of them, rounded down, are
/// transpositions), between sequences of lengths `la` and `lb`.
#[inline]
fn jaro_expr(m: usize, mismatches: usize, la: usize, lb: usize) -> f64 {
    let m = m as f64;
    let t = (mismatches / 2) as f64;
    (m / la as f64 + m / lb as f64 + (m - t) / m) / 3.0
}

/// Jaro of two whole values `a` (left) and `b` of at most 64 chars each,
/// matched against the left value's positional table ([`left_table`]),
/// which a run builds once for Levenshtein and Jaro together: no table
/// per pair. Bit-identical to `jaro::jaro`.
///
/// Each right position `j`, in order, takes the lowest untaken left
/// position `i` with `a[i] == b[j]` and `|i − j| ≤ w`: one load of char
/// `b[j]`'s row, masked to the free positions of the window, and a
/// find-first-set. This is the reference's greedy pass with the roles
/// swapped, and the two take the same position sets on both sides
/// ([`monge_elkan_run`] has the argument: the window has the same radius
/// from either side, and one char's matching never touches another
/// char's positions). So `m` is the reference's, and zipping the matched
/// chars in ascending left and ascending right order gives the
/// reference's transposition count.
fn jaro_left(a: AttrView<'_>, b: AttrView<'_>, cx: Ctx, s: &mut CharScratch) -> f64 {
    let (ca, cb) = (a.raw_char_ids(), b.raw_char_ids());
    let (la, lb) = (ca.len(), cb.len());
    debug_assert!(la <= 64 && lb <= 64, "one word per side");
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    if ca == cb {
        // As in `jaro_ids`: every position matches itself, t = 0.
        return 1.0;
    }
    left_table(a, cx.pool, cx.gen, s);
    let window = (la.max(lb) / 2).saturating_sub(1);
    let all = !0u64 >> (64 - la);
    let mut free = all;
    let mut taken_b = 0u64;
    for (j, &c) in cb.iter().enumerate() {
        let lo = j.saturating_sub(window);
        if lo >= la {
            // Every later window starts past the left value too.
            break;
        }
        let hi = (j + window + 1).min(la);
        let mask = s.pat_peq[c as usize] & free & (!0u64 << lo) & (!0u64 >> (64 - hi));
        if mask != 0 {
            free ^= mask & mask.wrapping_neg();
            taken_b |= 1u64 << j;
        }
    }
    let (mut ta, mut tb) = (all & !free, taken_b);
    let m = ta.count_ones() as usize;
    if m == 0 {
        return 0.0;
    }
    let mut mismatches = 0;
    while ta != 0 {
        mismatches += usize::from(ca[ta.trailing_zeros() as usize] != cb[tb.trailing_zeros() as usize]);
        ta &= ta - 1;
        tb &= tb - 1;
    }
    jaro_expr(m, mismatches, la, lb)
}

/// Jaro-Winkler over char-id slices; prefix boost replicates
/// `jaro::jaro_winkler` exactly.
#[inline]
fn jaro_winkler_ids(a: &[u32], b: &[u32], pool: usize, s: &mut CharScratch) -> f64 {
    winkler(jaro_ids(a, b, pool, s), a, b)
}

/// Jaro-Winkler from the Jaro score `j` of the same two sequences: the
/// reference's boost by the shared prefix (up to 4 chars), as the same
/// f64 expression.
#[inline]
fn winkler(j: f64, a: &[u32], b: &[u32]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaro over precomputed raw char ids; mirrors `jaro::jaro`. Values of
/// at most 64 chars match against the left value's table
/// ([`jaro_left`]), longer ones through [`jaro_ids`].
pub(crate) fn jaro_pre(a: AttrView<'_>, b: AttrView<'_>, cx: Ctx, s: &mut CharScratch) -> f64 {
    let id = (cx.gen, a.value_id(), b.value_id());
    if let Some((last, j)) = s.last_jaro {
        if last == id {
            return j;
        }
    }
    let (ca, cb) = (a.raw_char_ids(), b.raw_char_ids());
    let j = if ca.len() <= 64 && cb.len() <= 64 {
        jaro_left(a, b, cx, s)
    } else {
        jaro_ids(ca, cb, cx.pool, s)
    };
    s.last_jaro = Some((id, j));
    j
}

/// Jaro-Winkler over precomputed raw char ids; mirrors
/// `jaro::jaro_winkler`. Right after [`jaro_pre`] on the same pair the
/// matching is not redone.
pub(crate) fn jaro_winkler_pre(
    a: AttrView<'_>,
    b: AttrView<'_>,
    cx: Ctx,
    s: &mut CharScratch,
) -> f64 {
    winkler(jaro_pre(a, b, cx, s), a.raw_char_ids(), b.raw_char_ids())
}

// ---- Monge-Elkan ---------------------------------------------------------

/// Grid cells one chunk of a [`monge_elkan_run`] may hold: 1 MiB of `f64`
/// per thread. A run whose right values bring more distinct tokens is cut
/// into chunks of whole pairs, each with a grid of its own; a pair that
/// alone needs more is scored without storing its grid.
const ME_GRID_CELLS: usize = 1 << 17;

/// Word-pool id → grid column of the current run chunk. Stamp-marked, like
/// `index::ProbeScratch`: a new chunk bumps the stamp instead of clearing
/// the table, which grows to the largest id seen and is kept per thread.
#[derive(Default)]
struct TokenColumns {
    /// `(stamp, column)` per word-pool id.
    slots: Vec<(u32, u32)>,
    /// The current chunk's stamp; never 0 once [`Self::reset`] ran, so a
    /// slot never written reads as absent.
    stamp: u32,
}

impl TokenColumns {
    /// Forget every column: start a new chunk.
    fn reset(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// The column of token `id`, giving it column `next` if it has none
    /// yet; true when it was new.
    #[inline]
    fn column(&mut self, id: u32, next: usize) -> (usize, bool) {
        let at = id as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, (0, 0));
        }
        match self.slots[at] {
            (stamp, col) if stamp == self.stamp => (col as usize, false),
            _ => {
                self.slots[at] = (self.stamp, next as u32);
                (next, true)
            }
        }
    }
}

/// Symmetric Monge-Elkan of one left value `a` against a run of right
/// values `bs` (each with the output row it belongs to), equal to
/// `monge_elkan::monge_elkan_sym` bit for bit on every pair; `put(row,
/// score)` receives each result. `words` is the word table of the
/// analysis the views come from.
///
/// The Jaro-Winkler grid of `a`'s distinct tokens (rows) against the
/// distinct tokens of all the run's right values (columns) is computed
/// once per run, a column per right token, instead of once per pair:
///
/// * The backward direction's best for a right token `y` is the maximum
///   of `y`'s column: it depends on `a` and `y` only, not on the pair `y`
///   sits in. The reference computes it as `jaro_winkler(y, x)` over
///   `a`'s tokens `x`; the grid holds `jaro_winkler(x, y)`, the same bits,
///   since Jaro-Winkler is bitwise symmetric:
///   * Jaro's window has the same radius from either side, and matching
///     one char never touches the positions of another, so per char both
///     greedy passes (lowest untaken position in the window, in order)
///     take the same position set: the same `m`, and zips of the same two
///     matched subsequences, so the same transposition count;
///   * `m/|a| + m/|b|` is a commutative IEEE addition, and the third term
///     does not depend on the order;
///   * the Winkler prefix is symmetric.
/// * The forward direction's best for `a`'s token `x` in one pair is the
///   maximum of `x`'s row over the columns of that pair's tokens only.
/// * The reference folds each best with `fold(0.0, f64::max)` over finite
///   scores in `[0, 1]`: the plain maximum of the value set, whatever the
///   order, so duplicate tokens on either side count once. A token equal
///   to `x` scores an exact 1.0 (`jaro_winkler(x, x)`'s bits) without a
///   kernel call.
///
/// Rows and columns are word ids (each value's sorted `word_ids`), not
/// the reference's first-occurrence order; by the points above no best
/// depends on the order. Equal word ids are equal strings, so a token's
/// chars are its word's run in `words`. Both sums then add per-occurrence
/// terms in occurrence order (through `word_rank`), and the result is the
/// reference's `(fwd/na + bwd/nb)/2`. Each cell keeps the per-pair
/// kernel's policy ([`me_cell`]). On attributes whose values recur the
/// vectorizer hands in only the pairs its value rows miss.
pub(crate) fn monge_elkan_run(
    a: AttrView<'_>,
    bs: &[(usize, AttrView<'_>)],
    words: &WordTable,
    cx: Ctx,
    s: &mut CharScratch,
    mut put: impl FnMut(usize, f64),
) {
    let na = a.n_word_tokens();
    let m = a.word_ids().len();
    let mut chunk = MeChunk {
        a,
        bs,
        words,
        pairs: std::mem::take(&mut s.me_pairs),
        columns: std::mem::take(&mut s.me_tokens),
        pair_columns: std::mem::take(&mut s.me_pair_columns),
    };
    chunk.clear(s);
    for (i, &(row, b)) in bs.iter().enumerate() {
        let nb = b.n_word_tokens();
        if na == 0 || nb == 0 {
            put(row, if na == nb { 1.0 } else { 0.0 });
            continue;
        }
        let before = chunk.columns.len();
        chunk.add(i, s);
        if chunk.pairs.len() > 1 && chunk.columns.len() * m > ME_GRID_CELLS {
            // The pair's new columns would outgrow the grid: score the
            // chunk without it, then start the next chunk with it.
            chunk.drop_last(i, before);
            chunk.score(cx, s, &mut put);
            chunk.clear(s);
            chunk.add(i, s);
        }
    }
    chunk.score(cx, s, &mut put);
    s.me_pairs = chunk.pairs;
    s.me_tokens = chunk.columns;
    s.me_pair_columns = chunk.pair_columns;
}

/// The pairs of a [`monge_elkan_run`] waiting for their grid, and the
/// grid's columns. All three lists hold plain indices or ids, so their
/// buffers stay in the scratch across runs.
struct MeChunk<'r, 'a> {
    /// The run's left value.
    a: AttrView<'a>,
    /// The whole run.
    bs: &'r [(usize, AttrView<'a>)],
    /// The chars and char sets of every word id.
    words: &'r WordTable,
    /// The chunk's pairs, as indices into `bs`.
    pairs: Vec<u32>,
    /// The grid's columns in first-seen order: the word id of each
    /// distinct right token of the chunk's pairs.
    columns: Vec<u32>,
    /// Each pair's columns, pair after pair: the column of each of the
    /// pair's `word_ids`, in that order.
    pair_columns: Vec<u32>,
}

impl MeChunk<'_, '_> {
    /// Start a new chunk.
    fn clear(&mut self, s: &mut CharScratch) {
        self.pairs.clear();
        self.columns.clear();
        self.pair_columns.clear();
        s.me_columns.reset();
    }

    /// Add pair `bs[i]`, giving each of its tokens not seen in the chunk
    /// a new column.
    fn add(&mut self, i: usize, s: &mut CharScratch) {
        for &y in self.bs[i].1.word_ids() {
            let (u, new) = s.me_columns.column(y, self.columns.len());
            if new {
                self.columns.push(y);
            }
            self.pair_columns.push(u as u32);
        }
        self.pairs.push(i as u32);
    }

    /// Take back the last [`Self::add`], of pair `bs[i]`, made when the
    /// chunk had `columns` columns. Its new columns are the last ones, and
    /// the chunk is scored and cleared before the token map is read again.
    fn drop_last(&mut self, i: usize, columns: usize) {
        self.pairs.pop();
        self.pair_columns.truncate(self.pair_columns.len() - self.bs[i].1.word_ids().len());
        self.columns.truncate(columns);
    }

    /// Compute the chunk's grid and hand every pair's score to `put`. A
    /// chunk of several pairs stores the grid column-major and folds each
    /// pair's columns into its row maxima. A chunk of one pair, whose
    /// columns are its tokens in order, keeps no grid: each cell goes
    /// straight into its row and column maxima, and, as in a per-pair
    /// grid, a cell whose row and column both already hold an exact 1.0
    /// (a token on both sides) is skipped, since it could raise neither.
    fn score(&self, cx: Ctx, s: &mut CharScratch, put: &mut impl FnMut(usize, f64)) {
        if self.pairs.is_empty() {
            return;
        }
        let (a, da, words) = (self.a, self.a.word_ids(), self.words);
        let m = da.len();
        let single = self.pairs.len() == 1;
        let mut grid = std::mem::take(&mut s.me_grid);
        let mut best_col = std::mem::take(&mut s.me_cols);
        let mut best_row = std::mem::take(&mut s.me_rows);
        best_col.clear();
        best_row.clear();
        if single {
            let db = self.bs[self.pairs[0] as usize].1.word_ids();
            best_row.extend(da.iter().map(|x| if db.contains(x) { 1.0 } else { 0.0 }));
            for &y in &self.columns {
                let mut best = if da.contains(&y) { 1.0 } else { 0.0 };
                for (row, &x) in best_row.iter_mut().zip(da) {
                    if best == 1.0 && *row == 1.0 {
                        continue;
                    }
                    let v = me_cell(x, y, words, cx, s);
                    best = f64::max(best, v);
                    *row = row.max(v);
                }
                best_col.push(best);
            }
        } else {
            grid.clear();
            grid.resize(self.columns.len() * m, 0.0);
            for (cells, &y) in grid.chunks_exact_mut(m).zip(&self.columns) {
                for (cell, &x) in cells.iter_mut().zip(da) {
                    *cell = me_cell(x, y, words, cx, s);
                }
                best_col.push(cells.iter().copied().fold(0.0, f64::max));
            }
            best_row.resize(m, 0.0);
        }
        let na = a.n_word_tokens() as f64;
        let mut cols = self.pair_columns.as_slice();
        for &i in &self.pairs {
            let (row, b) = self.bs[i as usize];
            let own;
            (own, cols) = cols.split_at(b.word_ids().len());
            if !single {
                best_row.fill(0.0);
                for &u in own {
                    let u = u as usize;
                    fold_max(&mut best_row, &grid[u * m..(u + 1) * m]);
                }
            }
            let fwd: f64 = a.word_rank().iter().map(|&r| best_row[r as usize]).sum();
            let bwd: f64 = b.word_rank().iter().map(|&c| best_col[own[c as usize] as usize]).sum();
            put(row, (fwd / na + bwd / b.n_word_tokens() as f64) / 2.0);
        }
        s.me_grid = grid;
        s.me_cols = best_col;
        s.me_rows = best_row;
    }
}

/// Jaro-Winkler of `a`'s token `x` and a right token `y` (word ids in
/// `words`): an exact 1.0 for the same word; an exact 0.0 for two words
/// whose char sets are disjoint; tiny token pairs (numeric fragments,
/// initials) directly, faster than a probe-plus-fill on the low hit rates
/// their near-unique values see; longer vocabulary words, which recur
/// across runs, through the token table, keyed by the unordered id pair
/// since the score is symmetric.
///
/// The 0.0 is the kernel's: disjoint sets mean no shared char, since a
/// set only folds chars together (bit `c mod 64`), so Jaro matches
/// nothing and returns `+0.0`; and the Winkler prefix is 0, since a
/// shared first char would match at distance 0. `+0.0 + 0 · 0.1 · 1.0` is
/// `+0.0`.
#[inline]
fn me_cell(x: u32, y: u32, words: &WordTable, cx: Ctx, s: &mut CharScratch) -> f64 {
    if x == y {
        return 1.0;
    }
    if words.char_set(x) & words.char_set(y) == 0 {
        return 0.0;
    }
    let (ta, tb) = (words.chars(x), words.chars(y));
    if ta.len() + tb.len() <= 8 {
        jaro_winkler_ids(ta, tb, cx.pool, s)
    } else {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        cached(s, cx.gen, lo, hi, |s| jaro_winkler_ids(ta, tb, cx.pool, s))
    }
}

/// `acc[i] = max(acc[i], x[i])`: one more token's scores folded into
/// running per-token maxima.
#[inline]
fn fold_max(acc: &mut [f64], x: &[f64]) {
    for (m, &v) in acc.iter_mut().zip(x) {
        *m = m.max(v);
    }
}

// ---- Smith-Waterman ------------------------------------------------------

/// Length cap for a sequence in a Smith-Waterman lane ([`lane_seq`]).
/// Every DP value is bounded by `2·min(|a|,|b|)`, so with both lengths
/// capped at 8192 every intermediate (a cell plus a `+2` match step)
/// stays well inside `i16`, and the 16-bit arithmetic is
/// integer-identical to the reference's.
const SW_I16_MAX_LEN: usize = 8192;

/// Right sequences one lane DP sweep aligns at once: 16 `i16` cells fill
/// one 256-bit vector, or two SSE2 registers at the default target.
const SW_LANES: usize = 16;

/// The reference's normalization of a local-alignment score of two
/// non-empty sequences of lengths `la` and `lb`.
#[inline]
fn sw_similarity(score: i64, la: usize, lb: usize) -> f64 {
    let max_score = 2 * la.min(lb) as i64;
    (score as f64 / max_score as f64).clamp(0.0, 1.0)
}

/// The narrowed lowercase sequence of `v` if it can ride in a lane: the
/// pool narrows, and the sequence is non-empty and at most
/// [`SW_I16_MAX_LEN`] long.
fn lane_seq(v: AttrView<'_>) -> Option<&[i16]> {
    let n = v.lower_char_ids().len();
    let ids = v.lower_char_i16();
    (n > 0 && n <= SW_I16_MAX_LEN && ids.len() == n).then_some(ids)
}

/// Normalized Smith-Waterman of one left value `a` against a run of
/// right values `bs` (each with the output row it belongs to), over the
/// precomputed lowercased sequences: `align::smith_waterman_similarity`
/// bit for bit on every pair, a lone pair being a run of one. `put(row,
/// score)` receives each result.
///
/// The pairs are grouped by right-sequence length, sixteen to a group,
/// and scored by [`sw_lanes`]; a pair a lane cannot hold ([`lane_seq`])
/// takes [`sw_fallback`]. On attributes whose values recur the
/// vectorizer hands in only the pairs its value rows miss.
pub(crate) fn smith_waterman_run(
    a: AttrView<'_>,
    bs: &[(usize, AttrView<'_>)],
    s: &mut CharScratch,
    mut put: impl FnMut(usize, f64),
) {
    let ca = a.lower_char_ids();
    let qa = lane_seq(a);
    let mut laned: Vec<(usize, &[i16])> = Vec::with_capacity(bs.len());
    for &(row, b) in bs {
        let cb = b.lower_char_ids();
        if ca.is_empty() || cb.is_empty() {
            put(row, if ca.len() == cb.len() { 1.0 } else { 0.0 });
        } else if let (Some(_), Some(qb)) = (qa, lane_seq(b)) {
            laned.push((row, qb));
        } else {
            put(row, sw_similarity(sw_fallback(ca, cb, s), ca.len(), cb.len()));
        }
    }
    let Some(qa) = qa else { return };
    // A group sweeps to its longest sequence; similar lengths together
    // leave the least padding.
    laned.sort_unstable_by_key(|&(_, qb)| qb.len());
    let mut group: [&[i16]; SW_LANES] = [&[]; SW_LANES];
    for chunk in laned.chunks(SW_LANES) {
        for (g, &(_, qb)) in group.iter_mut().zip(chunk) {
            *g = qb;
        }
        let scores = sw_lanes(qa, &group[..chunk.len()], s);
        for (&score, &(row, qb)) in scores.iter().zip(chunk) {
            put(row, sw_similarity(i64::from(score), qa.len(), qb.len()));
        }
    }
}

/// Smith-Waterman scores of `a` against each of up to [`SW_LANES`]
/// sequences `bs` in one DP sweep, lane `l` holding `bs[l]`'s alignment.
/// The sequences are transposed into `sw_bt[j][l]`, padded with `-1`
/// past each sequence's end, and the sweep runs column by column (one
/// column per position `j` of the right sequences) with the reference
/// recurrence `max(diag ± score, up − 1, left − 1, 0)` on every lane.
///
/// Each lane's maximum is its sequence's exact score:
///
/// * A real cell (`j` < its sequence's length) reads only cells of
///   earlier columns and rows, all real, so it holds the reference's
///   value.
/// * `-1` equals no narrowed char id (they are ranks, never negative),
///   so a padded cell scores a mismatch at best. Padding starts after
///   the last real column, so by induction over columns a padded cell
///   never exceeds `max(0, M − 1)`, where `M` is the largest real cell
///   of its lane: each of its terms is a real or padded neighbor minus
///   one, or 0.
///
/// So padding never raises a lane's maximum above `M`. Every value stays
/// within `0..=2·|a|` (plus the `−1`/`+2` steps), inside `i16` for `a`
/// no longer than [`SW_I16_MAX_LEN`].
fn sw_lanes(a: &[i16], bs: &[&[i16]], s: &mut CharScratch) -> [i16; SW_LANES] {
    debug_assert!(bs.len() <= SW_LANES && a.len() <= SW_I16_MAX_LEN);
    let n = bs.iter().map(|b| b.len()).max().unwrap_or(0);
    s.sw_bt.clear();
    s.sw_bt.resize(n, [-1; SW_LANES]);
    for (l, b) in bs.iter().enumerate() {
        for (col, &c) in s.sw_bt.iter_mut().zip(*b) {
            col[l] = c;
        }
    }
    s.sw_col.clear();
    s.sw_col.resize(a.len(), [0; SW_LANES]);
    let mut best = [0i16; SW_LANES];
    for bj in &s.sw_bt {
        // Row 0 of every column is the zero boundary.
        let mut diag = [0i16; SW_LANES];
        let mut up = [0i16; SW_LANES];
        for (cell, &ca) in s.sw_col.iter_mut().zip(a) {
            // `cell` holds the previous column's value of this row.
            let left = *cell;
            let mut h = [0i16; SW_LANES];
            for l in 0..SW_LANES {
                let score = if bj[l] == ca { 2 } else { -1 };
                h[l] = (diag[l] + score).max(left[l].max(up[l]) - 1).max(0);
                best[l] = best[l].max(h[l]);
            }
            diag = left;
            up = h;
            *cell = h;
        }
    }
    best
}

/// Smith-Waterman score of two sequences by the reference recurrence
/// `max(diag ± score, up − 1, left − 1, 0)` in two rolling rows: the
/// path of the pairs no lane holds ([`lane_seq`]).
fn sw_fallback(a: &[u32], b: &[u32], s: &mut CharScratch) -> i64 {
    let n = b.len();
    s.sw_rows.clear();
    s.sw_rows.resize(2 * (n + 1), 0);
    let (mut prev, mut cur) = s.sw_rows.split_at_mut(n + 1);
    let mut best = 0;
    for &ca in a {
        // Column 0 of every row is the zero boundary.
        for (j, &cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { 2 } else { -1 };
            cur[j + 1] = diag.max(prev[j + 1] - 1).max(cur[j] - 1).max(0);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit;
    use crate::record::{Record, Table};
    use crate::{FeatureKind, FeatureVectorizer};

    /// Intern two strings against a tiny shared pool, mirroring what the
    /// analysis layer does for `raw_char_ids`.
    fn intern(a: &str, b: &str) -> (Vec<u32>, Vec<u32>, usize) {
        let mut pool: Vec<char> = a.chars().chain(b.chars()).collect();
        pool.sort_unstable();
        pool.dedup();
        let ids = |s: &str| -> Vec<u32> {
            s.chars()
                .map(|c| pool.binary_search(&c).expect("char interned") as u32)
                .collect()
        };
        (ids(a), ids(b), pool.len())
    }

    /// Tables of one text attribute: A holds `xs`, B `ys`.
    fn tables(xs: &[&str], ys: &[&str]) -> (Table, Table) {
        use crate::record::{Attribute, Schema, Value};
        use std::sync::Arc;
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |ts: &[&str]| ts.iter().map(|t| vec![Value::Text(t.to_string())]).collect();
        (Table::new("a", schema.clone(), rows(xs)), Table::new("b", schema, rows(ys)))
    }

    /// An analysis of one text attribute: table A holds `xs`, B `ys`.
    fn analyzed(xs: &[&str], ys: &[&str]) -> TaskAnalysis {
        let (a, b) = tables(xs, ys);
        FeatureVectorizer::fit(&a, &b).analyze(&a, &b, exec::Threads::new(1))
    }

    fn strs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    /// Myers through the pattern table against the reference DP on every
    /// pair of `xs × ys`, over one analysis and the scratch `s`: left value
    /// by left value (a run keeps its pattern table), then right value by
    /// right value (the pattern changes at every pair).
    fn check_myers(xs: &[&str], ys: &[&str], s: &mut CharScratch) {
        let an = analyzed(xs, ys);
        let check = |i: usize, j: usize, s: &mut CharScratch| {
            let (a, b) = (an.attr_a(i as u32, 0).unwrap(), an.attr_b(j as u32, 0).unwrap());
            let got = myers_distance_pat(a, b, an.stats.distinct_chars, an.generation, s);
            assert_eq!(got, edit::levenshtein(xs[i], ys[j]), "({:?}, {:?})", xs[i], ys[j]);
        };
        for i in 0..xs.len() {
            for j in 0..ys.len() {
                check(i, j, s);
            }
        }
        for j in 0..ys.len() {
            for i in 0..xs.len() {
                check(i, j, s);
            }
        }
    }

    #[test]
    fn myers_matches_dp_on_classics() {
        let lefts = ["kitten", "", "abc", "flaw", "café", "a", "ab"];
        let rights = ["sitting", "abc", "", "lawn", "cafe", "b", "ba"];
        check_myers(&lefts, &rights, &mut CharScratch::default());
    }

    #[test]
    fn myers_matches_dp_across_word_boundaries() {
        // Deterministic pseudo-random strings over a small alphabet with
        // lengths straddling 64 and 128 (1, 2, and 3 Myers words).
        let gen = |seed: u64, len: usize| -> String {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    char::from(b'a' + ((x >> 33) % 5) as u8)
                })
                .collect()
        };
        let lefts: Vec<String> = [1usize, 7, 63, 64, 65, 100, 127, 128, 129, 200]
            .iter()
            .map(|&la| gen(la as u64 * 31 + 7, la))
            .collect();
        let rights: Vec<String> =
            [1usize, 63, 64, 65, 130].iter().map(|&lb| gen(lb as u64 * 17 + 3, lb)).collect();
        check_myers(&strs(&lefts), &strs(&rights), &mut CharScratch::default());
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // Back-to-back analyses with very different alphabets and sizes,
        // whose values reuse the same ids, on ONE scratch must each match
        // the reference — a stale pattern table or pv/mv state would
        // corrupt the later calls.
        let cases = [
            ("kingston hyperx 4gb kit of two modules and a heat spreader, extended edition", "kingston hyper-x 4 gb kit"),
            ("ab", "ba"),
            ("zzzzzz", "zzzzzz"),
            ("a", ""),
        ];
        let mut s = CharScratch::default();
        for (a, b) in cases {
            check_myers(&[a], &[b], &mut s);
        }
    }

    #[test]
    fn jaro_ids_matches_reference() {
        use crate::jaro;
        let mut s = CharScratch::default();
        for (a, b) in [
            ("MARTHA", "MARHTA"),
            ("DIXON", "DICKSONX"),
            ("", ""),
            ("", "a"),
            ("abc", "xyz"),
            ("CRATE", "TRACE"),
            ("prefix", "prefixxxxx"),
            ("aaaa", "aaaa"),
            ("aabab", "ababa"),
        ] {
            let (ia, ib, pool) = intern(a, b);
            assert_eq!(jaro_ids(&ia, &ib, pool, &mut s).to_bits(), jaro::jaro(a, b).to_bits());
            assert_eq!(
                jaro_winkler_ids(&ia, &ib, pool, &mut s).to_bits(),
                jaro::jaro_winkler(a, b).to_bits()
            );
        }
    }

    #[test]
    fn jaro_ids_matches_reference_past_word_boundary() {
        // Texts over 64 chars exercise the multi-word availability masks
        // (windows spanning word boundaries, matches in the second word).
        use crate::jaro;
        let gen = |seed: u64, len: usize| -> String {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    char::from(b'a' + ((x >> 33) % 4) as u8)
                })
                .collect()
        };
        let mut s = CharScratch::default();
        for la in [40usize, 63, 64, 65, 100, 130] {
            for lb in [1usize, 64, 65, 129] {
                let a = gen(la as u64 * 13 + 1, la);
                let b = gen(lb as u64 * 29 + 5, lb);
                let (ia, ib, pool) = intern(&a, &b);
                assert_eq!(
                    jaro_ids(&ia, &ib, pool, &mut s).to_bits(),
                    jaro::jaro(&a, &b).to_bits(),
                    "lengths ({la}, {lb})"
                );
            }
        }
    }

    #[test]
    fn jaro_left_matches_reference_in_both_orders() {
        use crate::jaro;
        // Alphabets of 2 to 8 chars and lengths 1 to 64 on both sides;
        // each value is the left one against every value of the other
        // table, in turn, on one scratch (so every left value replaces the
        // last one's table).
        let text = |k: u64, seed: u64, len: usize| -> String {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    char::from(b'a' + ((x >> 33) % k) as u8)
                })
                .collect()
        };
        let mut s = CharScratch::default();
        for k in 2..=8u64 {
            let len = |i: u64| 1 + ((i * 29 + k * 7) % 64) as usize;
            let xs: Vec<String> = (0..16).map(|i| text(k, k * 1000 + i, len(i))).collect();
            let ys: Vec<String> = (0..16).map(|i| text(k, k * 2000 + i, len(i + 5))).collect();
            let an = analyzed(&strs(&xs), &strs(&ys));
            let cx = Ctx::new(&an);
            for (i, x) in xs.iter().enumerate() {
                let a = an.attr_a(i as u32, 0).unwrap();
                for (j, y) in ys.iter().enumerate() {
                    let b = an.attr_b(j as u32, 0).unwrap();
                    let got = jaro_left(a, b, cx, &mut s);
                    assert_eq!(got.to_bits(), jaro::jaro(x, y).to_bits(), "({x:?}, {y:?})");
                }
            }
            for (j, y) in ys.iter().enumerate() {
                let b = an.attr_b(j as u32, 0).unwrap();
                for (i, x) in xs.iter().enumerate() {
                    let a = an.attr_a(i as u32, 0).unwrap();
                    let got = jaro_left(b, a, cx, &mut s);
                    assert_eq!(got.to_bits(), jaro::jaro(y, x).to_bits(), "({y:?}, {x:?})");
                }
            }
        }
    }

    /// Deterministic pseudo-random lowercase strings over a small
    /// alphabet (frequent matches), so the reference lowercasing is the
    /// identity.
    fn lane_text(seed: u64, len: usize) -> String {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                char::from(b'a' + ((x >> 33) % 5) as u8)
            })
            .collect()
    }

    fn lane_ids(s: &str) -> Vec<i16> {
        s.bytes().map(|c| i16::from(c - b'a')).collect()
    }

    #[test]
    fn sw_fallback_matches_reference() {
        use crate::align;
        // A length grid with strongly asymmetric pairs.
        let mut s = CharScratch::default();
        for la in [1usize, 8, 25, 39, 40, 41, 70, 110] {
            for lb in [1usize, 12, 40, 64, 90, 150] {
                let a = lane_text(la as u64 * 131 + 3, la);
                let b = lane_text(lb as u64 * 17 + 11, lb);
                let (ia, ib, _) = intern(&a, &b);
                let want = align::smith_waterman_score(&a, &b);
                assert_eq!(sw_fallback(&ia, &ib, &mut s), want, "lengths ({la}, {lb})");
            }
        }
    }

    #[test]
    fn smith_waterman_ids_matches_reference_scores() {
        use crate::align;
        let mut s = CharScratch::default();
        for (a, b) in [
            ("kingston", "kingston"),
            ("aaaa", "bbbb"),
            ("khx1600c9d3k3", "kingston hyperx khx1600c9d3k3 12gb kit"),
            ("kingston", "king-ston"),
        ] {
            let (ia, ib, _) = intern(a, b);
            // Inputs are pre-lowercased here, so the reference's own
            // lowercasing is the identity and scores must agree: through
            // the two-row fallback and through a sweep of one lane, each
            // from either side.
            let narrow = |ids: &[u32]| ids.iter().map(|&c| c as i16).collect::<Vec<_>>();
            let (qa, qb) = (narrow(&ia), narrow(&ib));
            let want = align::smith_waterman_score(a, b);
            assert_eq!(sw_fallback(&ia, &ib, &mut s), want, "({a:?}, {b:?})");
            assert_eq!(sw_fallback(&ib, &ia, &mut s), want, "({b:?}, {a:?})");
            assert_eq!(i64::from(sw_lanes(&qa, &[&qb], &mut s)[0]), want, "({a:?}, {b:?})");
            assert_eq!(i64::from(sw_lanes(&qb, &[&qa], &mut s)[0]), want, "({b:?}, {a:?})");
        }
    }

    #[test]
    fn sw_lanes_match_reference_scores() {
        use crate::align;
        let mut s = CharScratch::default();
        for la in [1usize, 7, 39, 40, 41, 70] {
            let q = lane_text(la as u64 * 7 + 1, la);
            // Lengths 1 to 85, each lane a different length (so every
            // lane but the longest is padded), plus the query itself
            // (identity alignment).
            let subjects: Vec<String> = (0..SW_LANES)
                .map(|l| match l {
                    0 => q.clone(),
                    _ => lane_text(l as u64 * 131 + la as u64, 1 + (l * 37 + la * 3) % 85),
                })
                .collect();
            let ids: Vec<Vec<i16>> = subjects.iter().map(|t| lane_ids(t)).collect();
            for count in 1..=SW_LANES {
                let bs: Vec<&[i16]> = ids[..count].iter().map(Vec::as_slice).collect();
                let got = sw_lanes(&lane_ids(&q), &bs, &mut s);
                for (l, t) in subjects[..count].iter().enumerate() {
                    assert_eq!(
                        i64::from(got[l]),
                        align::smith_waterman_score(&q, t),
                        "query len {la}, {count} lanes, lane {l} (len {})",
                        t.len()
                    );
                }
            }
        }
    }

    #[test]
    fn sw_run_matches_reference_across_lane_counts_and_the_length_cap() {
        use crate::align;

        // B holds a lane-eligible sequence mix, one sequence past the i16
        // cap and one empty value: both must leave the lanes and still
        // agree with the reference. A's second value is too long for any
        // lane, so its whole run takes the fallback.
        let query = lane_text(3, 40);
        let mut texts: Vec<String> = (0..17)
            .map(|k| lane_text(k as u64 * 17 + 5, 30 + (k * 13) % 25))
            .collect();
        texts[4] = query.clone();
        texts[9] = lane_text(99, SW_I16_MAX_LEN + 5);
        texts[12] = String::new();
        let lefts = [query, lane_text(7, 9000)];
        let an = analyzed(&strs(&lefts), &strs(&texts));
        let views = |ra: usize, ks: &[usize]| -> (AttrView<'_>, Vec<(usize, AttrView<'_>)>) {
            let bs = ks.iter().map(|&k| an.attr_b(k as u32, 0).expect("text"));
            (an.attr_a(ra as u32, 0).expect("text"), bs.enumerate().collect())
        };
        // The run of `lefts[ra]` against the right values `ks`, in order.
        let check = |ra: usize, ks: &[usize], s: &mut CharScratch, what: &str| {
            let (av, bs) = views(ra, ks);
            let mut got = vec![f64::NAN; ks.len()];
            smith_waterman_run(av, &bs, s, |row, v| got[row] = v);
            for (row, (&k, g)) in ks.iter().zip(&got).enumerate() {
                let want = align::smith_waterman_similarity(&lefts[ra], &texts[k]);
                let at = format!("{what}: a{ra}, pair {row} (b{k})");
                assert_eq!(g.to_bits(), want.to_bits(), "{at}: {g} vs {want}");
            }
        };
        let all: Vec<usize> = (0..texts.len()).collect();
        let mut s = CharScratch::default();
        for count in 1..=texts.len() {
            check(0, &all[..count], &mut s, "lane count");
        }
        check(1, &all, &mut s, "past the cap");

        // The same runs through the vectorizer, on an attribute whose
        // values recur (B holds the texts three times over), where value
        // rows serve the pairs this thread has already scored.
        let (ta, tb) = {
            let bs: Vec<&str> = texts.iter().chain(&texts).chain(&texts).map(String::as_str).collect();
            tables(&strs(&lefts), &bs)
        };
        let vz = FeatureVectorizer::fit(&ta, &tb);
        let sw = FeatureKind::SmithWaterman;
        let fi = vz.library().defs.iter().position(|d| d.kind == sw).expect("a text attribute");
        let sweep = |an: &TaskAnalysis, ra: usize, ks: &[usize], what: &str| {
            let bs: Vec<&Record> = ks.iter().map(|&k| tb.record(k as u32)).collect();
            let mut got = vec![f64::NAN; ks.len()];
            vz.feature_run(fi, ta.record(ra as u32), &bs, an, &mut got);
            for (row, (&k, g)) in ks.iter().zip(&got).enumerate() {
                let want = align::smith_waterman_similarity(&lefts[ra], &texts[k % texts.len()]);
                let at = format!("{what}: a{ra}, pair {row} (b{k})");
                assert_eq!(g.to_bits(), want.to_bits(), "{at}: {g} vs {want}");
            }
        };
        // The Smith-Waterman slot of the row of `(lefts[ra], b record k)`.
        let remembered = |an: &TaskAnalysis, ra: usize, k: usize| -> Option<u64> {
            let (av, bv) = (an.attr_a(ra as u32, 0).unwrap(), an.attr_b(k as u32, 0).unwrap());
            let key = row_key(0, av, bv).expect("narrow ids");
            with_scratch(|s| s.row(an.generation, key, 1 << sw as usize).map(|r| r.get(sw as usize).to_bits()))
        };

        // Each run twice over one analysis: all misses, which fill one
        // slot per pair, then all hits.
        let an = vz.analyze(&ta, &tb, exec::Threads::new(1));
        assert!(an.recurring(0), "B repeats every text");
        for (ra, left) in lefts.iter().enumerate() {
            sweep(&an, ra, &all, "misses");
            for &k in &all {
                let want = align::smith_waterman_similarity(left, &texts[k]).to_bits();
                assert_eq!(remembered(&an, ra, k), Some(want), "a{ra}, b{k} remembered");
            }
            sweep(&an, ra, &all, "hits");
        }

        // A run mixing hits (the even right values, remembered by a first
        // run), misses, and right values repeated within the run, some as
        // other records holding the same text; then the same run as full
        // feature rows.
        let an = vz.analyze(&ta, &tb, exec::Threads::new(1));
        let evens: Vec<usize> = all.iter().copied().step_by(2).collect();
        sweep(&an, 0, &evens, "the even values");
        assert_eq!(remembered(&an, 0, 1), None, "an odd value is not remembered yet");
        let mixed: Vec<usize> = all.iter().copied().chain([3, 3, 8, 4, 20, 9, 12, 21, 1, 3]).collect();
        sweep(&an, 0, &mixed, "mixed");
        sweep(&an, 0, &mixed, "mixed, again");
        let nf = vz.n_features();
        let bs: Vec<&Record> = mixed.iter().map(|&k| tb.record(k as u32)).collect();
        let mut rows = vec![0.0; bs.len() * nf];
        vz.vectorize_pre_into(ta.record(0), &bs, &an, &mut rows);
        for (rb, row) in bs.iter().zip(rows.chunks_exact(nf)) {
            let want = vz.vectorize(ta.record(0), rb);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row), bits(&want), "full row of a0, b{}", rb.id);
        }
    }

    #[test]
    fn token_table_and_value_rows_fit_the_per_thread_budget() {
        // Both tables at their full size, as the first probe of each
        // allocates them.
        let mut s = CharScratch::default();
        cached(&mut s, 1, 2, 3, |_| 0.5);
        s.row_mut(1, 7).put(0, 0.5);
        assert_eq!(std::mem::size_of::<ValueRow>(), 128, "two cache lines a row");
        let bytes = s.cache_keys.capacity() * std::mem::size_of::<u64>()
            + s.cache_vals.capacity() * std::mem::size_of::<f64>()
            + s.rows.capacity() * std::mem::size_of::<ValueRow>();
        // The budget: the 2^18-slot result table the two replaced.
        assert!(bytes <= 4 << 20, "{bytes} bytes per thread");
    }

    #[test]
    fn token_columns_wrap_clears_stale_stamps() {
        // Ids as a chunk meets them, each new one given the next column.
        let assign = |map: &mut TokenColumns| -> Vec<(usize, bool)> {
            let mut next = 0;
            [0u32, 3, 1, 3, 5, 7, 0, 8]
                .iter()
                .map(|&id| {
                    let (col, new) = map.column(id, next);
                    next += usize::from(new);
                    (col, new)
                })
                .collect()
        };
        let mut fresh = TokenColumns::default();
        fresh.reset();
        let want = assign(&mut fresh);
        assert_eq!(want.iter().filter(|&&(_, new)| new).count(), 6, "six distinct ids");
        // A long-lived map at the end of its stamp range: slots stamped 1
        // (stale from the first chunk, which the restarted stamps reach
        // again), slots stamped with the current stamp, and slots never
        // written. After the reset every id is new, as in a fresh map.
        let mut worn = TokenColumns {
            slots: (0..8).map(|k| [(1, 9), (u32::MAX, 4), (0, 0)][k % 3]).collect(),
            stamp: u32::MAX,
        };
        worn.reset();
        assert_eq!(assign(&mut worn), want);
        worn.reset();
        assert_eq!(assign(&mut worn), want, "the chunk after the wrap");
    }
}
