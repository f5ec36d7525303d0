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
//! * **Levenshtein** runs Myers' bit-parallel algorithm (u64 blocks,
//!   multi-word for patterns over 64 chars, common prefix/suffix
//!   trimming): `O(⌈m/64⌉·n)` word operations instead of `O(m·n)` cell
//!   updates, and the exact integer distance of the reference DP.
//! * **Jaro / Jaro-Winkler** match through per-char availability
//!   bitmasks: each `a` char finds the lowest untaken matching `b`
//!   position in its window with a find-first-set instead of a linear
//!   scan — `O(n·⌈n/64⌉)` instead of `O(n·window)`.
//! * **Monge-Elkan** scores one left value against a whole run of right
//!   values ([`monge_elkan_run`]): the bitset Jaro-Winkler grid of the
//!   left value's distinct tokens against the distinct tokens of all the
//!   run's right values is computed once, a right token's backward best
//!   is its column's maximum whichever pair it sits in, and each pair
//!   folds only its own columns into its forward bests. The sums walk
//!   the precomputed token ranges in occurrence order, duplicates kept —
//!   exactly what `tokenize::words` yields.
//! * **Smith-Waterman** scores one left value against up to 16 right
//!   values at once when a vectorizer run shares the left record
//!   ([`smith_waterman_run`]): the right sequences are transposed into
//!   `[i16; 16]` lane arrays and one DP sweep advances all sixteen
//!   alignments. Single pairs, and pairs that cannot ride a lane, roll
//!   two reusable DP rows (or anti-diagonals for long inputs) with
//!   bounds-check-free inner cells over the precomputed lowercased
//!   sequences.
//!
//! # Whole-value result cache
//!
//! A per-thread direct-mapped table memoizes whole-value results by
//! `(kernel, value id, value id)`. It pays only where values recur, so a
//! kernel consults it only for attributes that
//! [`crate::analysis::TaskAnalysis::recurring`] flags (distinct values
//! at most half of the non-null cells). On near-unique attributes (names,
//! addresses, titles) a probe almost never hits and both the probe and
//! the fill are skipped. Monge-Elkan's inner token pairs recur on every
//! attribute and always use the table.
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
//! * Myers computes the same exact integer distance as the reference DP
//!   (affix trimming cannot change unit-cost edit distance), so
//!   `1 - d/max` is the identical f64 expression on identical integers.
//!   Likewise Smith-Waterman's integer score and `(s/max).clamp(..)`;
//!   the lane form's padding argument is at [`sw_lanes`].
//! * Jaro's bitset matching selects the same `b` position for each `a`
//!   char as the reference's greedy window scan (the lowest untaken
//!   match), so its match/transposition counts are identical integers.
//!   Jaro-Winkler applies the reference's prefix boost to that score.
//!   Monge-Elkan's run grid leaves every per-token fold of both
//!   directions equal to its true maximum (see [`monge_elkan_run`] for
//!   the symmetry argument) and sums per-occurrence terms in the
//!   reference's order.
//! * A hit in the result cache or in the scratch's last-pair Jaro slot
//!   returns the bits the kernel computed for the same inputs, so
//!   whether a kernel consults them cannot change a result.
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

use crate::analysis::{AttrView, TaskAnalysis};
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
    /// Shared by the per-pair builds (Myers Peq, Jaro availability).
    peq: Vec<u64>,
    /// Persistent Myers Peq table for the Levenshtein *pattern* side.
    /// Candidate streams arrive grouped by the left record, so the table
    /// is rebuilt only when `(pat_gen, pat_value_id)` changes and
    /// amortizes across a whole run of pairs.
    pat_peq: Vec<u64>,
    pat_gen: u64,
    pat_value_id: u32,
    /// Myers vertical-delta bit vectors, one u64 per 64-row block.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Jaro: bitmask of taken `b` positions and matched `a` chars.
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
    me_tokens: Vec<(u32, u32, u32)>,
    me_pair_columns: Vec<u32>,
    /// Direct-mapped result cache keyed by `(kernel tag, id, id)` — whole
    /// values through `AttrView::value_id`, Monge-Elkan inner token
    /// pairs through word-pool ids. Attribute values (cities, brands,
    /// venues) and token pairs recur across record pairs far more often
    /// than records do, and id equality is input equality, so a hit
    /// returns the exact bits a recompute would. Collisions simply evict.
    cache_keys: Vec<u64>,
    cache_vals: Vec<f64>,
    /// `TaskAnalysis::generation` the cache's entries belong to. Ids are
    /// ranks into per-task pools, so entries from another analysis build
    /// must never hit; a generation change flushes the cache.
    cache_gen: u64,
    /// Smith-Waterman rolling DP rows (row form) / rolling anti-diagonals
    /// plus the reversed-`b` buffer (diagonal form).
    sw_prev: Vec<i32>,
    sw_cur: Vec<i32>,
    sw_diag: Vec<i32>,
    sw_brev: Vec<u32>,
    /// 16-bit twins of the Smith-Waterman buffers. Halving the cell
    /// width doubles the lanes the auto-vectorizer packs per register,
    /// and the scores fit: every DP value is bounded by `2·min(|a|,|b|)`
    /// and the row form's scanned offset by `3·|b|`, both within `i16`
    /// under the [`SW_I16_MAX_LEN`] dispatch gate.
    sw_prev16: Vec<i16>,
    sw_cur16: Vec<i16>,
    sw_diag16: Vec<i16>,
    sw_brev16: Vec<i16>,
    /// Lane form: the right sequences transposed, `sw_bt[j][lane]`
    /// (`-1` past a sequence's end), and the DP column over the left
    /// sequence.
    sw_bt: Vec<[i16; SW_LANES]>,
    sw_col: Vec<[i16; SW_LANES]>,
    /// The last value pair's Jaro score. Keyed like the result cache, so
    /// a hit is the same two strings, but on every attribute: a pair's
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
    /// `TaskAnalysis::generation`, which scopes the result cache.
    pub gen: u64,
    /// Consult the whole-value result cache: the attribute's values
    /// recur (`TaskAnalysis::recurring`).
    pub memo: bool,
}

impl Ctx {
    /// The context for attribute `attr` of `an`'s tables.
    pub fn new(an: &TaskAnalysis, attr: usize) -> Ctx {
        Ctx { pool: an.stats.distinct_chars, gen: an.generation, memo: an.recurring(attr) }
    }
}

// ---- per-thread result cache ---------------------------------------------

/// Cache geometry: 2^18 direct-mapped slots (4 MiB per thread — sized so
/// the distinct token-pair working set of a large dataset doesn't thrash
/// the direct mapping; an L2-resident 2^14 table measured no faster on
/// misses and lost the cross-kind hits).
const CACHE_BITS: u32 = 18;
/// Bits reserved per id in a packed key; ids at or above `1 << ID_BITS`
/// bypass the cache (correct, just uncached).
const ID_BITS: u32 = 24;
/// Key tags, one per cached kernel. Tag 0 is never used, so the all-ones
/// empty-slot sentinel can't collide with a real key.
const TAG_LEV: u64 = 1;
const TAG_JARO: u64 = 2;
const TAG_JW: u64 = 3;
const TAG_ME: u64 = 4;
const TAG_SW: u64 = 5;
/// Monge-Elkan inner token-pair scores, keyed by the unordered pair of
/// word-pool ids (not value ids): Jaro-Winkler is symmetric.
const TAG_ME_TOKEN: u64 = 6;
const EMPTY_KEY: u64 = u64::MAX;

/// Compute-through-cache: return the cached result for
/// `(tag, ida, idb)` within analysis build `gen`, or run `f` once and
/// remember its bits. Only exact key matches from the same generation
/// hit, and both id spaces are injective into their inputs within a
/// generation, so the cache can only ever substitute a value `f` itself
/// would return — determinism (and the bit-identity contract) is
/// unaffected by hit patterns, thread counts, or evictions.
#[inline]
fn cached(
    s: &mut CharScratch,
    gen: u64,
    tag: u64,
    ida: u32,
    idb: u32,
    f: impl FnOnce(&mut CharScratch) -> f64,
) -> f64 {
    if let Some(v) = cache_get(s, gen, tag, ida, idb) {
        return v;
    }
    let v = f(s);
    cache_put(s, gen, tag, ida, idb, v);
    v
}

/// The slot and key of `(tag, ida, idb)` in the result cache, once the
/// cache holds only entries of generation `gen`; `None` when an id is too
/// wide to key.
#[inline]
fn cache_slot(s: &mut CharScratch, gen: u64, tag: u64, ida: u32, idb: u32) -> Option<(usize, u64)> {
    if (ida | idb) >> ID_BITS != 0 {
        return None;
    }
    if s.cache_keys.is_empty() {
        s.cache_keys.resize(1 << CACHE_BITS, EMPTY_KEY);
        s.cache_vals.resize(1 << CACHE_BITS, 0.0);
    }
    if s.cache_gen != gen {
        s.cache_keys.fill(EMPTY_KEY);
        s.cache_gen = gen;
    }
    let key = (tag << (2 * ID_BITS)) | (u64::from(ida) << ID_BITS) | u64::from(idb);
    let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_BITS)) as usize;
    Some((slot, key))
}

/// The cached result for `(tag, ida, idb)` within generation `gen`, if any.
#[inline]
fn cache_get(s: &mut CharScratch, gen: u64, tag: u64, ida: u32, idb: u32) -> Option<f64> {
    let (slot, key) = cache_slot(s, gen, tag, ida, idb)?;
    (s.cache_keys[slot] == key).then(|| s.cache_vals[slot])
}

/// Remember `v` as the result for `(tag, ida, idb)` within generation
/// `gen`, evicting whatever shared its slot.
#[inline]
fn cache_put(s: &mut CharScratch, gen: u64, tag: u64, ida: u32, idb: u32, v: f64) {
    if let Some((slot, key)) = cache_slot(s, gen, tag, ida, idb) {
        s.cache_keys[slot] = key;
        s.cache_vals[slot] = v;
    }
}

/// [`cached`] keyed by the two whole values, for attributes whose values
/// recur (`cx.memo`); elsewhere `f` runs directly.
#[inline]
fn memoized(
    s: &mut CharScratch,
    cx: Ctx,
    tag: u64,
    a: AttrView<'_>,
    b: AttrView<'_>,
    f: impl FnOnce(&mut CharScratch) -> f64,
) -> f64 {
    if cx.memo {
        cached(s, cx.gen, tag, a.value_id(), b.value_id(), f)
    } else {
        f(s)
    }
}

// ---- Myers bit-parallel edit distance ------------------------------------

/// Exact Levenshtein distance between two interned char-id sequences via
/// Myers' bit-parallel algorithm. `pool` is the char intern-pool size
/// (every id in `a` and `b` is `< pool`).
///
/// Identical common prefixes and suffixes are trimmed first (unit-cost
/// edit distance is invariant under shared-affix removal), the shorter
/// remainder becomes the pattern, and the bit matrix runs over
/// `⌈m/64⌉` u64 blocks with carry propagation between blocks — the
/// blocked formulation of Myers (1999) as corrected by Hyyrö.
pub fn myers_distance(a: &[u32], b: &[u32], pool: usize, s: &mut CharScratch) -> usize {
    // Shared-affix trim: often collapses near-duplicates to a few chars
    // and drops long inputs into the single-word fast path.
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }

    // Distance is symmetric; the shorter side as pattern minimizes words.
    let (pat, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = pat.len();
    let words = m.div_ceil(64);
    build_peq(pat, pool, words, &mut s.peq);
    match words {
        1 => myers_64(&s.peq, text, m),
        2 => myers_128(&s.peq, text, m),
        _ => myers_blocked(&s.peq, &mut s.pv, &mut s.mv, text, m, words),
    }
}

/// Myers through the persistent pattern table: `a` is always the
/// pattern, and its Peq table survives in the scratch until a different
/// value (or analysis generation) shows up. Candidate streams arrive
/// grouped by the left record, so the build amortizes across a whole run
/// of pairs. Affix trimming is skipped — a trim would shift the pattern
/// masks per pair, defeating the reuse — and fixing the pattern side is
/// sound because unit-cost edit distance is symmetric: the same integer
/// comes out whichever side drives the bit matrix.
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
    let words = m.div_ceil(64);
    if s.pat_gen != gen || s.pat_value_id != a.value_id() {
        build_peq(pat, pool, words, &mut s.pat_peq);
        s.pat_gen = gen;
        s.pat_value_id = a.value_id();
    }
    match words {
        1 => myers_64(&s.pat_peq, text, m),
        2 => myers_128(&s.pat_peq, text, m),
        _ => myers_blocked(&s.pat_peq, &mut s.pv, &mut s.mv, text, m, words),
    }
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

/// Two-word Myers (`64 < m ≤ 128`): the blocked recurrence with both
/// blocks' bit vectors held in registers instead of scratch slices —
/// the same per-block steps as [`myers_blocked`] with `words == 2`,
/// fully unrolled (block 0 always enters with `hin = +1`).
#[inline]
fn myers_128(peq: &[u64], text: &[u32], m: usize) -> usize {
    let (mut pv0, mut pv1) = (!0u64, !0u64);
    let (mut mv0, mut mv1) = (0u64, 0u64);
    let mut score = m as i64;
    let top = 1u64 << ((m - 1) % 64);
    const HIGH: u64 = 1u64 << 63;
    for &tc in text {
        let base = tc as usize * 2;
        let eq = peq[base];
        let xv = eq | mv0;
        let xh = (((eq & pv0).wrapping_add(pv0)) ^ pv0) | eq;
        let ph = mv0 | !(xh | pv0);
        let mh = pv0 & xh;
        let mut hin: i32 = 0;
        if ph & HIGH != 0 {
            hin = 1;
        } else if mh & HIGH != 0 {
            hin = -1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv0 = mh | !(xv | ph);
        mv0 = ph & xv;

        let eq = peq[base + 1];
        let hin_neg = u64::from(hin < 0);
        let eq_in = eq | hin_neg;
        let xv = eq | mv1;
        let xh = (((eq_in & pv1).wrapping_add(pv1)) ^ pv1) | eq_in;
        let ph = mv1 | !(xh | pv1);
        let mh = pv1 & xh;
        if ph & top != 0 {
            score += 1;
        } else if mh & top != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | u64::from(hin > 0);
        let mh = (mh << 1) | hin_neg;
        pv1 = mh | !(xv | ph);
        mv1 = ph & xv;
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
    memoized(s, cx, TAG_LEV, a, b, |s| {
        let max = a.raw_char_ids().len().max(b.raw_char_ids().len());
        if max == 0 {
            return 1.0;
        }
        let d = myers_distance_pat(a, b, cx.pool, cx.gen, s);
        1.0 - d as f64 / max as f64
    })
}

// ---- Jaro / Jaro-Winkler -------------------------------------------------

/// Jaro similarity over char-id slices via bitset matching: one
/// availability bitmask row per pool char (direct-indexed, like the
/// Myers Peq) lets each `a` char find its match with a find-first-set
/// over one or two words instead of a linear window scan.
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

    // Short inputs (word tokens, codes): the plain window scan beats the
    // availability-row build, whose fixed cost is a pool-sized table
    // clear. It *is* the reference scan, so the match set is trivially
    // identical.
    if b.len() <= 8 {
        let mut taken = 0u64;
        s.a_matches.clear();
        for (i, &ca) in a.iter().enumerate() {
            let hi = (i + window + 1).min(b.len());
            // An `a` position past the window's reach yields an empty
            // slice (lo clamped to hi), matching the empty range scan.
            let lo = i.saturating_sub(window).min(hi);
            for (off, &cb) in b[lo..hi].iter().enumerate() {
                let j = lo + off;
                if taken & (1u64 << j) == 0 && cb == ca {
                    taken |= 1u64 << j;
                    s.a_matches.push(ca);
                    break;
                }
            }
        }
        return jaro_finish(a, b, &[taken], &s.a_matches);
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

    // Two-word specialization (b up to 128 chars — e.g. paper titles):
    // same one-load-two-shifts structure as the single-word path, widened
    // to u128 so the window never straddles a word boundary in code.
    if words == 2 {
        let mut taken = 0u128;
        s.a_matches.clear();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            if lo >= hi {
                continue;
            }
            let base = ca as usize * 2;
            let avail = u128::from(s.peq[base]) | (u128::from(s.peq[base + 1]) << 64);
            let mask = avail & (!0u128 << lo) & (!0u128 >> (128 - hi));
            if mask != 0 {
                let bit = mask & mask.wrapping_neg();
                let j = bit.trailing_zeros() as usize;
                s.peq[base + j / 64] ^= 1u64 << (j % 64);
                taken |= bit;
                s.a_matches.push(ca);
            }
        }
        return jaro_finish(a, b, &[taken as u64, (taken >> 64) as u64], &s.a_matches);
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
    let m = m as f64;
    let t = (transpositions / 2) as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
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

/// Jaro over precomputed raw char ids; mirrors `jaro::jaro`.
pub(crate) fn jaro_pre(a: AttrView<'_>, b: AttrView<'_>, cx: Ctx, s: &mut CharScratch) -> f64 {
    let id = (cx.gen, a.value_id(), b.value_id());
    match s.last_jaro {
        Some((last, j)) if last == id => j,
        _ => {
            let j = memoized(s, cx, TAG_JARO, a, b, |s| {
                jaro_ids(a.raw_char_ids(), b.raw_char_ids(), cx.pool, s)
            });
            s.last_jaro = Some((id, j));
            j
        }
    }
}

/// Jaro-Winkler over precomputed raw char ids; mirrors
/// `jaro::jaro_winkler`. Right after [`jaro_pre`] on the same pair the
/// matching is not redone. Where values recur the result is cached as
/// well: a hit reads no char ids at all.
pub(crate) fn jaro_winkler_pre(
    a: AttrView<'_>,
    b: AttrView<'_>,
    cx: Ctx,
    s: &mut CharScratch,
) -> f64 {
    memoized(s, cx, TAG_JW, a, b, |s| {
        winkler(jaro_pre(a, b, cx, s), a.raw_char_ids(), b.raw_char_ids())
    })
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
/// score)` receives each result.
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
/// Both sums then add per-occurrence terms in occurrence order (through
/// `word_dedup_rank`), and the result is the reference's
/// `(fwd/na + bwd/nb)/2`. Each cell keeps the per-pair kernel's policy
/// ([`me_cell`]). On attributes whose values recur the whole-value memo
/// is checked per pair first, and only the pairs it misses enter the
/// grid.
pub(crate) fn monge_elkan_run(
    a: AttrView<'_>,
    bs: &[(usize, AttrView<'_>)],
    cx: Ctx,
    s: &mut CharScratch,
    mut put: impl FnMut(usize, f64),
) {
    let na = a.n_word_tokens();
    let m = a.word_dedup_ids().len();
    let mut chunk = MeChunk {
        a,
        bs,
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
        if cx.memo {
            if let Some(v) = cache_get(s, cx.gen, TAG_ME, a.value_id(), b.value_id()) {
                put(row, v);
                continue;
            }
        }
        chunk.add(i, s);
        if chunk.pairs.len() > 1 && chunk.columns.len() * m > ME_GRID_CELLS {
            // The pair's new columns would outgrow the grid: score the
            // chunk without it, then start the next chunk with it.
            chunk.drop_last(i);
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
/// grid's columns. All three lists hold plain indices, so their buffers
/// stay in the scratch across runs.
struct MeChunk<'r, 'a> {
    /// The run's left value.
    a: AttrView<'a>,
    /// The whole run.
    bs: &'r [(usize, AttrView<'a>)],
    /// The chunk's pairs, as indices into `bs`.
    pairs: Vec<u32>,
    /// The grid's columns in first-seen order: each distinct right token
    /// of the chunk's pairs, as `(word-pool id, index into bs, token
    /// position in that value)`.
    columns: Vec<(u32, u32, u32)>,
    /// Each pair's columns, pair after pair: the column of each of the
    /// pair's `word_dedup_ids`, in that order.
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
        let b = self.bs[i].1;
        for (&y, &k) in b.word_dedup_ids().iter().zip(b.word_dedup_first()) {
            let (u, new) = s.me_columns.column(y, self.columns.len());
            if new {
                self.columns.push((y, i as u32, k));
            }
            self.pair_columns.push(u as u32);
        }
        self.pairs.push(i as u32);
    }

    /// Take back the last [`Self::add`], of pair `bs[i]`. Its new columns
    /// are the last ones, and the chunk is scored and cleared before the
    /// token map is read again.
    fn drop_last(&mut self, i: usize) {
        let b = self.bs[i].1;
        self.pairs.pop();
        self.pair_columns.truncate(self.pair_columns.len() - b.word_dedup_ids().len());
        while self.columns.last().is_some_and(|&(_, j, _)| j as usize == i) {
            self.columns.pop();
        }
    }

    /// The chars of `a`'s distinct token `r` (row `r` of the grid).
    #[inline]
    fn row_token(&self, r: usize) -> &[u32] {
        self.a.word_token(self.a.word_dedup_first()[r] as usize)
    }

    /// The token id and chars of column `u`.
    #[inline]
    fn column_token(&self, u: usize) -> (u32, &[u32]) {
        let (y, i, k) = self.columns[u];
        (y, self.bs[i as usize].1.word_token(k as usize))
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
        let (a, da) = (self.a, self.a.word_dedup_ids());
        let m = da.len();
        let single = self.pairs.len() == 1;
        let mut grid = std::mem::take(&mut s.me_grid);
        let mut best_col = std::mem::take(&mut s.me_cols);
        let mut best_row = std::mem::take(&mut s.me_rows);
        best_col.clear();
        best_row.clear();
        if single {
            let db = self.bs[self.pairs[0] as usize].1.word_dedup_ids();
            best_row.extend(da.iter().map(|x| if db.contains(x) { 1.0 } else { 0.0 }));
            for u in 0..self.columns.len() {
                let (y, tb) = self.column_token(u);
                let mut best = if da.contains(&y) { 1.0 } else { 0.0 };
                for (r, (row, &x)) in best_row.iter_mut().zip(da).enumerate() {
                    if best == 1.0 && *row == 1.0 {
                        continue;
                    }
                    let v = me_cell(x, self.row_token(r), y, tb, cx, s);
                    best = f64::max(best, v);
                    *row = row.max(v);
                }
                best_col.push(best);
            }
        } else {
            grid.clear();
            grid.resize(self.columns.len() * m, 0.0);
            for (u, cells) in grid.chunks_exact_mut(m).enumerate() {
                let (y, tb) = self.column_token(u);
                for (r, (cell, &x)) in cells.iter_mut().zip(da).enumerate() {
                    *cell = me_cell(x, self.row_token(r), y, tb, cx, s);
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
            (own, cols) = cols.split_at(b.word_dedup_ids().len());
            if !single {
                best_row.fill(0.0);
                for &u in own {
                    let u = u as usize;
                    fold_max(&mut best_row, &grid[u * m..(u + 1) * m]);
                }
            }
            let fwd: f64 = a.word_dedup_rank().iter().map(|&r| best_row[r as usize]).sum();
            let bwd: f64 = b.word_dedup_rank().iter().map(|&c| best_col[own[c as usize] as usize]).sum();
            let v = (fwd / na + bwd / b.n_word_tokens() as f64) / 2.0;
            if cx.memo {
                cache_put(s, cx.gen, TAG_ME, a.value_id(), b.value_id(), v);
            }
            put(row, v);
        }
        s.me_grid = grid;
        s.me_cols = best_col;
        s.me_rows = best_row;
    }
}

/// Jaro-Winkler of `a`'s token `x` (chars `ta`) and a right token `y`
/// (chars `tb`): an exact 1.0 for the same token; tiny token pairs
/// (numeric fragments, initials) directly, faster than a probe-plus-fill
/// on the low hit rates their near-unique values see; longer vocabulary
/// words, which recur across runs, through the `TAG_ME_TOKEN` memo, keyed
/// by the unordered id pair since the score is symmetric.
#[inline]
fn me_cell(x: u32, ta: &[u32], y: u32, tb: &[u32], cx: Ctx, s: &mut CharScratch) -> f64 {
    if x == y {
        1.0
    } else if ta.len() + tb.len() <= 8 {
        jaro_winkler_ids(ta, tb, cx.pool, s)
    } else {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        cached(s, cx.gen, TAG_ME_TOKEN, lo, hi, |s| jaro_winkler_ids(ta, tb, cx.pool, s))
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

/// Length cap for the 16-bit Smith-Waterman path. The DP values are
/// bounded by `2·min(|a|,|b|)` and the row form's scanned offset
/// `partial + j` by `2·min(|a|,|b|) + |b| − 1 ≤ 3·len − 1`, so with both
/// lengths capped at 8192 every intermediate stays well inside `i16`
/// and the 16-bit arithmetic is integer-identical to the 32-bit form.
const SW_I16_MAX_LEN: usize = 8192;

/// Right sequences one lane-form DP sweep aligns at once: 16 `i16`
/// cells fill one 256-bit vector, or two SSE2 registers at the default
/// target.
const SW_LANES: usize = 16;

/// Generates one cell-width instantiation of the two Smith-Waterman
/// forms. The bodies are textually shared so the 16-bit variants cannot
/// drift from the 32-bit ones: only the char type, cell type, and the
/// scratch buffers differ. The recurrence replicates `align`'s exactly —
/// every intermediate fits the cell type (`i32` unconditionally; `i16`
/// under the [`SW_I16_MAX_LEN`] gate enforced by the dispatcher), so the
/// integer arithmetic is identical at either width.
macro_rules! sw_forms {
    ($score:ident, $diag:ident, $ch:ty, $cell:ty,
     $prev:ident, $cur:ident, $diagbuf:ident, $brev:ident) => {
        /// Smith-Waterman local-alignment score over char-id slices
        /// with reusable DP rows.
        fn $score(a: &[$ch], b: &[$ch], s: &mut CharScratch) -> i64 {
            if a.is_empty() || b.is_empty() {
                return 0;
            }
            if a == b {
                // The identity alignment scores the 2·|a| upper bound,
                // so it is the DP's exact best.
                return 2 * a.len() as i64;
            }
            // Longer inputs amortize the anti-diagonal form's
            // per-diagonal setup; the crossover sits near 40 chars in
            // microbenchmarks.
            if a.len().min(b.len()) >= 40 {
                return $diag(a, b, s);
            }
            s.$prev.clear();
            s.$prev.resize(b.len() + 1, 0);
            s.$cur.clear();
            s.$cur.resize(b.len() + 1, 0);
            let mut best: $cell = 0;
            for &ca in a {
                // The reference recurrence is
                //   v[j] = max(diag + s, up − 1, v[j−1] − 1, 0).
                // Let partial[j] = max(diag + s, up − 1, 0)
                // (previous-row terms only). Unrolling the v[j−1]
                // dependency gives
                //   v[j] = max over k ≤ j of (partial[k] − (j − k))
                //        = prefixmax(partial[k] + k) − j,
                // so the row splits into an elementwise pass with no
                // loop-carried state (vectorizable) and a prefix-max
                // scan whose carried chain is a single integer max.
                // Integer max is associative and commutative, so every
                // cell equals the reference's exactly.
                let n = b.len();
                let prev = &s.$prev[..n + 1];
                let cur = &mut s.$cur[1..n + 1];
                // Elementwise pass: no loop-carried state, bounds
                // pre-established — the form LLVM's auto-vectorizer
                // handles (compare + blend for the score, packed max
                // for the clamps, iota for `+ j`).
                for j in 0..n {
                    let partial = (prev[j] + if b[j] == ca { 2 } else { -1 })
                        .max(prev[j + 1] - 1)
                        .max(0);
                    cur[j] = partial + j as $cell;
                }
                // Serial scan. `best` tracks the row max of partial
                // (= *c − j), not of the scanned value: each scanned
                // max(partial[k] − (j − k), k ≤ j) is bounded by some
                // partial and reaches it at j = k, so the two row
                // maxima are the same integer. Keeping the reduction
                // out of the first loop leaves it free of carried
                // dependencies.
                let mut m = <$cell>::MIN;
                for (j, c) in cur.iter_mut().enumerate() {
                    m = m.max(*c);
                    best = best.max(*c - j as $cell);
                    *c = m - j as $cell;
                }
                std::mem::swap(&mut s.$prev, &mut s.$cur);
            }
            i64::from(best)
        }

        /// Anti-diagonal Smith-Waterman for longer inputs. Every cell
        /// on the anti-diagonal `d = i + j` depends only on diagonals
        /// `d−1` and `d−2`, so a whole diagonal computes elementwise
        /// with no carried state — not even the row form's prefix-max
        /// scan. `b` is reversed once up front so both sequences
        /// advance forward along a diagonal. Cell for cell this
        /// evaluates the identical integer recurrence, so the score is
        /// exactly the row form's (and the reference's).
        fn $diag(a: &[$ch], b: &[$ch], s: &mut CharScratch) -> i64 {
            let m = a.len();
            let n = b.len();
            s.$brev.clear();
            s.$brev.extend(b.iter().rev());
            for v in [&mut s.$prev, &mut s.$cur, &mut s.$diagbuf] {
                v.clear();
                v.resize(m + 2, 0);
            }
            let mut best: $cell = 0;
            // Rolling diagonals, indexed at `i + 1` so reads at `i − 1`
            // land on a real slot. A slot is only ever read as a cell
            // of diagonal `d−1` or `d−2` if that diagonal's valid range
            // actually wrote it (the ranges shift by at most one per
            // step); otherwise it still holds a zero from
            // initialization — exactly the out-of-matrix boundary
            // value.
            let mut p2 = std::mem::take(&mut s.$diagbuf);
            let mut p1 = std::mem::take(&mut s.$prev);
            let mut cur = std::mem::take(&mut s.$cur);
            for d in 0..(m + n - 1) {
                // Cells (i, d − i) with lo ≤ i ≤ hi are inside the
                // matrix.
                let lo = d.saturating_sub(n - 1);
                let hi = d.min(m - 1);
                let aw = &a[lo..hi + 1];
                // b[d − i] = brev[n − 1 − d + i]: forward in i.
                let bw = &s.$brev[(lo + n - 1 - d)..(hi + n - d)];
                let len = hi - lo + 1;
                let p2w = &p2[lo..hi + 1];
                let p1dw = &p1[lo..hi + 1];
                let p1uw = &p1[lo + 1..hi + 2];
                let curw = &mut cur[lo + 1..hi + 2];
                // Index-based over equal-length windows (bounds
                // established by the slicing above) — the flat shape
                // the auto-vectorizer handles more reliably than a
                // five-way nested zip.
                for k in 0..len {
                    let sc = if aw[k] == bw[k] { 2 } else { -1 };
                    curw[k] = (p2w[k] + sc).max(p1dw[k].max(p1uw[k]) - 1).max(0);
                }
                let mut dm: $cell = 0;
                for &v in curw.iter() {
                    dm = dm.max(v);
                }
                best = best.max(dm);
                let t = p2;
                p2 = p1;
                p1 = cur;
                cur = t;
            }
            s.$diagbuf = p2;
            s.$prev = p1;
            s.$cur = cur;
            i64::from(best)
        }
    };
}

sw_forms!(
    smith_waterman_score_ids,
    smith_waterman_score_diag,
    u32,
    i32,
    sw_prev,
    sw_cur,
    sw_diag,
    sw_brev
);
sw_forms!(
    smith_waterman_score_ids16,
    smith_waterman_score_diag16,
    i16,
    i16,
    sw_prev16,
    sw_cur16,
    sw_diag16,
    sw_brev16
);

/// Normalized Smith-Waterman over the precomputed lowercased char ids;
/// mirrors `align::smith_waterman_similarity` (which scores and
/// normalizes over the lower-cased sequences).
pub(crate) fn smith_waterman_pre(
    a: AttrView<'_>,
    b: AttrView<'_>,
    cx: Ctx,
    s: &mut CharScratch,
) -> f64 {
    memoized(s, cx, TAG_SW, a, b, |s| {
        let (ca, cb) = (a.lower_char_ids(), b.lower_char_ids());
        if ca.is_empty() && cb.is_empty() {
            return 1.0;
        }
        if ca.is_empty() || cb.is_empty() {
            return 0.0;
        }
        // 16-bit path when both sides carry narrowed ids (empty means
        // the char pool overflowed i16 — `ca`/`cb` are non-empty here)
        // and the lengths keep every DP intermediate inside i16.
        let (ca16, cb16) = (a.lower_char_i16(), b.lower_char_i16());
        let score = if ca16.len() == ca.len()
            && cb16.len() == cb.len()
            && ca.len().max(cb.len()) <= SW_I16_MAX_LEN
        {
            smith_waterman_score_ids16(ca16, cb16, s)
        } else {
            smith_waterman_score_ids(ca, cb, s)
        };
        sw_similarity(score, ca.len(), cb.len())
    })
}

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
/// right values `bs` (each with the output row it belongs to), bit-equal
/// to [`smith_waterman_pre`] on every pair; `put(row, score)` receives
/// each result.
///
/// Pairs whose sequences can both ride a lane ([`lane_seq`]) are
/// grouped by right-sequence length, sixteen to a group, and scored by
/// [`sw_lanes`]. The rest — and a run with fewer than two lane pairs —
/// take the per-pair forms.
pub(crate) fn smith_waterman_run(
    a: AttrView<'_>,
    bs: &[(usize, AttrView<'_>)],
    cx: Ctx,
    s: &mut CharScratch,
    mut put: impl FnMut(usize, f64),
) {
    let qa = lane_seq(a);
    let n_lane = match qa {
        Some(_) => bs.iter().filter(|&&(_, b)| lane_seq(b).is_some()).count(),
        None => 0,
    };
    let mut laned: Vec<(usize, &[i16])> = Vec::with_capacity(n_lane);
    for &(row, b) in bs {
        match lane_seq(b) {
            Some(qb) if n_lane >= 2 => laned.push((row, qb)),
            _ => put(row, smith_waterman_pre(a, b, cx, s)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit;

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

    fn myers(a: &str, b: &str) -> usize {
        let (ia, ib, pool) = intern(a, b);
        let mut s = CharScratch::default();
        myers_distance(&ia, &ib, pool, &mut s)
    }

    #[test]
    fn myers_matches_dp_on_classics() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("", "abc"),
            ("abc", ""),
            ("", ""),
            ("flaw", "lawn"),
            ("café", "cafe"),
            ("abc", "abc"),
            ("a", "b"),
            ("ab", "ba"),
        ] {
            assert_eq!(myers(a, b), edit::levenshtein(a, b), "({a:?}, {b:?})");
        }
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
        for la in [1usize, 7, 63, 64, 65, 100, 127, 128, 129, 200] {
            for lb in [1usize, 63, 64, 65, 130] {
                let a = gen(la as u64 * 31 + 7, la);
                let b = gen(lb as u64 * 17 + 3, lb);
                assert_eq!(
                    myers(&a, &b),
                    edit::levenshtein(&a, &b),
                    "lengths ({la}, {lb})"
                );
            }
        }
    }

    #[test]
    fn myers_affix_trimming_is_sound() {
        // Shared prefix + suffix around a differing core, crossing the
        // word boundary so the trim changes the block count.
        let pre = "x".repeat(60);
        let suf = "y".repeat(60);
        let a = format!("{pre}hello{suf}");
        let b = format!("{pre}hallo{suf}");
        assert_eq!(myers(&a, &b), 1);
        assert_eq!(myers(&a, &a), 0);
        let c = format!("{pre}{suf}");
        assert_eq!(myers(&a, &c), 5);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // Back-to-back calls with very different alphabets and sizes on
        // ONE scratch must each match the reference — stale map/peq/pv
        // state would corrupt the later calls.
        let cases = [
            ("kingston hyperx 4gb kit of two modules and a heat spreader, extended edition", "kingston hyper-x 4 gb kit"),
            ("ab", "ba"),
            ("zzzzzz", "zzzzzz"),
            ("a", ""),
        ];
        let mut s = CharScratch::default();
        for (a, b) in cases {
            let (ia, ib, pool) = intern(a, b);
            assert_eq!(
                myers_distance(&ia, &ib, pool, &mut s),
                edit::levenshtein(a, b),
                "({a:?}, {b:?})"
            );
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
            // lowercasing is the identity and scores must agree.
            assert_eq!(
                smith_waterman_score_ids(&ia, &ib, &mut s),
                align::smith_waterman_score(a, b),
                "({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn smith_waterman_row_and_diag_forms_match_reference() {
        use crate::align;
        // Length sweep straddling the 40-char row/diagonal crossover,
        // including strongly asymmetric pairs, on deterministic
        // pseudo-random strings over a small alphabet (frequent matches).
        let gen = |seed: u64, len: usize| -> String {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    char::from(b'a' + ((x >> 33) % 6) as u8)
                })
                .collect()
        };
        let mut s = CharScratch::default();
        for la in [1usize, 8, 25, 39, 40, 41, 70, 110] {
            for lb in [1usize, 12, 40, 64, 90, 150] {
                let a = gen(la as u64 * 131 + 3, la);
                let b = gen(lb as u64 * 17 + 11, lb);
                let (ia, ib, _) = intern(&a, &b);
                let want = align::smith_waterman_score(&a, &b);
                assert_eq!(
                    smith_waterman_score_ids(&ia, &ib, &mut s),
                    want,
                    "dispatch ({la}, {lb})"
                );
                // Both forms must agree with the reference regardless of
                // the dispatch length gate.
                if !ia.is_empty() && !ib.is_empty() {
                    assert_eq!(
                        smith_waterman_score_diag(&ia, &ib, &mut s),
                        want,
                        "diag ({la}, {lb})"
                    );
                }
                // The 16-bit instantiations must agree cell-for-cell:
                // same grid through the narrowed ids.
                let ia16: Vec<i16> = ia.iter().map(|&c| c as i16).collect();
                let ib16: Vec<i16> = ib.iter().map(|&c| c as i16).collect();
                assert_eq!(
                    smith_waterman_score_ids16(&ia16, &ib16, &mut s),
                    want,
                    "dispatch16 ({la}, {lb})"
                );
                if !ia16.is_empty() && !ib16.is_empty() {
                    assert_eq!(
                        smith_waterman_score_diag16(&ia16, &ib16, &mut s),
                        want,
                        "diag16 ({la}, {lb})"
                    );
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
    fn sw_lanes_match_reference_scores() {
        use crate::align;
        let mut s = CharScratch::default();
        for la in [1usize, 7, 39, 40, 41, 70] {
            let q = lane_text(la as u64 * 7 + 1, la);
            // Lengths around the row/diagonal crossover, each lane a
            // different length (so every lane but the longest is padded),
            // plus the query itself (identity alignment).
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
        use crate::analysis::analyze_task;
        use crate::record::{Attribute, Schema, Table, Value};
        use std::sync::Arc;

        // B holds a lane-eligible sequence mix, one sequence past the i16
        // cap and one empty value: both must leave the lanes and still
        // agree with the reference.
        let query = lane_text(3, 40);
        let mut texts: Vec<String> = (0..17)
            .map(|k| lane_text(k as u64 * 17 + 5, 30 + (k * 13) % 25))
            .collect();
        texts[4] = query.clone();
        texts[9] = lane_text(99, SW_I16_MAX_LEN + 5);
        texts[12] = String::new();
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |ts: &[String]| ts.iter().map(|t| vec![Value::Text(t.clone())]).collect();
        let a = Table::new("a", schema.clone(), rows(&[query.clone(), lane_text(7, 9000)]));
        let b = Table::new("b", schema, rows(&texts));
        let an = analyze_task(&a, &b, &[None], exec::Threads::new(1));
        let cx = Ctx { pool: an.stats.distinct_chars, gen: an.generation, memo: false };
        let mut s = CharScratch::default();
        for ra in 0..a.len() as u32 {
            let av = an.attr_a(ra, 0).expect("text");
            let x = a.record(ra).value(0).as_text().expect("text");
            // Every lane count for the short query; the long one (too
            // long for any lane) once.
            let first = if ra == 0 { 1 } else { texts.len() };
            for count in first..=texts.len() {
                let bs: Vec<(usize, AttrView<'_>)> =
                    (0..count).map(|k| (k, an.attr_b(k as u32, 0).expect("text"))).collect();
                let mut got = vec![f64::NAN; count];
                smith_waterman_run(av, &bs, cx, &mut s, |k, v| got[k] = v);
                for (k, g) in got.iter().enumerate() {
                    let want = align::smith_waterman_similarity(x, &texts[k]);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "a{ra}, run of {count}, pair {k}: {g} vs {want}"
                    );
                }
            }
        }
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
