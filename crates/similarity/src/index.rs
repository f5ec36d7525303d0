//! Index probes for output-sensitive candidate generation.
//!
//! Blocking rules are conjunctions of threshold predicates over
//! similarities (`jaccard_w <= t`, `cosine <= t`, `prefix <= t`, …). A
//! pair *survives* a rule when at least one predicate fails, i.e. when
//! some similarity is strictly above its threshold — which is exactly a
//! similarity-join condition. This module turns the precomputed
//! [`TableAnalysis`] (token ids as sorted `u32` ranks over shared
//! lexicographic pools, collapsed strings, prefix chars) into indexes so
//! those joins cost output-size work instead of an `|A|·|B|` scan.
//!
//! Four index shapes, all built over one attribute of one table:
//!
//! * [`InvertedIndex`] — CSR posting lists over one token space, probed
//!   with PPJoin-family filters (length, prefix, and positional — see
//!   [`InvertedIndex::probe`]). One index serves any threshold because
//!   positions are stored for the *full* canonical token sequence and
//!   all pruning happens probe-side.
//! * [`ExactIndex`] — record ids sorted by collapsed normalized string,
//!   for equality joins (`exact_match > t` with `t < 1` means `== 1.0`).
//! * [`PrefixIndex`] — record ids sorted by `(char count, prefix chars)`
//!   for `prefix > t`: a value of length `m` qualifies exactly when it
//!   shares the probe's first `K` chars, `K` the least count the
//!   similarity's own quotient puts above `t` for the pair's shorter
//!   length, so each length block is one binary search with no slack.
//! * [`ContainmentIndex`] — CSR postings of every 3-byte window of the
//!   collapsed strings, for `containment > t` with `t < 1` (one value a
//!   substring of the other): a longer value holds every window of the
//!   probe, and a shorter one is keyed by its first window, which the
//!   probe holds somewhere.
//!
//! A missing value (null or not text) makes every text feature of its
//! pairs NaN; no probe returns such a pair (NaN exceeds no threshold).
//! [`missing_records`] lists them for predicates a NaN fails.
//!
//! # Superset contract
//!
//! A probe must return every indexed record whose similarity with the
//! probe record is **strictly greater** than the threshold; returning
//! extra records is fine (callers re-verify candidates with the
//! bit-identical kernels of [`crate::analysis`]). All float bounds are
//! therefore slackened downward ([`min_overlap_above`]) so rounding can
//! only weaken a filter, never over-prune; the prefix bound instead
//! evaluates the similarity's own expression, so it is exact.
//!
//! # Determinism
//!
//! Index construction is a deterministic function of the analysis: no
//! hash-order iteration (vocabularies are sorted id vectors, postings are
//! CSR arrays filled in record order), no wall-clock, no randomness.
//! Probe output order is an implementation detail — callers sort each
//! probe record's hits.

use crate::analysis::{AttrView, TableAnalysis};
use crate::record::RecordId;
use std::cmp::Ordering;

/// Which precomputed token set of an [`AttrView`] an index is built
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenSpace {
    /// Distinct word-token ids (`word_ids`).
    Words,
    /// Distinct padded character 3-gram ids (`gram_ids`).
    Grams,
    /// Packed Soundex codes of the word tokens (`soundex_codes`).
    Soundex,
    /// The word ids again (`word_ids`), named for the TF/IDF cosine
    /// they serve, whose weights are parallel to them.
    TfIdf,
}

impl TokenSpace {
    /// Short lowercase name for reports and plans.
    pub fn name(self) -> &'static str {
        match self {
            TokenSpace::Words => "words",
            TokenSpace::Grams => "grams",
            TokenSpace::Soundex => "soundex",
            TokenSpace::TfIdf => "tfidf",
        }
    }
}

/// The similarity whose `> t` condition a probe must over-approximate.
/// Determines the overlap bounds used by the length/prefix/positional
/// filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetMeasure {
    /// `|x∩y| / |x∪y|` — also serves Soundex similarity, which is
    /// Jaccard over code sets with the same empty-set conventions.
    Jaccard,
    /// `2|x∩y| / (|x|+|y|)`.
    Dice,
    /// `|x∩y| / min(|x|,|y|)`.
    Overlap,
    /// Weighted cosine (TF/IDF): only the *necessary* condition
    /// "shares at least one token" is exploited (`dot > 0` needs a
    /// common term); size-based bounds do not apply to weighted sets.
    Cosine,
}

impl SetMeasure {
    /// Short lowercase name for reports and plans.
    pub fn name(self) -> &'static str {
        match self {
            SetMeasure::Jaccard => "jaccard",
            SetMeasure::Dice => "dice",
            SetMeasure::Overlap => "overlap",
            SetMeasure::Cosine => "cosine",
        }
    }
}

/// Sentinel size for records with no analysis (null / non-text value).
const NO_ANALYSIS: u32 = u32::MAX;

/// Smallest integer strictly greater than `v`, floored at 1, computed
/// with a downward slack so float rounding can only *weaken* the bound
/// (return a smaller required overlap than the exact real-arithmetic
/// value, never a larger one). Used for "overlap must exceed `v`"
/// requirements, where any candidate-losing error would break the
/// superset contract.
fn min_overlap_above(v: f64) -> u32 {
    let slack = v - 1e-9 * v.max(1.0);
    let f = slack.floor();
    if f < 0.0 {
        return 1;
    }
    // Overlap requirements are bounded by token-set sizes (well inside
    // u32), but saturate anyway: an impossibly large requirement simply
    // filters everything, which is safe.
    if f >= u32::MAX as f64 {
        u32::MAX
    } else {
        (f as u32).saturating_add(1)
    }
}

/// Minimum overlap required of the probe record alone (its partner's
/// size unknown) for `sim > t`. Every candidate pair must share at least
/// one token among the probe's canonical prefix of length
/// `|y| - this + 1` (prefix filter).
fn probe_required(measure: SetMeasure, t: f64, y: u32) -> u32 {
    match measure {
        // i > t·max(|x|,|y|) ≥ t·|y|.
        SetMeasure::Jaccard => min_overlap_above(t * y as f64),
        // 2i/(x+y) > t with x ≥ i  ⟹  i > t·y/(2−t).
        SetMeasure::Dice => min_overlap_above(t * y as f64 / (2.0 - t)),
        // min(|x|,|y|) can be 1, so only "shares a token" is required.
        SetMeasure::Overlap | SetMeasure::Cosine => 1,
    }
}

/// Minimum overlap required of a concrete `(x, y)` size pair for
/// `sim > t`. Always ≥ [`probe_required`] of either side, which is what
/// makes the positional filter sound against the probe-prefix cutoff.
fn required_overlap(measure: SetMeasure, t: f64, x: u32, y: u32) -> u32 {
    let (xf, yf) = (x as f64, y as f64);
    match measure {
        // i/(x+y−i) > t ⟹ i > t(x+y)/(1+t); also i > t·x and i > t·y.
        SetMeasure::Jaccard => min_overlap_above((t * (xf + yf) / (1.0 + t)).max(t * xf.max(yf))),
        // 2i/(x+y) > t ⟹ i > t(x+y)/2.
        SetMeasure::Dice => min_overlap_above(t * (xf + yf) / 2.0),
        // i/min > t ⟹ i > t·min(x,y).
        SetMeasure::Overlap => min_overlap_above(t * xf.min(yf)),
        SetMeasure::Cosine => 1,
    }
}

/// Inverted index over one token space of one attribute of one table
/// (the *indexed* side; by convention table B, probed per A record).
///
/// Layout is fully deterministic: `vocab` is the sorted distinct token
/// ids of the indexed table, postings are one CSR array filled by a
/// count/prefix-sum/scatter pass over records in ascending id order.
/// Tokens are canonically ordered by `(document frequency asc, id asc)`
/// — the standard PPJoin ordering that makes prefixes small where it
/// matters (rare tokens first).
#[derive(Debug)]
pub struct InvertedIndex {
    space: TokenSpace,
    /// Distinct token ids of the indexed table, sorted ascending.
    vocab: Vec<u32>,
    /// Document frequency per vocab entry.
    df: Vec<u32>,
    /// CSR offsets into `entries`; `len = vocab.len() + 1`.
    offsets: Vec<u32>,
    /// `(record, canonical position)` postings; within one token's list,
    /// records ascend.
    entries: Vec<(u32, u32)>,
    /// Token-set size per record (`NO_ANALYSIS` when the value is null).
    sizes: Vec<u32>,
    /// Records whose analysis exists but holds zero tokens (e.g.
    /// whitespace-only text). Their similarity to another empty set is
    /// 1.0 under every [`SetMeasure`], so they pair with empty probes.
    empties: Vec<u32>,
}

/// Reusable per-thread scratch for [`InvertedIndex::probe`]; avoids
/// re-allocating the stamp array (sized to the largest indexed table it
/// has probed) per probe record. Stamps only grow and a wrap clears the
/// array, so no stale stamp equals a fresh one and one scratch serves any
/// index.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Probe tokens keyed for canonical ordering:
    /// `(df, token id, vocab rank)`; rank is `u32::MAX` when the token
    /// does not occur in the indexed table.
    keyed: Vec<(u32, u32, u32)>,
    /// Last stamp per indexed record.
    seen: Vec<u32>,
    /// Current probe stamp; `seen[x] == stamp` ⟺ `x` already emitted.
    stamp: u32,
}

/// The token ids of `an` for `space` — a zero-copy slice into the
/// analysis arena (the weighted space reads the word ids, so it needs no
/// extraction pass either).
fn tokens_of<'a>(an: AttrView<'a>, space: TokenSpace) -> &'a [u32] {
    match space {
        TokenSpace::Words | TokenSpace::TfIdf => an.word_ids(),
        TokenSpace::Grams => an.gram_ids(),
        TokenSpace::Soundex => an.soundex_codes(),
    }
}

impl InvertedIndex {
    /// Build the index over `attr` of `table` in the given token space.
    pub fn build(table: &TableAnalysis, attr: usize, space: TokenSpace) -> InvertedIndex {
        let n = table.len();
        let mut sizes = vec![NO_ANALYSIS; n];
        let mut empties = Vec::new();
        let mut per_record: Vec<&[u32]> = vec![&[]; n];
        let mut all: Vec<u32> = Vec::new();
        for r in 0..n {
            let Some(an) = table.attr(r as RecordId, attr) else {
                continue;
            };
            let toks = tokens_of(an, space);
            sizes[r] = toks.len() as u32;
            if toks.is_empty() {
                empties.push(r as u32);
            } else {
                all.extend_from_slice(toks);
                per_record[r] = toks;
            }
        }
        all.sort_unstable();
        all.dedup();
        let vocab = all;

        let mut df = vec![0u32; vocab.len()];
        for toks in &per_record {
            for t in *toks {
                // Tokens always hit: vocab was built from these lists.
                if let Ok(rank) = vocab.binary_search(t) {
                    df[rank] += 1;
                }
            }
        }

        // Canonical per-record order: (df asc, id asc). Replace each
        // record's token list by its vocab ranks in canonical order.
        let mut ranked: Vec<Vec<u32>> = Vec::with_capacity(n);
        for toks in &per_record {
            let mut ranks: Vec<u32> = toks
                .iter()
                .filter_map(|t| vocab.binary_search(t).ok().map(|r| r as u32))
                .collect();
            ranks.sort_unstable_by_key(|&r| (df[r as usize], vocab[r as usize]));
            ranked.push(ranks);
        }

        let mut offsets = vec![0u32; vocab.len() + 1];
        for ranks in &ranked {
            for &r in ranks {
                offsets[r as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..vocab.len()].to_vec();
        let mut entries = vec![(0u32, 0u32); *offsets.last().unwrap_or(&0) as usize];
        for (rec, ranks) in ranked.iter().enumerate() {
            for (pos, &r) in ranks.iter().enumerate() {
                entries[cursor[r as usize] as usize] = (rec as u32, pos as u32);
                cursor[r as usize] += 1;
            }
        }

        InvertedIndex { space, vocab, df, offsets, entries, sizes, empties }
    }

    /// Append to `out` every indexed record whose `measure` similarity
    /// with the probe value **can** exceed `threshold` (a superset of
    /// the true result; see the module docs). `probe` is the analysis of
    /// the probe record's attribute value, `None` when that value is
    /// null — the similarity is then NaN and nothing matches.
    ///
    /// Requires `0.0 <= threshold < 1.0`. Appended records are deduped
    /// within this call (via `scratch`) but unsorted.
    pub fn probe(
        &self,
        probe: Option<AttrView<'_>>,
        measure: SetMeasure,
        threshold: f64,
        scratch: &mut ProbeScratch,
        out: &mut Vec<u32>,
    ) {
        debug_assert!((0.0..1.0).contains(&threshold), "probe threshold must be in [0,1)");
        let Some(an) = probe else {
            return;
        };
        let tokens = tokens_of(an, self.space);
        let y = tokens.len() as u32;
        if y == 0 {
            // Empty-vs-empty scores 1.0 (> t for every t < 1) under all
            // measures; empty-vs-nonempty scores 0.0 (never > t ≥ 0).
            out.extend_from_slice(&self.empties);
            return;
        }

        if scratch.seen.len() < self.sizes.len() {
            scratch.seen.resize(self.sizes.len(), 0);
        }
        scratch.stamp = scratch.stamp.wrapping_add(1);
        if scratch.stamp == 0 {
            scratch.seen.iter_mut().for_each(|s| *s = 0);
            scratch.stamp = 1;
        }

        // Canonical probe order: (df in the indexed table, id). Tokens
        // absent from the index get df 0 — they sort first and probe
        // nothing, but keeping them preserves the shared total order the
        // prefix theorem needs.
        scratch.keyed.clear();
        for &t in tokens {
            match self.vocab.binary_search(&t) {
                Ok(rank) => scratch.keyed.push((self.df[rank], t, rank as u32)),
                Err(_) => scratch.keyed.push((0, t, u32::MAX)),
            }
        }
        scratch.keyed.sort_unstable_by_key(|&(df, id, _)| (df, id));

        // Prefix filter: a qualifying pair shares a token among the
        // probe's first `y - probe_required + 1` canonical tokens.
        let alpha_y = probe_required(measure, threshold, y);
        if alpha_y > y {
            return;
        }
        let prefix_len = (y - alpha_y + 1) as usize;
        for (j, &(_, _, rank)) in scratch.keyed.iter().take(prefix_len).enumerate() {
            if rank == u32::MAX {
                continue;
            }
            let (lo, hi) = (self.offsets[rank as usize], self.offsets[rank as usize + 1]);
            for &(x, i) in &self.entries[lo as usize..hi as usize] {
                if scratch.seen[x as usize] == scratch.stamp {
                    continue;
                }
                let xs = self.sizes[x as usize];
                let alpha = required_overlap(measure, threshold, xs, y);
                // Length filter: the overlap can never reach `alpha`.
                if alpha > xs.min(y) {
                    continue;
                }
                // Positional filter: for the *first* common token the
                // remaining suffixes on both sides must still fit
                // `alpha` tokens. A failed position must NOT mark the
                // record seen — a later (qualifying) common token may
                // still admit it.
                if i <= xs - alpha && (j as u32) <= y - alpha {
                    scratch.seen[x as usize] = scratch.stamp;
                    out.push(x);
                }
            }
        }
    }
}

/// The view of `attr` of a record a sorted index holds.
fn view_of(table: &TableAnalysis, rec: u32, attr: usize) -> AttrView<'_> {
    table.attr(rec, attr).expect("sorted indexes only hold records with analysis")
}

/// The records of `table` with a value of `attr`, sorted by `cmp` of
/// their views, ties by record id (so every run of equal keys ascends).
fn sorted_records(
    table: &TableAnalysis,
    attr: usize,
    cmp: impl Fn(AttrView<'_>, AttrView<'_>) -> Ordering,
) -> Vec<u32> {
    let mut sorted: Vec<u32> =
        (0..table.len() as u32).filter(|&r| table.attr(r, attr).is_some()).collect();
    sorted.sort_unstable_by(|&p, &q| {
        cmp(view_of(table, p, attr), view_of(table, q, attr)).then(p.cmp(&q))
    });
    sorted
}

/// The run of `sorted` whose key `key_cmp` finds `Equal` to the probe's,
/// for `sorted` ordered by that key.
fn equal_run(sorted: &[u32], key_cmp: impl Fn(u32) -> Ordering) -> &[u32] {
    let lo = sorted.partition_point(|&r| key_cmp(r) == Ordering::Less);
    let len = sorted[lo..].partition_point(|&r| key_cmp(r) == Ordering::Equal);
    &sorted[lo..lo + len]
}

/// The records of `table` with no value of `attr` (null, or not text),
/// ascending. Every text feature of a pair is NaN exactly when one of
/// its two values is missing, so these are the partners a NaN-failing
/// predicate adds to every probe.
pub fn missing_records(table: &TableAnalysis, attr: usize) -> Vec<u32> {
    (0..table.len() as u32).filter(|&r| table.attr(r, attr).is_none()).collect()
}

/// Equality-join index: record ids of one table sorted by the collapsed
/// normalized string of one attribute (records without analysis are
/// excluded; ties break by record id, so each equality run ascends).
#[derive(Debug)]
pub struct ExactIndex {
    attr: usize,
    sorted: Vec<u32>,
}

impl ExactIndex {
    /// Build the index over `attr` of `table`.
    pub fn build(table: &TableAnalysis, attr: usize) -> ExactIndex {
        let sorted = sorted_records(table, attr, |p, q| p.collapsed().cmp(q.collapsed()));
        ExactIndex { attr, sorted }
    }

    /// Append to `out` (in ascending record order) every indexed record
    /// whose collapsed string equals `needle`. `table` must be the
    /// analysis the index was built from.
    pub fn matches(&self, table: &TableAnalysis, needle: &str, out: &mut Vec<u32>) {
        let run = equal_run(&self.sorted, |r| view_of(table, r, self.attr).collapsed().cmp(needle));
        out.extend_from_slice(run);
    }
}

/// The least `k` with `k / m > t`, for `m ≥ 1` and `0 ≤ t < 1`,
/// evaluated by the quotient `prefix_pre` computes. The quotient is
/// monotone in `k`, so a common prefix `c` gives a similarity above `t`
/// exactly when `c ≥ k`: no float slack is needed. `k = m` always
/// qualifies (`1.0 > t`) and `k = 0` never does, so `1 ≤ k ≤ m`.
fn least_prefix_above(m: usize, t: f64) -> usize {
    let above = |k: usize| k as f64 / m as f64 > t;
    let mut k = ((t * m as f64) as usize).min(m);
    while k > 0 && above(k - 1) {
        k -= 1;
    }
    while !above(k) {
        k += 1;
    }
    k
}

/// Prefix-similarity index: record ids of one table sorted by the
/// prefix chars of one attribute ([`AttrView::prefix_chars`]), first by
/// their count, then lexicographically, then by record id. Records
/// without analysis are excluded.
///
/// `prefix_pre` of two non-empty values is `c / min(la, lb)` for their
/// common prefix `c`; an empty value scores 1.0 against an empty one and
/// 0.0 against any other. So, for a probe of length `la` and a block of
/// values of length `m`, the qualifying values are exactly those sharing
/// the probe's first `K(min(la, m))` chars ([`least_prefix_above`]): one
/// contiguous run of the block, found by binary search.
#[derive(Debug)]
pub struct PrefixIndex {
    attr: usize,
    sorted: Vec<u32>,
    /// `(char count, end in sorted)` of each block of equal count,
    /// ascending; a block starts where the previous one ends.
    blocks: Vec<(u32, u32)>,
}

impl PrefixIndex {
    /// Build the index over `attr` of `table`.
    pub fn build(table: &TableAnalysis, attr: usize) -> PrefixIndex {
        let sorted = sorted_records(table, attr, |p, q| {
            let (p, q) = (p.prefix_chars(), q.prefix_chars());
            p.len().cmp(&q.len()).then_with(|| p.cmp(q))
        });
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        for (i, &r) in sorted.iter().enumerate() {
            let len = view_of(table, r, attr).prefix_chars().len() as u32;
            match blocks.last_mut() {
                Some((l, end)) if *l == len => *end = i as u32 + 1,
                _ => blocks.push((len, i as u32 + 1)),
            }
        }
        PrefixIndex { attr, sorted, blocks }
    }

    /// Append to `out` exactly the indexed records whose prefix
    /// similarity with the probe value exceeds `threshold` (each block's
    /// run ascends, the whole output does not). `table` must be the
    /// analysis the index was built from; `probe` is `None` when the
    /// probe value is missing, and nothing matches.
    ///
    /// Requires `0.0 <= threshold < 1.0`.
    pub fn probe(
        &self,
        table: &TableAnalysis,
        probe: Option<AttrView<'_>>,
        threshold: f64,
        out: &mut Vec<u32>,
    ) {
        debug_assert!((0.0..1.0).contains(&threshold), "probe threshold must be in [0,1)");
        let Some(an) = probe else {
            return;
        };
        let needle = an.prefix_chars();
        let mut start = 0;
        for &(len, end) in &self.blocks {
            let block = &self.sorted[start as usize..end as usize];
            start = end;
            let len = len as usize;
            if needle.is_empty() || len == 0 {
                // Empty against empty scores 1.0, against non-empty 0.0.
                if needle.len() == len {
                    out.extend_from_slice(block);
                }
                continue;
            }
            let head = &needle[..least_prefix_above(needle.len().min(len), threshold)];
            let run = equal_run(block, |r| {
                view_of(table, r, self.attr).prefix_chars()[..head.len()].cmp(head)
            });
            out.extend_from_slice(run);
        }
    }
}

/// A 3-byte window packed big-endian, so packed order is byte order.
fn window(w: &[u8]) -> u32 {
    u32::from_be_bytes([0, w[0], w[1], w[2]])
}

/// Containment index: the 3-byte windows of the collapsed strings of one
/// attribute ([`AttrView::collapsed`], the bytes `containment_pre`
/// searches), for the join "one value is a substring of the other".
///
/// `containment_pre` takes the shorter value (the probe on a tie) as the
/// needle; an empty needle matches only an empty value. A probe of
/// `la ≥ 3` bytes gathers:
///
/// * values of at least `la` bytes that contain it: each holds every
///   window of the probe, so the postings of the probe's rarest window;
/// * shorter values of at least 3 bytes that it contains: each value's
///   first window occurs in the probe at some offset, so the values
///   keyed under each of the probe's windows by their first window;
/// * every value of 1–2 bytes (too short to hold a window).
///
/// A probe of 1–2 bytes takes every non-empty value.
#[derive(Debug)]
pub struct ContainmentIndex {
    /// Collapsed byte length per record (`NO_ANALYSIS` when missing).
    lens: Vec<u32>,
    /// Distinct windows of the indexed values, ascending.
    windows: Vec<u32>,
    /// CSR offsets into `postings`; `len = windows.len() + 1`.
    offsets: Vec<u32>,
    /// The records holding each window, ascending within a window.
    postings: Vec<u32>,
    /// `(first window, record)` of every value of at least 3 bytes,
    /// ascending.
    firsts: Vec<(u32, u32)>,
    /// Records whose value has 1 or 2 bytes.
    shorts: Vec<u32>,
    /// Records whose value is empty.
    empties: Vec<u32>,
}

impl ContainmentIndex {
    /// Build the index over `attr` of `table`.
    pub fn build(table: &TableAnalysis, attr: usize) -> ContainmentIndex {
        let n = table.len();
        let mut lens = vec![NO_ANALYSIS; n];
        let (mut held, mut firsts) = (Vec::new(), Vec::new());
        let (mut shorts, mut empties) = (Vec::new(), Vec::new());
        for r in 0..n as u32 {
            let Some(an) = table.attr(r, attr) else {
                continue;
            };
            let bytes = an.collapsed().as_bytes();
            lens[r as usize] = bytes.len() as u32;
            match bytes.len() {
                0 => empties.push(r),
                1 | 2 => shorts.push(r),
                _ => {
                    firsts.push((window(bytes), r));
                    held.extend(bytes.windows(3).map(|w| (window(w), r)));
                }
            }
        }
        held.sort_unstable();
        held.dedup();
        firsts.sort_unstable();
        let (mut windows, mut offsets) = (Vec::new(), Vec::new());
        for (i, &(w, _)) in held.iter().enumerate() {
            if windows.last() != Some(&w) {
                windows.push(w);
                offsets.push(i as u32);
            }
        }
        offsets.push(held.len() as u32);
        let postings = held.into_iter().map(|(_, r)| r).collect();
        ContainmentIndex { lens, windows, offsets, postings, firsts, shorts, empties }
    }

    /// The records holding window `w`, ascending (empty when none does).
    fn postings_of(&self, w: u32) -> &[u32] {
        match self.windows.binary_search(&w) {
            Ok(i) => &self.postings[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Append to `out` every indexed record one of whose collapsed string
    /// and the probe value's contains the other (a superset of the pairs
    /// `containment_pre` scores 1.0; see the type docs). `probe` is
    /// `None` when the probe value is missing, and nothing matches.
    /// Appended records are unsorted and may repeat.
    pub fn probe(&self, probe: Option<AttrView<'_>>, out: &mut Vec<u32>) {
        let Some(an) = probe else {
            return;
        };
        let needle = an.collapsed().as_bytes();
        let la = needle.len() as u32;
        if la == 0 {
            out.extend_from_slice(&self.empties);
            return;
        }
        if la < 3 {
            out.extend(
                (0..self.lens.len() as u32)
                    .filter(|&r| !matches!(self.lens[r as usize], 0 | NO_ANALYSIS)),
            );
            return;
        }
        out.extend_from_slice(&self.shorts);
        let rarest = needle.windows(3).map(|w| self.postings_of(window(w))).min_by_key(|p| p.len());
        out.extend(rarest.unwrap_or(&[]).iter().filter(|&&r| self.lens[r as usize] >= la));
        for (at, w) in needle.windows(3).enumerate() {
            let w = window(w);
            let lo = self.firsts.partition_point(|&(f, _)| f < w);
            let keyed = self.firsts[lo..].iter().take_while(|&&(f, _)| f == w);
            // Shorter than the probe (an equal length is the postings'
            // case), and fitting in it from offset `at`.
            let room = la - at as u32;
            out.extend(keyed.map(|&(_, r)| r).filter(|&r| {
                let lb = self.lens[r as usize];
                lb < la && lb <= room
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::record::{Attribute, Schema, Table, Value};
    use crate::FeatureVectorizer;
    use std::sync::Arc;

    fn analyzed(vals_a: &[&str], vals_b: &[&str]) -> crate::analysis::TaskAnalysis {
        let some = |vals: &[&str]| -> Vec<Option<String>> {
            vals.iter().map(|&s| Some(s.to_string())).collect()
        };
        analyzed_opt(&some(vals_a), &some(vals_b))
    }

    /// [`analyzed`] with `None` for a null value.
    fn analyzed_opt(
        vals_a: &[Option<String>],
        vals_b: &[Option<String>],
    ) -> crate::analysis::TaskAnalysis {
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |vals: &[Option<String>]| -> Vec<Vec<Value>> {
            vals.iter().map(|s| vec![s.clone().map_or(Value::Null, Value::Text)]).collect()
        };
        let a = Table::new("a", schema.clone(), rows(vals_a));
        let b = Table::new("b", schema, rows(vals_b));
        FeatureVectorizer::fit(&a, &b).analyze(&a, &b, exec::Threads::new(2))
    }

    /// The B records of `an` whose `kernel` score with A record `x`
    /// exceeds `t`, ascending: the oracle of the prefix and containment
    /// probes.
    fn above(
        an: &crate::analysis::TaskAnalysis,
        kernel: fn(AttrView<'_>, AttrView<'_>) -> f64,
        x: u32,
        t: f64,
    ) -> Vec<u32> {
        let va = an.attr_a(x, 0).expect("probe value present");
        (0..an.b.len() as u32)
            .filter(|&y| an.attr_b(y, 0).is_some_and(|vb| kernel(va, vb) > t))
            .collect()
    }

    fn prefix_hits(
        an: &crate::analysis::TaskAnalysis,
        idx: &PrefixIndex,
        x: u32,
        t: f64,
    ) -> Vec<u32> {
        let mut got = Vec::new();
        idx.probe(&an.b, an.attr_a(x, 0), t, &mut got);
        got.sort_unstable();
        got
    }

    fn containment_hits(
        an: &crate::analysis::TaskAnalysis,
        idx: &ContainmentIndex,
        x: u32,
    ) -> Vec<u32> {
        let mut got = Vec::new();
        idx.probe(an.attr_a(x, 0), &mut got);
        got.sort_unstable();
        got.dedup();
        got
    }

    /// The prefix probe returns exactly the survivors, the containment
    /// probe a superset of them, for every probe value and threshold.
    fn assert_prefix_and_containment_probes(vals_a: &[&str], vals_b: &[&str]) {
        let an = analyzed(vals_a, vals_b);
        let prefix = PrefixIndex::build(&an.b, 0);
        let contain = ContainmentIndex::build(&an.b, 0);
        for x in 0..vals_a.len() as u32 {
            for t in [0.0, 0.2, 0.25, 0.5, 0.75, 0.9, 0.999] {
                let want = above(&an, analysis::prefix_pre, x, t);
                let got = prefix_hits(&an, &prefix, x, t);
                assert_eq!(got, want, "prefix {:?} t={t}", vals_a[x as usize]);
            }
            let got = containment_hits(&an, &contain, x);
            for y in above(&an, analysis::containment_pre, x, 0.5) {
                let (va, vb) = (vals_a[x as usize], vals_b[y as usize]);
                assert!(got.binary_search(&y).is_ok(), "{va:?} and {vb:?}: containment missing");
            }
        }
    }

    #[test]
    fn prefix_and_containment_probes_cover_a_small_alphabet() {
        // Every string of up to four letters over {a, b, ' '}: prefixes,
        // substrings, duplicates after collapsing, blank values.
        let mut vals = vec![String::new()];
        for len in 1..=4 {
            let mut next = Vec::new();
            for v in vals.iter().filter(|v| v.chars().count() == len - 1) {
                for c in ['a', 'b', ' '] {
                    next.push(format!("{v}{c}"));
                }
            }
            vals.extend(next);
        }
        let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
        assert_prefix_and_containment_probes(&vals, &vals);
    }

    #[test]
    fn prefix_threshold_boundary_is_not_a_required_hit() {
        // m = 4, t = 0.5: a common prefix of 2 scores exactly 0.5, which
        // does not exceed t, so K(4) = 3.
        let an = analyzed(&["abcd"], &["abzz", "abcz", "abcd", "abcdef", "ab", "a"]);
        let va = an.attr_a(0, 0).unwrap();
        assert_eq!(analysis::prefix_pre(va, an.attr_b(0, 0).unwrap()), 0.5);
        assert_eq!(least_prefix_above(4, 0.5), 3);
        let idx = PrefixIndex::build(&an.b, 0);
        // "ab" (m = 2, c = 2) and "a" (m = 1, c = 1) score 1.0.
        assert_eq!(prefix_hits(&an, &idx, 0, 0.5), vec![1, 2, 3, 4, 5]);
        assert_eq!(prefix_hits(&an, &idx, 0, 0.49), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn punctuation_only_values_pair_only_with_empty_values() {
        // Punctuation normalizes to blanks: no prefix chars, an empty
        // collapsed string — the empty value's behaviour in both indexes.
        let vals_b = ["", "  ?? ", "ab", "!", "a"];
        let an = analyzed(&["!!", "ab"], &vals_b);
        let prefix = PrefixIndex::build(&an.b, 0);
        let contain = ContainmentIndex::build(&an.b, 0);
        for t in [0.0, 0.5, 0.9] {
            assert_eq!(prefix_hits(&an, &prefix, 0, t), vec![0, 1, 3]);
            assert_eq!(prefix_hits(&an, &prefix, 1, t), above(&an, analysis::prefix_pre, 1, t));
        }
        assert_eq!(containment_hits(&an, &contain, 0), vec![0, 1, 3]);
        assert_eq!(containment_hits(&an, &contain, 1), vec![2, 4], "no empty value for \"ab\"");
    }

    #[test]
    fn multibyte_values_probe_both_indexes() {
        let vals_a = ["héllo wörld", "wörld", "ö", "éa", "ü"];
        let vals_b = ["héllo", "héllo wörld", "wörld cup", "hello", "ö", "aéa", "wö"];
        assert_prefix_and_containment_probes(&vals_a, &vals_b);
        let an = analyzed(&vals_a, &vals_b);
        let contain = ContainmentIndex::build(&an.b, 0);
        // "wörld" ⊆ "héllo wörld" and "wörld cup"; "ö" and "wö" ⊆ "wörld".
        assert_eq!(above(&an, analysis::containment_pre, 1, 0.5), vec![1, 2, 4, 6]);
        assert_eq!(containment_hits(&an, &contain, 1), vec![1, 2, 4, 6]);
    }

    #[test]
    fn containment_needles_of_one_or_two_bytes() {
        let vals_a = ["a", "ab", "xab", "b"];
        let vals_b = ["a", "b", "ab", "cab", "", "zz", "xabc"];
        assert_prefix_and_containment_probes(&vals_a, &vals_b);
        let an = analyzed(&vals_a, &vals_b);
        let contain = ContainmentIndex::build(&an.b, 0);
        // A needle of 1–2 bytes takes every non-empty value; a 3-byte
        // probe every value of 1–2 bytes.
        assert_eq!(containment_hits(&an, &contain, 0), vec![0, 1, 2, 3, 5, 6]);
        assert_eq!(containment_hits(&an, &contain, 2), vec![0, 1, 2, 5, 6]);
    }

    #[test]
    fn equal_length_containment_is_equality() {
        let vals_a = ["abc", "abcd"];
        let vals_b = ["abc", "abd", "bcd", "abcd", "dabc"];
        assert_prefix_and_containment_probes(&vals_a, &vals_b);
        let an = analyzed(&vals_a, &vals_b);
        let contain = ContainmentIndex::build(&an.b, 0);
        assert_eq!(containment_hits(&an, &contain, 0), vec![0, 3, 4]);
        // "abc" and "bcd" sit inside "abcd"; "dabc", of equal length,
        // shares a window but is another string.
        assert_eq!(containment_hits(&an, &contain, 1), vec![0, 2, 3]);
    }

    #[test]
    fn missing_probe_values_match_nothing() {
        let text = |s: &str| Some(s.to_string());
        let an = analyzed_opt(&[None, text("ab")], &[text("ab"), None, text("abc"), text("")]);
        assert!(an.attr_a(0, 0).is_none());
        let mut got = Vec::new();
        InvertedIndex::build(&an.b, 0, TokenSpace::Words).probe(
            None,
            SetMeasure::Jaccard,
            0.0,
            &mut ProbeScratch::default(),
            &mut got,
        );
        PrefixIndex::build(&an.b, 0).probe(&an.b, None, 0.0, &mut got);
        ContainmentIndex::build(&an.b, 0).probe(None, &mut got);
        assert!(got.is_empty(), "NaN exceeds no threshold");
        // The partners a NaN-failing predicate adds, on either side.
        assert_eq!(missing_records(&an.b, 0), vec![1]);
        assert_eq!(missing_records(&an.a, 0), vec![0]);
        // A present probe never meets the missing record.
        let contain = ContainmentIndex::build(&an.b, 0);
        assert_eq!(containment_hits(&an, &contain, 1), vec![0, 2]);
    }

    const VALS_A: &[&str] = &[
        "kingston hyperx 4gb memory kit",
        "kingston valueram 4gb",
        "corsair vengeance 8gb memory",
        "",
        "   ",
        "samsung evo ssd",
        "kingston hyperx",
    ];
    const VALS_B: &[&str] = &[
        "kingston hyperx 4gb kit",
        "corsair 8gb",
        "",
        "totally different tokens here",
        "samsung evo ssd",
    ];

    fn sim(an: &crate::analysis::TaskAnalysis, measure: SetMeasure, space: TokenSpace, x: u32, y: u32) -> f64 {
        let (ra, rb) = (an.attr_a(x, 0).unwrap(), an.attr_b(y, 0).unwrap());
        match (measure, space) {
            (SetMeasure::Jaccard, TokenSpace::Words) => analysis::jaccard_ids(ra.word_ids(), rb.word_ids()),
            (SetMeasure::Jaccard, TokenSpace::Grams) => analysis::jaccard_ids(ra.gram_ids(), rb.gram_ids()),
            (SetMeasure::Jaccard, TokenSpace::Soundex) => analysis::soundex_pre(ra, rb),
            (SetMeasure::Dice, TokenSpace::Words) => analysis::dice_ids(ra.word_ids(), rb.word_ids()),
            (SetMeasure::Overlap, TokenSpace::Words) => analysis::overlap_ids(ra.word_ids(), rb.word_ids()),
            (SetMeasure::Cosine, TokenSpace::TfIdf) => analysis::cosine_pre(ra, rb),
            _ => unreachable!("untested combination"),
        }
    }

    #[test]
    fn probe_is_superset_of_true_survivors() {
        let an = analyzed(VALS_A, VALS_B);
        let combos = [
            (SetMeasure::Jaccard, TokenSpace::Words),
            (SetMeasure::Jaccard, TokenSpace::Grams),
            (SetMeasure::Jaccard, TokenSpace::Soundex),
            (SetMeasure::Dice, TokenSpace::Words),
            (SetMeasure::Overlap, TokenSpace::Words),
            (SetMeasure::Cosine, TokenSpace::TfIdf),
        ];
        for (measure, space) in combos {
            let idx = InvertedIndex::build(&an.a, 0, space);
            let mut scratch = ProbeScratch::default();
            for t in [0.0, 0.1, 0.3, 0.5, 0.8, 0.95] {
                for y in 0..VALS_B.len() as u32 {
                    let mut got = Vec::new();
                    idx.probe(an.attr_b(y, 0), measure, t, &mut scratch, &mut got);
                    got.sort_unstable();
                    // No duplicates from a single probe.
                    let mut dd = got.clone();
                    dd.dedup();
                    assert_eq!(got, dd, "{measure:?}/{space:?} t={t} y={y}: dup candidates");
                    for x in 0..VALS_A.len() as u32 {
                        let s = sim(&an, measure, space, x, y);
                        if s > t {
                            assert!(
                                got.binary_search(&x).is_ok(),
                                "{measure:?}/{space:?} t={t}: pair ({x},{y}) sim={s} missing"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_probe_pairs_with_empty_indexed_records() {
        let an = analyzed(VALS_A, VALS_B);
        let idx = InvertedIndex::build(&an.a, 0, TokenSpace::Words);
        let mut scratch = ProbeScratch::default();
        let mut got = Vec::new();
        // B record 2 is "" — empty token set.
        idx.probe(an.attr_b(2, 0), SetMeasure::Jaccard, 0.5, &mut scratch, &mut got);
        got.sort_unstable();
        // A records 3 ("") and 4 (whitespace) have empty word sets.
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn null_probe_matches_nothing() {
        let an = analyzed(VALS_A, VALS_B);
        let idx = InvertedIndex::build(&an.a, 0, TokenSpace::Words);
        let mut scratch = ProbeScratch::default();
        let mut got = Vec::new();
        idx.probe(None, SetMeasure::Jaccard, 0.0, &mut scratch, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn exact_index_finds_equal_collapsed_strings() {
        let an = analyzed(
            &["data  mining", "databases", "data mining", ""],
            &["data mining", "nothing alike", ""],
        );
        let idx = ExactIndex::build(&an.a, 0);
        let mut out = Vec::new();
        // "data  mining" collapses to "data mining" — records 0 and 2.
        idx.matches(&an.a, "data mining", &mut out);
        assert_eq!(out, vec![0, 2]);
        out.clear();
        idx.matches(&an.a, "", &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        idx.matches(&an.a, "absent", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn probe_scratch_stamps_do_not_leak_across_probes() {
        let an = analyzed(VALS_A, VALS_B);
        let idx = InvertedIndex::build(&an.a, 0, TokenSpace::Words);
        let mut scratch = ProbeScratch::default();
        let mut first = Vec::new();
        idx.probe(an.attr_b(0, 0), SetMeasure::Jaccard, 0.1, &mut scratch, &mut first);
        let mut again = Vec::new();
        idx.probe(an.attr_b(0, 0), SetMeasure::Jaccard, 0.1, &mut scratch, &mut again);
        first.sort_unstable();
        again.sort_unstable();
        assert_eq!(first, again, "same probe must give the same candidates");
    }

    #[test]
    fn probe_scratch_wrap_clears_stale_stamps() {
        let an = analyzed(VALS_A, VALS_B);
        let idx = InvertedIndex::build(&an.b, 0, TokenSpace::Words);
        let probe = |scratch: &mut ProbeScratch, a: u32| {
            let mut got = Vec::new();
            idx.probe(an.attr_a(a, 0), SetMeasure::Jaccard, 0.1, scratch, &mut got);
            got.sort_unstable();
            got
        };
        // A long-lived scratch at the end of its stamp range, its array
        // full of stamps from earlier probes: the next probe wraps to 0,
        // and only the clear keeps the restarted stamps from matching.
        let mut worn =
            ProbeScratch { seen: vec![1; VALS_B.len()], stamp: u32::MAX, ..Default::default() };
        for a in 0..VALS_A.len() as u32 {
            let want = probe(&mut ProbeScratch::default(), a);
            assert_eq!(probe(&mut worn, a), want, "A record {a}");
        }
        assert!(!probe(&mut ProbeScratch::default(), 0).is_empty(), "the first probe has hits");
    }
}
