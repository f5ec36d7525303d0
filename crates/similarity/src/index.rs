//! Inverted-index probes for output-sensitive candidate generation.
//!
//! Blocking rules are conjunctions of threshold predicates over set
//! similarities (`jaccard_w <= t`, `cosine <= t`, …). A pair *survives* a
//! rule when at least one predicate fails, i.e. when some similarity is
//! strictly above its threshold — which is exactly a similarity-join
//! condition. This module turns the precomputed [`TableAnalysis`] token
//! ids (already sorted `u32` ranks over shared lexicographic pools) into
//! inverted indexes so those joins cost output-size work instead of an
//! `|A|·|B|` scan.
//!
//! Two index shapes:
//!
//! * [`InvertedIndex`] — CSR posting lists over one token space of one
//!   attribute, probed with PPJoin-family filters (length, prefix, and
//!   positional — see [`InvertedIndex::probe`]). One index serves any
//!   threshold because positions are stored for the *full* canonical
//!   token sequence and all pruning happens probe-side.
//! * [`ExactIndex`] — record ids sorted by collapsed normalized string,
//!   for equality joins (`exact_match > t` with `t < 1` means `== 1.0`).
//!
//! # Superset contract
//!
//! A probe must return every indexed record whose similarity with the
//! probe record is **strictly greater** than the threshold; returning
//! extra records is fine (callers re-verify candidates with the
//! bit-identical kernels of [`crate::analysis`]). All float bounds are
//! therefore slackened downward ([`min_overlap_above`]) so rounding can
//! only weaken a filter, never over-prune.
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
    /// Word ids carrying TF/IDF weight (`tfidf_ids`).
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
/// analysis arena (TF/IDF ids are their own slab segment, so even the
/// weighted space needs no extraction pass).
fn tokens_of<'a>(an: AttrView<'a>, space: TokenSpace) -> &'a [u32] {
    match space {
        TokenSpace::Words => an.word_ids(),
        TokenSpace::Grams => an.gram_ids(),
        TokenSpace::Soundex => an.soundex_codes(),
        TokenSpace::TfIdf => an.tfidf_ids(),
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
        let mut sorted: Vec<u32> = (0..table.len() as u32)
            .filter(|&r| table.attr(r, attr).is_some())
            .collect();
        sorted.sort_unstable_by(|&p, &q| {
            collapsed_of(table, p, attr)
                .cmp(collapsed_of(table, q, attr))
                .then(p.cmp(&q))
        });
        ExactIndex { attr, sorted }
    }

    /// Append to `out` (in ascending record order) every indexed record
    /// whose collapsed string equals `needle`. `table` must be the
    /// analysis the index was built from.
    pub fn matches(&self, table: &TableAnalysis, needle: &str, out: &mut Vec<u32>) {
        let lo = self
            .sorted
            .partition_point(|&r| collapsed_of(table, r, self.attr) < needle);
        for &r in &self.sorted[lo..] {
            if collapsed_of(table, r, self.attr) != needle {
                break;
            }
            out.push(r);
        }
    }
}

fn collapsed_of(table: &TableAnalysis, rec: u32, attr: usize) -> &str {
    table
        .attr(rec, attr)
        .expect("ExactIndex only holds records with analysis")
        .collapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{self, analyze_task};
    use crate::cosine::TfIdfModel;
    use crate::record::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn analyzed(vals_a: &[&str], vals_b: &[&str]) -> crate::analysis::TaskAnalysis {
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |vals: &[&str]| -> Vec<Vec<Value>> {
            vals.iter().map(|&s| vec![Value::Text(s.into())]).collect()
        };
        let a = Table::new("a", schema.clone(), rows(vals_a));
        let b = Table::new("b", schema, rows(vals_b));
        let docs = vals_a.iter().copied().chain(vals_b.iter().copied());
        let model = Some(TfIdfModel::fit(docs));
        analyze_task(&a, &b, &[model], exec::Threads::new(2))
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
