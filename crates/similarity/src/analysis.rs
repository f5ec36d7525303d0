//! Precomputed per-record analysis for the blocking hot path.
//!
//! Applying blocking rules to `A × B` (paper §4.3) evaluates set- and
//! vector-based similarity features on up to hundreds of millions of
//! pairs. The string-based kernels re-normalize, re-tokenize, and rebuild
//! hash sets from raw strings *per pair, per feature* — O(|A|·|B|) repeats
//! of work that only depends on one record at a time.
//!
//! This module hoists all of that per-record work into a [`TaskAnalysis`]
//! built once per task (in parallel through [`exec`]): for every record
//! and text attribute it precomputes the whitespace-collapsed normalized
//! string, the trimmed char sequence, interned word-token and 3-gram ids
//! as sorted `u32` runs, packed Soundex code sets, the sparse TF/IDF
//! weight vector with its precomputed L2 norm, and the interned char-id
//! sequences (raw, lowercased, and per-word-token) that the char-level
//! kernels in [`crate::charkernels`] consume. The per-pair set kernels
//! then reduce to allocation-free sorted-merge intersections and sparse
//! dot products, and the char-level measures to bit-parallel /
//! scratch-buffer sweeps with no per-pair allocation.
//!
//! # Arena layout
//!
//! The analysis material lives in a handful of contiguous per-table slabs
//! owned by [`TableAnalysis`] — one `u32` slab for every id sequence, an
//! `f64` slab for TF/IDF weights, an `i16` slab for the narrowed char
//! ids, a `char` slab for the prefix sequences, and one `String` slab for
//! the collapsed forms. Each `(record, attr)` cell is described by a
//! fixed-size header of offsets/lengths in a dense row-major array
//! (`record * n_attrs + attr`), and **all segments of one value are
//! adjacent** in the `u32` slab, so evaluating a pair's feature defs
//! reads sequential cache lines instead of chasing ~12 separately
//! allocated `Vec`s per value. [`AttrView`] is the borrowed accessor
//! type: a `Copy` pair of pointers whose methods return slices into the
//! slabs.
//!
//! # Build
//!
//! Each table is cut into one run of records per thread ("chunk"), and
//! every text value is normalized and tokenized exactly once:
//!
//! 1. **Normalize** (per chunk, in parallel): each value's collapsed
//!    form goes into one chunk buffer, padded as `"##" + collapsed +
//!    "##"`, next to its trimmed char sequence.
//! 2. **Tokenize** (per chunk, in parallel): words, padded 3-grams and
//!    raw values go into hash-cons tables as `&str` slices borrowed from
//!    that buffer and from the records, chars into a table with an ASCII
//!    fast path. Each distinct key gets a provisional id in first-seen
//!    order, and every occurrence is stored as that `u32`.
//! 3. **Rank** (serial): the distinct keys of all chunks are sorted once
//!    per pool, which maps each chunk's provisional ids to lexicographic
//!    ranks. Soundex codes are computed once per distinct word, and each
//!    attribute's IDF once per distinct word that occurs in it.
//! 4. **Fill** (per chunk, in parallel): the slabs are filled from the
//!    remapped ids into chunk-local slabs, then a serial stitch appends
//!    the chunks in record order and rebases their offsets.
//!
//! The final ids are ranks, which do not depend on provisional ids or on
//! the chunking, and every offset depends only on the records and their
//! order — so the slabs (not just the values read out of them) are
//! byte-identical at any thread count. Exactly the text-typed attributes
//! are analyzed; any other cell is missing, whatever its value.
//!
//! # Bit-identity contract
//!
//! Every kernel here must return the **exact same bits** as its
//! string-based reference implementation (`jaccard`, `cosine`, `exact`,
//! `phonetic`), including the empty-input and NaN conventions. Two design
//! rules make that possible:
//!
//! * **Interned ids are lexicographic ranks.** The token pool is sorted,
//!   so id order equals string order and the cosine merge-join visits
//!   matching tokens in the same sequence as the reference — float
//!   accumulation order is unchanged.
//! * **TF/IDF vectors store raw weights plus a precomputed norm** (not
//!   pre-divided weights), so the final `(dot / (na * nb)).clamp(..)`
//!   is computed by the same expression as the reference. A weight is
//!   `count as f64 * idf` and the norm `sqrt(Σ w²)` in rank order: the
//!   bits `TfIdfModel::weights` produces by adding `1.0` per occurrence
//!   and multiplying once.
//!
//! The property suite (`tests/analysis_equivalence.rs`) enforces the
//! contract with `f64::to_bits` equality on random inputs, and checks
//! slab-offset identity across thread counts. The workspace test
//! `analysis_golden.rs` pins digests of every view of the three
//! generated datasets at 1, 2 and 8 threads.

use crate::cosine::TfIdfModel;
use crate::record::{AttrType, Record, RecordId, Table};
use crate::tokenize::normalize;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

// Segment ranks of one value's runs inside the shared `u32` slab. All
// segments of a value are adjacent (segment `k` ends where `k + 1`
// starts), so a header stores N_SEGS + 1 boundaries, not lengths.
const SEG_WORDS: usize = 0; // distinct word-token ids, sorted
const SEG_GRAMS: usize = 1; // distinct 3-gram ids, sorted
const SEG_SOUNDEX: usize = 2; // packed soundex codes, sorted, deduped
const SEG_TFIDF_IDS: usize = 3; // TF/IDF token ids (weights in f64 slab)
const SEG_RAW_CHARS: usize = 4; // raw-value char ids, in order
const SEG_LOWER_CHARS: usize = 5; // lowercased-value char ids, in order
const SEG_WORD_CHARS: usize = 6; // flattened token char ids, in order
const SEG_WORD_ENDS: usize = 7; // exclusive end of token k in WORD_CHARS
const SEG_WORD_TOKEN_IDS: usize = 8; // pool id of token k, duplicates kept
const SEG_DEDUP_RANK: usize = 9; // rank into DEDUP_IDS of token k
const SEG_DEDUP_IDS: usize = 10; // distinct token ids, first-occurrence order
const SEG_DEDUP_FIRST: usize = 11; // first token index of DEDUP_IDS entry
const N_SEGS: usize = 12;

/// `value_id` sentinel marking a `(record, attr)` cell with no analysis
/// (null or non-text). Real ids are ranks into the distinct-value pool,
/// which a `u32`-indexed build can never fill to `u32::MAX` entries.
const MISSING: u32 = u32::MAX;

/// Fixed-size descriptor of one analyzed `(record, attr)` cell: offsets
/// and lengths into the owning [`TableAnalysis`] slabs. 88 bytes, stored
/// densely row-major — the only per-value metadata the arena keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AttrHeader {
    /// Segment boundaries in the `u32` slab: segment `k` spans
    /// `segs[k]..segs[k + 1]` (absolute slab offsets after stitching).
    segs: [u32; N_SEGS + 1],
    /// Start of the TF/IDF weight run in the `f64` slab (its length is
    /// the `SEG_TFIDF_IDS` segment length).
    f64_off: u32,
    /// Start of the narrowed lowercase run in the `i16` slab (length =
    /// `SEG_LOWER_CHARS` length; meaningful only when the table narrows).
    i16_off: u32,
    /// Prefix-char run in the `char` slab.
    char_off: u32,
    char_len: u32,
    /// Collapsed-string run in the string slab (byte offsets).
    str_off: u32,
    str_len: u32,
    /// Rank of the raw value in the shared distinct-value pool, or
    /// [`MISSING`]. Id equality is raw-string equality — the char
    /// kernels key their whole-value memo cache on it.
    value_id: u32,
    /// `sqrt(Σ w²)` over the TF/IDF weights, accumulated in id order
    /// (identical to the reference's per-call norm computation).
    tfidf_norm: f64,
}

const MISSING_HEADER: AttrHeader = AttrHeader {
    segs: [0; N_SEGS + 1],
    f64_off: 0,
    i16_off: 0,
    char_off: 0,
    char_len: 0,
    str_off: 0,
    str_len: 0,
    value_id: MISSING,
    tfidf_norm: 0.0,
};

/// Borrowed view of one non-null text attribute value — the arena
/// replacement for the retired owned-`Vec` `AttrAnalysis` struct. `Copy`
/// (two pointers); every accessor returns a slice into the owning
/// [`TableAnalysis`] slabs, so consumers read sequential cache lines.
#[derive(Clone, Copy)]
pub struct AttrView<'a> {
    table: &'a TableAnalysis,
    h: &'a AttrHeader,
}

impl<'a> AttrView<'a> {
    #[inline]
    fn seg(&self, k: usize) -> &'a [u32] {
        &self.table.u32s[self.h.segs[k] as usize..self.h.segs[k + 1] as usize]
    }

    /// Normalized string with whitespace runs collapsed to single spaces
    /// (the form `exact_match` / `containment` compare).
    #[inline]
    pub fn collapsed(&self) -> &'a str {
        &self.table.text[self.h.str_off as usize..(self.h.str_off + self.h.str_len) as usize]
    }

    /// Chars of the *uncollapsed* normalized string, trimmed — the form
    /// `prefix_similarity` walks (interior whitespace runs preserved).
    #[inline]
    pub fn prefix_chars(&self) -> &'a [char] {
        &self.table.chars[self.h.char_off as usize..(self.h.char_off + self.h.char_len) as usize]
    }

    /// Interned ids of the distinct word tokens, sorted ascending.
    #[inline]
    pub fn word_ids(&self) -> &'a [u32] {
        self.seg(SEG_WORDS)
    }

    /// Interned ids of the distinct padded character 3-grams, sorted.
    #[inline]
    pub fn gram_ids(&self) -> &'a [u32] {
        self.seg(SEG_GRAMS)
    }

    /// Packed 4-byte Soundex codes of the word tokens, sorted, deduped.
    #[inline]
    pub fn soundex_codes(&self) -> &'a [u32] {
        self.seg(SEG_SOUNDEX)
    }

    /// TF/IDF token ids in id order — which is lexicographic token
    /// order, matching the reference merge-join. Empty when the
    /// attribute has no fitted TF/IDF model.
    #[inline]
    pub fn tfidf_ids(&self) -> &'a [u32] {
        self.seg(SEG_TFIDF_IDS)
    }

    /// TF/IDF weights, parallel to [`Self::tfidf_ids`].
    #[inline]
    pub fn tfidf_weights(&self) -> &'a [f64] {
        let len = self.h.segs[SEG_TFIDF_IDS + 1] - self.h.segs[SEG_TFIDF_IDS];
        &self.table.f64s[self.h.f64_off as usize..(self.h.f64_off + len) as usize]
    }

    /// `sqrt(Σ w²)` over the TF/IDF weights (see [`AttrHeader`]).
    #[inline]
    pub fn tfidf_norm(&self) -> f64 {
        self.h.tfidf_norm
    }

    /// Interned char ids (ranks into the task's shared char pool) of the
    /// **raw** value's scalars — the sequence Levenshtein, Jaro, and
    /// Jaro-Winkler walk. Ids are dense `0..distinct_chars`, so the
    /// bit-parallel kernels can use direct-indexed scratch tables; id
    /// equality is char equality (all char kernels need only equality).
    #[inline]
    pub fn raw_char_ids(&self) -> &'a [u32] {
        self.seg(SEG_RAW_CHARS)
    }

    /// Interned char ids of `str::to_lowercase` of the raw value (the
    /// str-level mapping, so context rules like final sigma match the
    /// reference exactly) — the sequence Smith-Waterman aligns.
    #[inline]
    pub fn lower_char_ids(&self) -> &'a [u32] {
        self.seg(SEG_LOWER_CHARS)
    }

    /// [`Self::lower_char_ids`] narrowed to `i16`, populated only when
    /// the shared char pool fits (`distinct_chars <= i16::MAX`, true for
    /// any real dataset). Smith-Waterman's inner loops compare and
    /// accumulate in 16-bit cells, doubling the auto-vectorized lane
    /// count; empty means the kernel falls back to the 32-bit path.
    #[inline]
    pub fn lower_char_i16(&self) -> &'a [i16] {
        if !self.table.narrow {
            return &[];
        }
        let len = self.h.segs[SEG_LOWER_CHARS + 1] - self.h.segs[SEG_LOWER_CHARS];
        &self.table.i16s[self.h.i16_off as usize..(self.h.i16_off + len) as usize]
    }

    /// Flattened interned char ids of the word tokens in occurrence
    /// order, duplicates kept — Monge-Elkan's inner strings.
    #[inline]
    pub fn word_char_ids(&self) -> &'a [u32] {
        self.seg(SEG_WORD_CHARS)
    }

    /// End offset (exclusive) into [`Self::word_char_ids`] of each word
    /// token: token `k` spans `word_ends[k-1]..word_ends[k]` (`0` for
    /// `k = 0`). Offsets are value-local.
    #[inline]
    pub fn word_ends(&self) -> &'a [u32] {
        self.seg(SEG_WORD_ENDS)
    }

    /// Interned pool id of each word token in occurrence order (parallel
    /// to [`Self::word_ends`], duplicates kept). Id equality is token
    /// equality — Monge-Elkan uses it to dedup inner comparisons.
    #[inline]
    pub fn word_token_ids(&self) -> &'a [u32] {
        self.seg(SEG_WORD_TOKEN_IDS)
    }

    /// Distinct entries of [`Self::word_token_ids`] in first-occurrence
    /// order (parallel to [`Self::word_dedup_first`]). Monge-Elkan reads
    /// these instead of re-deduplicating the token list on every pair.
    #[inline]
    pub fn word_dedup_ids(&self) -> &'a [u32] {
        self.seg(SEG_DEDUP_IDS)
    }

    /// Position of the first occurrence of each [`Self::word_dedup_ids`]
    /// entry, i.e. the representative token index compared for that id.
    #[inline]
    pub fn word_dedup_first(&self) -> &'a [u32] {
        self.seg(SEG_DEDUP_FIRST)
    }

    /// Rank into [`Self::word_dedup_ids`] of each token position
    /// (parallel to [`Self::word_token_ids`]), making per-token memo
    /// lookups O(1).
    #[inline]
    pub fn word_dedup_rank(&self) -> &'a [u32] {
        self.seg(SEG_DEDUP_RANK)
    }

    /// Rank of the **raw** value string in the task's shared sorted
    /// distinct-value pool (see [`AttrHeader::value_id`]).
    #[inline]
    pub fn value_id(&self) -> u32 {
        self.h.value_id
    }

    /// Char ids of word token `k` (see [`Self::word_ends`]).
    #[inline]
    pub fn word_token(&self, k: usize) -> &'a [u32] {
        let ends = self.word_ends();
        let base = self.h.segs[SEG_WORD_CHARS] as usize;
        let lo = if k == 0 { 0 } else { ends[k - 1] as usize };
        &self.table.u32s[base + lo..base + ends[k] as usize]
    }

    /// Number of word tokens (duplicates included).
    #[inline]
    pub fn n_word_tokens(&self) -> usize {
        self.word_ends().len()
    }
}

impl PartialEq for AttrView<'_> {
    /// Value equality of everything a view exposes (floats bitwise) —
    /// views into different arenas compare equal iff every derived form
    /// matches, which is what the determinism tests assert.
    fn eq(&self, other: &Self) -> bool {
        self.value_id() == other.value_id()
            && self.tfidf_norm().to_bits() == other.tfidf_norm().to_bits()
            && self.collapsed() == other.collapsed()
            && self.prefix_chars() == other.prefix_chars()
            && (0..N_SEGS).all(|k| self.seg(k) == other.seg(k))
            && self.lower_char_i16() == other.lower_char_i16()
            && self
                .tfidf_weights()
                .iter()
                .map(|w| w.to_bits())
                .eq(other.tfidf_weights().iter().map(|w| w.to_bits()))
    }
}

impl std::fmt::Debug for AttrView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttrView")
            .field("value_id", &self.value_id())
            .field("collapsed", &self.collapsed())
            .field("word_ids", &self.word_ids())
            .field("gram_ids", &self.gram_ids())
            .field("raw_char_ids", &self.raw_char_ids())
            .finish_non_exhaustive()
    }
}

/// Size and interning statistics of a built analysis (for perf logs and
/// the memory telemetry surfaced through run reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Records analyzed across both tables.
    pub records: usize,
    /// Non-null text values analyzed.
    pub values: usize,
    /// Distinct word tokens interned.
    pub distinct_words: usize,
    /// Distinct 3-grams interned.
    pub distinct_grams: usize,
    /// Distinct chars interned (raw, lowercased, and token scalars of
    /// both tables). Bounds every char id; the bit-parallel kernels size
    /// their direct-indexed scratch tables off this.
    pub distinct_chars: usize,
    /// Distinct raw text values interned across both tables — the pool
    /// behind [`AttrView::value_id`].
    pub distinct_values: usize,
    /// Bytes of the `u32` id slabs (both tables): every token/gram/
    /// soundex/char-id/offset sequence.
    pub id_bytes: usize,
    /// Bytes of the `f64` TF/IDF weight slabs.
    pub weight_bytes: usize,
    /// Bytes of the `i16` narrowed-char slabs.
    pub narrow_bytes: usize,
    /// Bytes of the `char` prefix slabs.
    pub char_bytes: usize,
    /// Bytes of the collapsed-string slabs.
    pub text_bytes: usize,
    /// Bytes of the dense row-major header arrays.
    pub header_bytes: usize,
    /// Total resident bytes of the arena (sum of the six fields above).
    pub resident_bytes: usize,
    /// Modeled resident bytes of the retired owned-`Vec` layout (15 heap
    /// containers + scalars per value, same payloads) — kept so the
    /// before/after of the arena repack stays observable in perf logs.
    pub owned_layout_bytes: usize,
}

/// Per-record analyses of one table, arena-packed: a dense row-major
/// header array over contiguous typed slabs (see the module docs).
/// `PartialEq` compares the raw slabs — equality means byte-identical
/// layout, which the thread-count determinism tests assert directly.
#[derive(Debug, PartialEq)]
pub struct TableAnalysis {
    n_records: usize,
    n_attrs: usize,
    /// True when `distinct_chars <= i16::MAX` and the `i16` slab holds
    /// the narrowed lowercase runs.
    narrow: bool,
    /// `headers[record * n_attrs + attr]`; `value_id == MISSING` marks
    /// null / non-text cells.
    headers: Vec<AttrHeader>,
    u32s: Vec<u32>,
    f64s: Vec<f64>,
    i16s: Vec<i16>,
    chars: Vec<char>,
    text: String,
}

impl TableAnalysis {
    /// The analysis of one attribute of one record, if it is text.
    #[inline]
    pub fn attr(&self, record: RecordId, attr: usize) -> Option<AttrView<'_>> {
        let h = &self.headers[record as usize * self.n_attrs + attr];
        if h.value_id == MISSING {
            None
        } else {
            Some(AttrView { table: self, h })
        }
    }

    /// Number of analyzed records.
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True when no records were analyzed.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Resident bytes of this table's slabs + headers.
    fn tally(&self, stats: &mut AnalysisStats) {
        stats.id_bytes += self.u32s.len() * 4;
        stats.weight_bytes += self.f64s.len() * 8;
        stats.narrow_bytes += self.i16s.len() * 2;
        stats.char_bytes += self.chars.len() * std::mem::size_of::<char>();
        stats.text_bytes += self.text.len();
        stats.header_bytes += self.headers.len() * std::mem::size_of::<AttrHeader>();
        for h in &self.headers {
            if h.value_id == MISSING {
                continue;
            }
            stats.values += 1;
            stats.owned_layout_bytes += owned_layout_bytes(h, self.narrow);
        }
    }
}

/// Modeled bytes of one value under the retired per-value owned-`Vec`
/// layout: a 376-byte struct (15 `Vec`/`String` headers at 24 bytes plus
/// the scalar fields) and the same payloads, with TF/IDF stored as
/// 16-byte `(u32, f64)` pairs rather than split parallel runs.
fn owned_layout_bytes(h: &AttrHeader, narrow: bool) -> usize {
    let u32_total = (h.segs[N_SEGS] - h.segs[0]) as usize;
    let tfidf_len = (h.segs[SEG_TFIDF_IDS + 1] - h.segs[SEG_TFIDF_IDS]) as usize;
    let lower_len = (h.segs[SEG_LOWER_CHARS + 1] - h.segs[SEG_LOWER_CHARS]) as usize;
    376 + h.str_len as usize
        + h.char_len as usize * std::mem::size_of::<char>()
        + (u32_total - tfidf_len) * 4
        + tfidf_len * 16
        + if narrow { lower_len * 2 } else { 0 }
}

/// The analysis layer of one EM task: both tables, analyzed against a
/// shared intern pool (so ids are comparable across tables).
#[derive(Debug)]
pub struct TaskAnalysis {
    /// Analyses of table A's records.
    pub a: TableAnalysis,
    /// Analyses of table B's records.
    pub b: TableAnalysis,
    /// Build statistics.
    pub stats: AnalysisStats,
    /// Process-unique id of this analysis build. `value_id` / word ids
    /// are ranks into *this task's* pools, so cross-task caches (the char
    /// kernels' per-thread result cache) key on the generation to never
    /// serve an id interned by a different task. The counter only
    /// disambiguates cache entries — no output depends on its value.
    pub generation: u64,
}

impl TaskAnalysis {
    /// Analysis of attribute `attr` of record `rec` in table A.
    #[inline]
    pub fn attr_a(&self, rec: RecordId, attr: usize) -> Option<AttrView<'_>> {
        self.a.attr(rec, attr)
    }

    /// Analysis of attribute `attr` of record `rec` in table B.
    #[inline]
    pub fn attr_b(&self, rec: RecordId, attr: usize) -> Option<AttrView<'_>> {
        self.b.attr(rec, attr)
    }
}

/// Pack a 4-character ASCII Soundex code into a `u32` whose numeric order
/// equals the code's lexicographic order (big-endian byte packing).
fn pack_soundex(code: &str) -> u32 {
    let b = code.as_bytes();
    debug_assert_eq!(b.len(), 4, "soundex codes are 4 ASCII chars");
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Narrow a slab cursor to the `u32` offsets the headers store. The
/// guard fires long after any realistic dataset (a 4-billion-entry id
/// slab is 16 GiB per table).
fn off32(n: usize) -> u32 {
    u32::try_from(n).expect("analysis slab exceeds u32 offsets")
}

/// Hash-cons table: every distinct key gets a provisional id in
/// first-seen order. The map is only probed, never iterated (`keys`
/// holds the first-seen order), so hash order cannot reach any output.
struct Interner<K> {
    ids: HashMap<K, u32>,
    keys: Vec<K>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner { ids: HashMap::new(), keys: Vec::new() }
    }
}

impl<K: Hash + Eq + Copy> Interner<K> {
    fn id(&mut self, key: K) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }
}

/// [`Interner`] for chars with a direct-indexed ASCII fast path: char
/// occurrences (raw, lowercased and token runs of every value) outnumber
/// word and gram occurrences several times over.
struct CharInterner {
    ascii: [u32; 128],
    other: HashMap<char, u32>,
    keys: Vec<char>,
}

impl Default for CharInterner {
    fn default() -> Self {
        CharInterner { ascii: [MISSING; 128], other: HashMap::new(), keys: Vec::new() }
    }
}

impl CharInterner {
    fn id(&mut self, c: char) -> u32 {
        let slot = match self.ascii.get_mut(c as usize) {
            Some(slot) => slot,
            None => self.other.entry(c).or_insert(MISSING),
        };
        if *slot == MISSING {
            *slot = self.keys.len() as u32;
            self.keys.push(c);
        }
        *slot
    }
}

/// Lexicographic ranks of chunk-local pools: returns the distinct keys of
/// all chunks, sorted, and `ranks[c][id]` = the rank of chunk `c`'s key
/// `id` among them. Equal keys in different chunks share a rank, so the
/// ranks depend only on the set of keys, never on how the records were
/// chunked or in which order keys were first seen.
fn rank_pools<'p, K: Ord + Copy + 'p>(
    pools: impl Iterator<Item = &'p [K]>,
) -> (Vec<K>, Vec<Vec<u32>>) {
    let mut all: Vec<(K, u32, u32)> = Vec::new();
    let mut ranks: Vec<Vec<u32>> = Vec::new();
    for (c, keys) in pools.enumerate() {
        all.extend(keys.iter().enumerate().map(|(id, &k)| (k, c as u32, id as u32)));
        ranks.push(vec![0; keys.len()]);
    }
    all.sort_unstable_by_key(|x| x.0);
    let mut sorted: Vec<K> = Vec::new();
    for (k, c, id) in all {
        if sorted.last() != Some(&k) {
            sorted.push(k);
        }
        ranks[c as usize][id as usize] = (sorted.len() - 1) as u32;
    }
    (sorted, ranks)
}

/// The cells that get an analysis, in row-major order: `(record *
/// n_attrs + attr, value)` for every non-null text value of a text-typed
/// attribute. Every build stage walks cells through this one iterator,
/// so cell `k` of a chunk means the same value in each of them.
fn text_cells<'t>(
    records: &'t [Record],
    is_text: &'t [bool],
) -> impl Iterator<Item = (usize, &'t str)> + 't {
    let n_attrs = is_text.len();
    records.iter().enumerate().flat_map(move |(ri, r)| {
        r.values.iter().enumerate().filter_map(move |(ai, v)| match v.as_text() {
            Some(s) if is_text[ai] => Some((ri * n_attrs + ai, s)),
            _ => None,
        })
    })
}

/// Stage 1 of the build for one chunk: every text cell normalized once.
struct Normalized {
    /// Each cell's collapsed form padded as `"##" + collapsed + "##"`,
    /// back to back: word tokens and padded 3-grams are borrowed slices
    /// of this one buffer. Cell `k` spans `bounds[k]..bounds[k + 1]`.
    padded: String,
    bounds: Vec<u32>,
    /// Each cell's trimmed, uncollapsed normalized chars (the prefix
    /// kernel's input), back to back, spanning `prefix_bounds[k]..[k + 1]`.
    prefix: Vec<char>,
    prefix_bounds: Vec<u32>,
}

/// Normalize every text cell of `records` once, keeping both forms the
/// kernels read: collapsed (`split_whitespace`, single spaces) and
/// trimmed.
fn normalize_chunk(records: &[Record], is_text: &[bool]) -> Normalized {
    let mut n = Normalized {
        padded: String::new(),
        bounds: vec![0],
        prefix: Vec::new(),
        prefix_bounds: vec![0],
    };
    for (_, s) in text_cells(records, is_text) {
        let norm = normalize(s);
        n.prefix.extend(norm.trim().chars());
        n.prefix_bounds.push(off32(n.prefix.len()));
        n.padded.push_str("##");
        for (i, w) in norm.split_whitespace().enumerate() {
            if i > 0 {
                n.padded.push(' ');
            }
            n.padded.push_str(w);
        }
        n.padded.push_str("##");
        n.bounds.push(off32(n.padded.len()));
    }
    n
}

/// One tokenized cell: its header slot and the extent of its runs in the
/// [`Tokenized`] buffers.
struct Cell {
    /// `record * n_attrs + attr`, chunk-local.
    slot: usize,
    /// Provisional value id.
    value: u32,
    /// Raw, lowercased and word-token char runs in `cids`:
    /// `chars[0]..chars[1]`, `chars[1]..chars[2]`, `chars[2]..chars[3]`.
    chars: [u32; 4],
    /// Word-id run in `wids`, and the parallel word-end run in `ends`.
    words: [u32; 2],
    /// Gram-id run in `gids` (occurrence order, duplicates kept).
    grams: [u32; 2],
}

/// Stage 2 of the build for one chunk: every cell tokenized once against
/// chunk-local hash-cons tables. Ids are provisional until ranked.
#[derive(Default)]
struct Tokenized<'t> {
    words: Interner<&'t str>,
    grams: Interner<&'t str>,
    values: Interner<&'t str>,
    chars: CharInterner,
    cells: Vec<Cell>,
    /// Provisional char ids of every cell's three char runs.
    cids: Vec<u32>,
    /// Provisional word ids, in occurrence order.
    wids: Vec<u32>,
    /// End (exclusive, value-local) of each token's chars in the cell's
    /// word-token char run, parallel to `wids`.
    ends: Vec<u32>,
    /// Provisional gram ids, in occurrence order.
    gids: Vec<u32>,
}

fn tokenize_chunk<'t>(
    records: &'t [Record],
    is_text: &'t [bool],
    n: &'t Normalized,
) -> Tokenized<'t> {
    let mut t = Tokenized::default();
    let mut char_starts: Vec<usize> = Vec::new();
    for (k, (slot, s)) in text_cells(records, is_text).enumerate() {
        let padded = &n.padded[n.bounds[k] as usize..n.bounds[k + 1] as usize];
        let collapsed = &padded[2..padded.len() - 2];
        let c0 = off32(t.cids.len());
        t.cids.extend(s.chars().map(|c| t.chars.id(c)));
        let c1 = off32(t.cids.len());
        // `str::to_lowercase`, not the char-wise mapping of `normalize`:
        // its context rules (Greek final sigma) are what Smith-Waterman's
        // reference aligns.
        t.cids.extend(s.to_lowercase().chars().map(|c| t.chars.id(c)));
        let c2 = off32(t.cids.len());
        let w0 = off32(t.wids.len());
        let g0 = off32(t.gids.len());
        if !collapsed.is_empty() {
            for w in collapsed.split(' ') {
                t.cids.extend(w.chars().map(|c| t.chars.id(c)));
                t.ends.push(off32(t.cids.len()) - c2);
                t.wids.push(t.words.id(w));
            }
            // Padded 3-grams are windows of three chars, not bytes.
            char_starts.clear();
            char_starts.extend(padded.char_indices().map(|(i, _)| i));
            char_starts.push(padded.len());
            for w in char_starts.windows(4) {
                t.gids.push(t.grams.id(&padded[w[0]..w[3]]));
            }
        }
        t.cells.push(Cell {
            slot,
            value: t.values.id(s),
            chars: [c0, c1, c2, off32(t.cids.len())],
            words: [w0, off32(t.wids.len())],
            grams: [g0, off32(t.gids.len())],
        });
    }
    t
}

/// Stage 3 of the build: the pools of every chunk ranked together, plus
/// the per-distinct-word material every cell reads.
struct Ranked {
    /// The `distinct_*` pool sizes; every other field is zero.
    stats: AnalysisStats,
    /// Per pool, `[chunk][provisional id]` → rank.
    word_rank: Vec<Vec<u32>>,
    gram_rank: Vec<Vec<u32>>,
    char_rank: Vec<Vec<u32>>,
    value_rank: Vec<Vec<u32>>,
    /// Packed Soundex code per word rank, computed once per distinct word.
    soundex: Vec<Option<u32>>,
    /// One entry per attribute: `idf[attr][word rank]` for text-typed
    /// attributes with a TF/IDF model, computed once per (attribute,
    /// distinct word) that occurs in it.
    idf: Vec<Option<Vec<f64>>>,
    /// The char pool fits in `i16` (see [`TableAnalysis`]).
    narrow: bool,
}

impl Ranked {
    fn new(
        chunks: &[Tokenized<'_>],
        tfidf: &[Option<TfIdfModel>],
        is_text: &[bool],
        threads: exec::Threads,
    ) -> Ranked {
        let (words, word_rank) = rank_pools(chunks.iter().map(|t| t.words.keys.as_slice()));
        let (grams, gram_rank) = rank_pools(chunks.iter().map(|t| t.grams.keys.as_slice()));
        let (chars, char_rank) = rank_pools(chunks.iter().map(|t| t.chars.keys.as_slice()));
        let (values, value_rank) = rank_pools(chunks.iter().map(|t| t.values.keys.as_slice()));
        let soundex = exec::par_map(threads, &words, |w| {
            crate::phonetic::soundex(w).map(|c| pack_soundex(&c))
        });
        let idf = exec::indexed_par_map(threads, is_text.len(), |ai| {
            let (true, Some(model)) = (is_text[ai], tfidf[ai].as_ref()) else {
                return None;
            };
            // NaN marks words absent from this attribute (an idf is
            // always finite).
            let mut idf = vec![f64::NAN; words.len()];
            for (t, ranks) in chunks.iter().zip(&word_rank) {
                for cell in t.cells.iter().filter(|c| c.slot % is_text.len() == ai) {
                    for &w in &t.wids[cell.words[0] as usize..cell.words[1] as usize] {
                        let r = ranks[w as usize] as usize;
                        if idf[r].is_nan() {
                            idf[r] = model.idf(words[r]);
                        }
                    }
                }
            }
            Some(idf)
        });
        Ranked {
            stats: AnalysisStats {
                distinct_words: words.len(),
                distinct_grams: grams.len(),
                distinct_chars: chars.len(),
                distinct_values: values.len(),
                ..Default::default()
            },
            narrow: chars.len() <= i16::MAX as usize,
            word_rank,
            gram_rank,
            char_rank,
            value_rank,
            soundex,
            idf,
        }
    }
}

/// Sort `v[start..]` and drop its duplicates, leaving `counts[i]` = the
/// multiplicity of the `i`-th distinct entry.
fn sort_dedup_from(v: &mut Vec<u32>, start: usize, counts: &mut Vec<u32>) {
    v[start..].sort_unstable();
    counts.clear();
    let mut end = start;
    for i in start..v.len() {
        if end > start && v[i] == v[end - 1] {
            let last = counts.len() - 1;
            counts[last] += 1;
        } else {
            v[end] = v[i];
            end += 1;
            counts.push(1);
        }
    }
    v.truncate(end);
}

/// Record-local slab chunk: one parallel worker fills one of these per
/// chunk of records; the serial stitch concatenates them in record order.
#[derive(Default)]
struct Slabs {
    u32s: Vec<u32>,
    f64s: Vec<f64>,
    i16s: Vec<i16>,
    chars: Vec<char>,
    text: String,
}

/// Stage 4 for one chunk: fill record-local slabs from the ranked ids,
/// returning one header per `(record, attr)` slot with chunk-local
/// offsets (rebased during the stitch).
fn fill_chunk(
    n_records: usize,
    c: usize,
    n: &Normalized,
    t: &Tokenized<'_>,
    ranked: &Ranked,
) -> (Vec<AttrHeader>, Slabs) {
    let n_attrs = ranked.idf.len();
    let (word, gram) = (&ranked.word_rank[c], &ranked.gram_rank[c]);
    let (chr, value) = (&ranked.char_rank[c], &ranked.value_rank[c]);
    let mut headers = vec![MISSING_HEADER; n_records * n_attrs];
    let mut out = Slabs::default();
    // Per-value scratch, reused across the chunk's cells.
    let (mut counts, mut dedup_ids, mut dedup_first) = (Vec::new(), Vec::new(), Vec::new());
    for (k, cell) in t.cells.iter().enumerate() {
        let attr = cell.slot % n_attrs;
        let u = &mut out.u32s;
        let mut segs = [0u32; N_SEGS + 1];
        let wids = &t.wids[cell.words[0] as usize..cell.words[1] as usize];

        segs[SEG_WORDS] = off32(u.len());
        let words_start = u.len();
        u.extend(wids.iter().map(|&w| word[w as usize]));
        sort_dedup_from(u, words_start, &mut counts);
        let words_end = u.len();

        // TF/IDF: run-length term counts over the sorted word ranks times
        // the attribute's idf — the same bits as `TfIdfModel::weights`,
        // which adds 1.0 per occurrence and multiplies once.
        let f64_off = off32(out.f64s.len());
        let idf = ranked.idf[attr].as_ref();
        let tfidf_norm = match idf {
            Some(idf) => {
                out.f64s.extend(
                    u[words_start..words_end]
                        .iter()
                        .zip(&counts)
                        .map(|(&r, &n)| f64::from(n) * idf[r as usize]),
                );
                out.f64s[f64_off as usize..].iter().map(|x| x * x).sum::<f64>().sqrt()
            }
            None => 0.0,
        };

        segs[SEG_GRAMS] = off32(u.len());
        let start = u.len();
        let gids = &t.gids[cell.grams[0] as usize..cell.grams[1] as usize];
        u.extend(gids.iter().map(|&g| gram[g as usize]));
        sort_dedup_from(u, start, &mut counts);

        segs[SEG_SOUNDEX] = off32(u.len());
        let start = u.len();
        for i in words_start..words_end {
            if let Some(code) = ranked.soundex[u[i] as usize] {
                u.push(code);
            }
        }
        sort_dedup_from(u, start, &mut counts);

        segs[SEG_TFIDF_IDS] = off32(u.len());
        if idf.is_some() {
            u.extend_from_within(words_start..words_end);
        }

        let char_runs = [SEG_RAW_CHARS, SEG_LOWER_CHARS, SEG_WORD_CHARS];
        for (run, seg) in char_runs.into_iter().enumerate() {
            segs[seg] = off32(u.len());
            let ids = &t.cids[cell.chars[run] as usize..cell.chars[run + 1] as usize];
            u.extend(ids.iter().map(|&ch| chr[ch as usize]));
        }

        segs[SEG_WORD_ENDS] = off32(u.len());
        u.extend_from_slice(&t.ends[cell.words[0] as usize..cell.words[1] as usize]);

        segs[SEG_WORD_TOKEN_IDS] = off32(u.len());
        let tokens_start = u.len();
        u.extend(wids.iter().map(|&w| word[w as usize]));

        // First-occurrence dedup of the token ids, hoisted out of the
        // Monge-Elkan inner loop (values hold few enough tokens that the
        // quadratic scan is negligible one-time work).
        segs[SEG_DEDUP_RANK] = off32(u.len());
        dedup_ids.clear();
        dedup_first.clear();
        for pos in 0..wids.len() {
            let id = u[tokens_start + pos];
            let rank = match dedup_ids.iter().position(|&x| x == id) {
                Some(r) => r,
                None => {
                    dedup_ids.push(id);
                    dedup_first.push(pos as u32);
                    dedup_ids.len() - 1
                }
            };
            u.push(rank as u32);
        }
        segs[SEG_DEDUP_IDS] = off32(u.len());
        u.extend_from_slice(&dedup_ids);
        segs[SEG_DEDUP_FIRST] = off32(u.len());
        u.extend_from_slice(&dedup_first);
        segs[N_SEGS] = off32(u.len());

        let i16_off = off32(out.i16s.len());
        if ranked.narrow {
            let lower = &u[segs[SEG_LOWER_CHARS] as usize..segs[SEG_LOWER_CHARS + 1] as usize];
            out.i16s.extend(lower.iter().map(|&ch| ch as i16));
        }
        let char_off = off32(out.chars.len());
        let prefix = &n.prefix[n.prefix_bounds[k] as usize..n.prefix_bounds[k + 1] as usize];
        out.chars.extend_from_slice(prefix);
        let str_off = off32(out.text.len());
        let collapsed = &n.padded[n.bounds[k] as usize + 2..n.bounds[k + 1] as usize - 2];
        out.text.push_str(collapsed);

        headers[cell.slot] = AttrHeader {
            segs,
            f64_off,
            i16_off,
            char_off,
            char_len: off32(out.chars.len()) - char_off,
            str_off,
            str_len: off32(out.text.len()) - str_off,
            value_id: value[cell.value as usize],
            tfidf_norm,
        };
    }
    (headers, out)
}

/// Append `src` to `dst`, moving instead of copying when `dst` is empty
/// (the whole table is one chunk at one thread).
fn append<T: Copy>(dst: &mut Vec<T>, src: Vec<T>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend_from_slice(&src);
    }
}

/// Build the analysis layer for a task's two tables.
///
/// `tfidf` is the vectorizer's per-attribute model list (`None` entries
/// for attributes without a corpus model). Exactly the text-typed
/// attributes are analyzed; every other cell is missing. The pools are
/// shared across both tables and all text attributes, and ids are
/// lexicographic ranks — see the module docs for the stages and why the
/// ranks matter.
pub fn analyze_task(
    a: &Table,
    b: &Table,
    tfidf: &[Option<TfIdfModel>],
    threads: exec::Threads,
) -> TaskAnalysis {
    let is_text: Vec<bool> = a.schema.attrs.iter().map(|at| at.ty == AttrType::Text).collect();
    let n_attrs = is_text.len();
    // One run of records per thread and table. Chunking never shows in
    // the output: ids are global ranks, and the stitch appends chunks in
    // record order.
    let chunks: Vec<(usize, &[Record])> = [a, b]
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            let per = t.len().div_ceil(threads.get()).max(1);
            t.records.chunks(per).map(move |rs| (ti, rs))
        })
        .collect();
    let normalized: Vec<Normalized> =
        exec::par_map(threads, &chunks, |&(_, rs)| normalize_chunk(rs, &is_text));
    let tokenized: Vec<Tokenized<'_>> = exec::indexed_par_map(threads, chunks.len(), |c| {
        tokenize_chunk(chunks[c].1, &is_text, &normalized[c])
    });
    let ranked = Ranked::new(&tokenized, tfidf, &is_text, threads);
    let filled = exec::indexed_par_map(threads, chunks.len(), |c| {
        fill_chunk(chunks[c].1.len(), c, &normalized[c], &tokenized[c], &ranked)
    });
    drop(tokenized);
    drop(normalized);

    let mut tables: [TableAnalysis; 2] = [a, b].map(|t| TableAnalysis {
        n_records: t.len(),
        n_attrs,
        narrow: ranked.narrow,
        headers: Vec::with_capacity(t.len() * n_attrs),
        u32s: Vec::new(),
        f64s: Vec::new(),
        i16s: Vec::new(),
        chars: Vec::new(),
        text: String::new(),
    });
    // Serial stitch: chunk offsets are rebased by the running slab
    // lengths, so every offset depends only on the records and their
    // order — the slabs are byte-identical at any thread count.
    for ((ti, _), (headers, slabs)) in chunks.iter().zip(filled) {
        let table = &mut tables[*ti];
        let (bu, bf, bi, bc, bs) = (
            off32(table.u32s.len()),
            off32(table.f64s.len()),
            off32(table.i16s.len()),
            off32(table.chars.len()),
            off32(table.text.len()),
        );
        for mut h in headers {
            if h.value_id != MISSING {
                for s in &mut h.segs {
                    *s += bu;
                }
                h.f64_off += bf;
                h.i16_off += bi;
                h.char_off += bc;
                h.str_off += bs;
            }
            table.headers.push(h);
        }
        append(&mut table.u32s, slabs.u32s);
        append(&mut table.f64s, slabs.f64s);
        append(&mut table.i16s, slabs.i16s);
        append(&mut table.chars, slabs.chars);
        if table.text.is_empty() {
            table.text = slabs.text;
        } else {
            table.text.push_str(&slabs.text);
        }
    }
    let [ta, tb] = tables;

    let mut stats = AnalysisStats { records: a.len() + b.len(), ..ranked.stats };
    for t in [&ta, &tb] {
        t.tally(&mut stats);
    }
    stats.resident_bytes = stats.id_bytes
        + stats.weight_bytes
        + stats.narrow_bytes
        + stats.char_bytes
        + stats.text_bytes
        + stats.header_bytes;

    static TASK_GENERATION: AtomicU64 = AtomicU64::new(1);
    let generation = TASK_GENERATION.fetch_add(1, AtomicOrdering::Relaxed);
    TaskAnalysis { a: ta, b: tb, stats, generation }
}

// ---- allocation-free kernels over precomputed analyses -------------------

/// `|a ∩ b|` of two sorted, deduped id slices (linear merge).
#[inline]
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    // Branchless two-pointer merge: on random id data the three-way
    // `match` mispredicts constantly; conditional increments keep the
    // loop body branch-free (the bound check is the only branch).
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// Jaccard over sorted id sets; mirrors `jaccard::jaccard_sets` exactly
/// (two empty sets → 1.0).
#[inline]
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    let inter = intersect_count(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Dice over sorted id sets; mirrors `jaccard::dice_sets` exactly.
#[inline]
pub fn dice_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.len() + b.len() == 0 {
        return 1.0;
    }
    let inter = intersect_count(a, b);
    2.0 * inter as f64 / (a.len() + b.len()) as f64
}

/// Overlap coefficient over sorted id sets; mirrors
/// `jaccard::overlap_sets` exactly (one empty set → 0.0 unless both are).
#[inline]
pub fn overlap_ids(a: &[u32], b: &[u32]) -> f64 {
    let min = a.len().min(b.len());
    if min == 0 {
        return if a.len() == b.len() { 1.0 } else { 0.0 };
    }
    intersect_count(a, b) as f64 / min as f64
}

/// Soundex-code-set similarity; mirrors `phonetic::soundex_similarity`
/// (both code sets empty → 1.0, exactly one empty → 0.0, else Jaccard).
#[inline]
pub fn soundex_pre(a: AttrView<'_>, b: AttrView<'_>) -> f64 {
    let (ca, cb) = (a.soundex_codes(), b.soundex_codes());
    if ca.is_empty() && cb.is_empty() {
        return 1.0;
    }
    if ca.is_empty() || cb.is_empty() {
        return 0.0;
    }
    let inter = intersect_count(ca, cb);
    let union = ca.len() + cb.len() - inter;
    inter as f64 / union as f64
}

/// TF/IDF cosine over precomputed sparse vectors; mirrors
/// `TfIdfModel::cosine` bit-for-bit (see the module docs). Ids and
/// weights are parallel runs, so the merge walks two dense `u32` lanes
/// and touches the `f64` lane only on hits.
#[inline]
pub fn cosine_pre(a: AttrView<'_>, b: AttrView<'_>) -> f64 {
    let (ia, ib) = (a.tfidf_ids(), b.tfidf_ids());
    if ia.is_empty() && ib.is_empty() {
        return 1.0;
    }
    if ia.is_empty() || ib.is_empty() {
        return 0.0;
    }
    let (wa, wb) = (a.tfidf_weights(), b.tfidf_weights());
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    // Pointer advances are branchless (see intersect_count); the add
    // stays guarded so the accumulation order and terms are exactly the
    // reference's.
    while i < ia.len() && j < ib.len() {
        let (ka, kb) = (ia[i], ib[j]);
        if ka == kb {
            dot += wa[i] * wb[j];
        }
        i += usize::from(ka <= kb);
        j += usize::from(kb <= ka);
    }
    (dot / (a.tfidf_norm() * b.tfidf_norm())).clamp(0.0, 1.0)
}

/// Exact match on the collapsed normalized strings; mirrors
/// `exact::exact_match`.
#[inline]
pub fn exact_pre(a: AttrView<'_>, b: AttrView<'_>) -> f64 {
    f64::from(a.collapsed() == b.collapsed())
}

/// Substring containment on the collapsed normalized strings; mirrors
/// `exact::containment` (including the tie-break: equal lengths treat
/// the first argument as the needle).
#[inline]
pub fn containment_pre(a: AttrView<'_>, b: AttrView<'_>) -> f64 {
    let (na, nb) = (a.collapsed(), b.collapsed());
    let (short, long) = if na.len() <= nb.len() { (na, nb) } else { (nb, na) };
    if short.is_empty() {
        return f64::from(long.is_empty());
    }
    f64::from(long.contains(short))
}

/// Common-prefix ratio on the trimmed normalized char sequences; mirrors
/// `exact::prefix_similarity`.
#[inline]
pub fn prefix_pre(a: AttrView<'_>, b: AttrView<'_>) -> f64 {
    let (na, nb) = (a.prefix_chars(), b.prefix_chars());
    let min = na.len().min(nb.len());
    if min == 0 {
        return f64::from(na.len() == nb.len());
    }
    let common = na.iter().zip(nb.iter()).take_while(|(x, y)| x == y).count();
    common as f64 / min as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Attribute, Schema, Value};
    use crate::tokenize::{qgrams, words};
    use crate::{exact, jaccard, phonetic};
    use std::sync::Arc;

    fn analyzed(values: &[&str]) -> (TaskAnalysis, Table, Table) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows: Vec<Vec<Value>> = values.iter().map(|&s| vec![Value::Text(s.into())]).collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let docs: Vec<&str> = values.iter().copied().chain(values.iter().copied()).collect();
        let model = Some(TfIdfModel::fit(docs));
        let an = analyze_task(&a, &b, &[model], exec::Threads::new(2));
        (an, a, b)
    }

    #[test]
    fn set_kernels_match_references_bitwise() {
        let vals = ["kingston hyperx 4GB kit", "Kingston HyperX", "", "a a b", "  !!  "];
        let (an, a, b) = analyzed(&vals);
        for i in 0..vals.len() as u32 {
            for j in 0..vals.len() as u32 {
                let (x, y) = (
                    a.record(i).value(0).as_text().unwrap(),
                    b.record(j).value(0).as_text().unwrap(),
                );
                let (ra, rb) = (an.attr_a(i, 0).unwrap(), an.attr_b(j, 0).unwrap());
                let cases = [
                    (jaccard_ids(ra.word_ids(), rb.word_ids()), jaccard::jaccard_words(x, y)),
                    (jaccard_ids(ra.gram_ids(), rb.gram_ids()), jaccard::jaccard_qgrams(x, y, 3)),
                    (dice_ids(ra.word_ids(), rb.word_ids()), jaccard::dice_words(x, y)),
                    (overlap_ids(ra.word_ids(), rb.word_ids()), jaccard::overlap_words(x, y)),
                    (soundex_pre(ra, rb), phonetic::soundex_similarity(x, y)),
                    (exact_pre(ra, rb), exact::exact_match(x, y)),
                    (containment_pre(ra, rb), exact::containment(x, y)),
                    (prefix_pre(ra, rb), exact::prefix_similarity(x, y)),
                ];
                for (k, (got, want)) in cases.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "kernel {k} mismatch on ({x:?}, {y:?}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn cosine_matches_reference_bitwise() {
        // The last two values share 18 tokens, several with tf > 1,
        // written in reverse lexicographic order: their dot product sums
        // 18 terms of distinct idf weights, so any merge order but the
        // reference's sorted token order would show in the low bits.
        let shared: Vec<String> = (0..18).rev().map(|i| format!("tok{i:02}")).collect();
        let long_x = format!("{} tok05 tok05 tok11 zeta", shared.join(" "));
        let long_y = format!("omega {} tok03 tok11 tok11 tok11", shared.join(" "));
        let vals = [
            "kingston hyperx memory kit",
            "kingston valueram memory",
            "",
            "memory memory kit",
            "tok07 tok07 tok03 tok05",
            &long_x,
            &long_y,
        ];
        let (an, a, b) = analyzed(&vals);
        assert!(an.attr_a(5, 0).unwrap().tfidf_ids().len() >= 18);
        let docs: Vec<&str> = vals.iter().copied().chain(vals.iter().copied()).collect();
        let model = TfIdfModel::fit(docs);
        for i in 0..vals.len() as u32 {
            for j in 0..vals.len() as u32 {
                let (x, y) = (
                    a.record(i).value(0).as_text().unwrap(),
                    b.record(j).value(0).as_text().unwrap(),
                );
                let got = cosine_pre(an.attr_a(i, 0).unwrap(), an.attr_b(j, 0).unwrap());
                let want = model.cosine(x, y);
                assert_eq!(got.to_bits(), want.to_bits(), "cosine mismatch on ({x:?}, {y:?})");
            }
        }
    }

    #[test]
    fn ids_are_ranks_whatever_the_first_seen_order() {
        // Words and values are first seen in reverse lexicographic order,
        // so first-seen ids would run opposite to the ranks.
        let vals = ["zulu yankee zulu", "yankee xray", "xray whiskey victor", "victor"];
        let (an, _, _) = analyzed(&vals);
        let pool = |f: fn(&str) -> Vec<String>| {
            let mut p: Vec<String> = vals.iter().flat_map(|v| f(v)).collect();
            p.sort();
            p.dedup();
            p
        };
        let (word_pool, gram_pool) = (pool(words), pool(|v| qgrams(v, 3)));
        let ranks = |pool: &[String], toks: Vec<String>| -> Vec<u32> {
            toks.iter().map(|t| pool.binary_search(t).unwrap() as u32).collect()
        };
        let sorted = |mut ids: Vec<u32>| {
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        for (i, v) in vals.iter().enumerate() {
            for view in [an.attr_a(i as u32, 0).unwrap(), an.attr_b(i as u32, 0).unwrap()] {
                let occurrences = ranks(&word_pool, words(v));
                assert_eq!(view.word_token_ids(), occurrences, "{v:?}: occurrence order");
                assert_eq!(view.word_ids(), sorted(occurrences), "{v:?}: sorted word ranks");
                assert_eq!(view.gram_ids(), sorted(ranks(&gram_pool, qgrams(v, 3))), "{v:?}");
            }
            for (j, w) in vals.iter().enumerate() {
                let (x, y) = (an.attr_a(i as u32, 0).unwrap(), an.attr_b(j as u32, 0).unwrap());
                assert_eq!(x.value_id().cmp(&y.value_id()), v.cmp(w), "value ids in string order");
            }
        }
        assert_eq!(an.stats.distinct_words, word_pool.len());
        assert_eq!(an.stats.distinct_grams, gram_pool.len());
        assert_eq!(an.stats.distinct_values, vals.len());
    }

    #[test]
    fn null_values_have_no_analysis() {
        let schema = Arc::new(Schema::new(vec![
            Attribute::text("t"),
            Attribute::number("n"),
        ]));
        let a = Table::new(
            "a",
            schema.clone(),
            vec![vec![Value::Null, Value::Number(1.0)], vec!["x".into(), Value::Null]],
        );
        let b = Table::new("b", schema, vec![vec!["y".into(), Value::Number(2.0)]]);
        let an = analyze_task(&a, &b, &[None, None], exec::Threads::new(1));
        assert!(an.attr_a(0, 0).is_none(), "null text has no analysis");
        assert!(an.attr_a(1, 0).is_some());
        assert!(an.attr_a(0, 1).is_none(), "numeric attrs are not analyzed");
        assert!(an.attr_b(0, 0).is_some());
        assert_eq!(an.stats.records, 3);
        assert_eq!(an.stats.values, 2);
    }

    #[test]
    fn stats_count_interned_tokens() {
        let (an, _, _) = analyzed(&["alpha beta", "beta gamma"]);
        assert_eq!(an.stats.distinct_words, 3);
        assert!(an.stats.distinct_grams > 0);
        assert!(an.stats.resident_bytes > 0);
        assert_eq!(
            an.stats.resident_bytes,
            an.stats.id_bytes
                + an.stats.weight_bytes
                + an.stats.narrow_bytes
                + an.stats.char_bytes
                + an.stats.text_bytes
                + an.stats.header_bytes
        );
        assert!(
            an.stats.owned_layout_bytes > an.stats.resident_bytes - an.stats.header_bytes,
            "owned-layout model should dominate the packed payloads"
        );
    }

    #[test]
    fn views_are_contiguous_per_value() {
        // Every value's u32 segments are adjacent and in fixed order, so
        // a pair evaluation touches one contiguous byte range per value.
        let (an, _, _) = analyzed(&["alpha beta gamma", "beta beta delta", ""]);
        for i in 0..3u32 {
            let v = an.attr_a(i, 0).unwrap();
            let h = v.h;
            for k in 0..N_SEGS {
                assert!(h.segs[k] <= h.segs[k + 1], "segment {k} boundaries ordered");
            }
            assert_eq!(v.word_ids().len() + v.gram_ids().len(), {
                (h.segs[SEG_SOUNDEX] - h.segs[0]) as usize
            });
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let vals = ["kingston hyperx", "corsair vengeance 8gb", "", "samsung evo"];
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows: Vec<Vec<Value>> = vals.iter().map(|&s| vec![Value::Text(s.into())]).collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let m = || Some(TfIdfModel::fit(vals.iter().copied()));
        let an1 = analyze_task(&a, &b, &[m()], exec::Threads::new(1));
        let an8 = analyze_task(&a, &b, &[m()], exec::Threads::new(8));
        for i in 0..vals.len() as u32 {
            assert_eq!(an1.attr_a(i, 0), an8.attr_a(i, 0));
        }
        // Stronger than value equality: the arenas themselves (headers,
        // slab contents, hence all offsets) are identical.
        assert_eq!(an1.a, an8.a);
        assert_eq!(an1.b, an8.b);
        assert_eq!(an1.stats, an8.stats);
    }
}
