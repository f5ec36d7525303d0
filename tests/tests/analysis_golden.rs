//! Golden digests of the record-analysis layer.
//!
//! Every pair feature of a run is read out of the per-record
//! [`TaskAnalysis`], so its bytes pin every run output. This test folds
//! everything an [`AttrView`] exposes for every `(record, attr)` cell of
//! both tables, which cells are missing, every word id's char run and
//! char set, and the [`AnalysisStats`] into one FNV-1a digest per
//! dataset. The digest must be the same at 1, 2 and
//! 8 threads, and must equal the constant recorded below. A build change
//! that moves any id, weight bit, offset-visible length or statistic
//! fails here before it can move a run.

use similarity::tokenize::words;
use similarity::{AnalysisStats, AttrView, FeatureVectorizer, TableAnalysis, TaskAnalysis};

/// `(dataset, digest)` at scale 0.05, seed 7. Re-recorded when each
/// value's token char runs, token ends and first occurrences were dropped
/// for the task's word table (one char run per distinct word): a digest
/// that leaves out those three runs, `id_bytes`, `header_bytes` and
/// `resident_bytes` was the same before and after the drop, so these pin
/// the current build to the same bytes.
const GOLDEN: [(&str, &str); 3] = [
    ("restaurants", "c7778eba9396ddde"),
    ("citations", "5fc432ce63c5fb1e"),
    ("products", "0f7817266a736e8b"),
];

/// Length-prefixed little-endian byte sink: a run boundary can never be
/// confused with a run's contents.
#[derive(Default)]
struct Sink(Vec<u8>);

impl Sink {
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }

    fn view(&mut self, v: AttrView<'_>) {
        for run in [
            v.word_ids(),
            v.gram_ids(),
            v.soundex_codes(),
            v.raw_char_ids(),
            v.lower_char_ids(),
            v.word_rank(),
        ] {
            self.u32s(run);
        }
        self.f64s(v.tfidf_weights());
        self.u64(v.tfidf_norm().to_bits());
        self.bytes(v.collapsed().as_bytes());
        let prefix: Vec<u32> = v.prefix_chars().iter().map(|&c| u32::from(c)).collect();
        self.u32s(&prefix);
        let narrow: Vec<u8> = v.lower_char_i16().iter().flat_map(|x| x.to_le_bytes()).collect();
        self.bytes(&narrow);
        self.u64(u64::from(v.value_id()));
    }

    fn table(&mut self, t: &TableAnalysis, n_attrs: usize) {
        self.u64(t.len() as u64);
        for rec in 0..t.len() as u32 {
            for attr in 0..n_attrs {
                match t.attr(rec, attr) {
                    Some(v) => {
                        self.u64(1);
                        self.view(v);
                    }
                    None => self.u64(0),
                }
            }
        }
    }

    fn stats(&mut self, s: &AnalysisStats) {
        for x in [
            s.records,
            s.values,
            s.distinct_words,
            s.distinct_grams,
            s.distinct_chars,
            s.distinct_values,
            s.id_bytes,
            s.weight_bytes,
            s.narrow_bytes,
            s.char_bytes,
            s.text_bytes,
            s.header_bytes,
            s.resident_bytes,
        ] {
            self.u64(x as u64);
        }
    }
}

fn digest(an: &TaskAnalysis, n_attrs: usize) -> String {
    let mut sink = Sink::default();
    sink.table(&an.a, n_attrs);
    sink.table(&an.b, n_attrs);
    for id in 0..an.stats.distinct_words as u32 {
        sink.u32s(an.words().chars(id));
        sink.u64(an.words().char_set(id));
    }
    sink.stats(&an.stats);
    store::fingerprint64(&sink.0)
}

#[test]
fn analysis_bytes_match_golden_digests_at_every_thread_count() {
    let cfg = datagen::GenConfig { scale: 0.05, seed: 7 };
    let mut got = Vec::new();
    for (name, _) in GOLDEN {
        let ds = datagen::by_name(name, cfg).expect("known dataset");
        let vz = FeatureVectorizer::fit(&ds.table_a, &ds.table_b);
        let n_attrs = ds.table_a.schema.len();
        let digests: Vec<String> = [1, 2, 8]
            .into_iter()
            .map(|t| {
                let an = vz.analyze(&ds.table_a, &ds.table_b, corleone::Threads::new(t));
                digest(&an, n_attrs)
            })
            .collect();
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{name}: analysis digest depends on the thread count: {digests:?}"
        );
        got.push((name, digests[0].clone()));
    }
    let want: Vec<(&str, String)> = GOLDEN.iter().map(|&(n, d)| (n, d.to_string())).collect();
    assert_eq!(got, want, "analysis bytes moved");
}

/// The char pool a task's analysis interns, rebuilt from the strings:
/// every char of the raw text values, of their `str::to_lowercase` and of
/// their word tokens, sorted. Char ids are ranks in it.
fn char_pool(tables: [&similarity::Table; 2], is_text: &[bool]) -> Vec<char> {
    let mut pool = Vec::new();
    for t in tables {
        for r in &t.records {
            for (v, _) in r.values.iter().zip(is_text).filter(|(_, &text)| text) {
                if let Some(s) = v.as_text() {
                    pool.extend(s.chars());
                    pool.extend(s.to_lowercase().chars());
                    pool.extend(words(s).iter().flat_map(|w| w.chars()));
                }
            }
        }
    }
    pool.sort_unstable();
    pool.dedup();
    pool
}

#[test]
fn word_table_holds_every_tokens_chars() {
    for seed in [7, 42] {
        let cfg = datagen::GenConfig { scale: 0.05, seed };
        for name in ["restaurants", "citations", "products"] {
            let ds = datagen::by_name(name, cfg).expect("known dataset");
            let (ta, tb) = (&ds.table_a, &ds.table_b);
            let is_text: Vec<bool> =
                ta.schema.attrs.iter().map(|a| a.ty == similarity::AttrType::Text).collect();
            let an = FeatureVectorizer::fit(ta, tb).analyze(ta, tb, corleone::Threads::new(2));
            let pool = char_pool([ta, tb], &is_text);
            assert_eq!(an.stats.distinct_chars, pool.len(), "{name}, seed {seed}: char pool");
            let ids = |w: &str| -> Vec<u32> {
                w.chars().map(|c| pool.binary_search(&c).expect("interned") as u32).collect()
            };
            let mut tokens = 0;
            for (t, analysis) in [(ta, &an.a), (tb, &an.b)] {
                for r in &t.records {
                    for (attr, v) in r.values.iter().enumerate().filter(|&(ai, _)| is_text[ai]) {
                        let (Some(s), Some(view)) = (v.as_text(), analysis.attr(r.id, attr)) else {
                            continue;
                        };
                        let occurrences = words(s);
                        assert_eq!(occurrences.len(), view.n_word_tokens(), "{name}: {s:?}");
                        for (w, &k) in occurrences.iter().zip(view.word_rank()) {
                            let id = view.word_ids()[k as usize];
                            let chars = ids(w);
                            assert_eq!(an.words().chars(id), chars, "{name}: {w:?} of {s:?}");
                            let set = chars.iter().fold(0u64, |m, c| m | 1 << (c % 64));
                            assert_eq!(an.words().char_set(id), set, "{name}: {w:?}");
                            tokens += 1;
                        }
                    }
                }
            }
            assert!(tokens > 0, "{name}: no tokens");
        }
    }
}
