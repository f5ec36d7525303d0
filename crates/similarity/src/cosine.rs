//! TF/IDF-weighted cosine similarity.
//!
//! Unlike the other measures, TF/IDF needs corpus statistics: rare tokens
//! (a model number, a distinctive surname) should weigh more than common
//! ones ("the", "inc"). [`TfIdfModel`] is fitted once per attribute over all
//! values of that attribute in both input tables, then reused for every
//! pair — exactly how an EM feature library amortizes the corpus pass.

use crate::tokenize::words;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Corpus statistics for TF/IDF weighting of one attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdfModel {
    /// Number of documents the model was fitted on.
    n_docs: usize,
    /// Document frequency per token.
    df: HashMap<String, u32>,
}

impl TfIdfModel {
    /// Fit a model over an iterator of documents (attribute values).
    pub fn fit<'a, I: IntoIterator<Item = &'a str>>(docs: I) -> Self {
        let mut df: HashMap<String, u32> = HashMap::new();
        let mut n_docs = 0usize;
        for doc in docs {
            n_docs += 1;
            let mut toks = words(doc);
            toks.sort_unstable();
            toks.dedup();
            for t in toks {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        TfIdfModel { n_docs, df }
    }

    /// Smoothed inverse document frequency of a token:
    /// `ln(1 + N / (1 + df))`. Unknown tokens get the maximum IDF.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0) as f64;
        (1.0 + self.n_docs as f64 / (1.0 + df)).ln()
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Sparse TF/IDF vector of a string, sorted by token. Sorted order
    /// (not hash-map order) matters: float sums below must accumulate in
    /// a fixed order or the low bits of the similarity vary per process.
    /// [`crate::analysis`] does not call this: it builds the same bits
    /// from interned word ranks (`count as f64 * idf`, one [`Self::idf`]
    /// call per attribute and distinct word), so a change here must be
    /// mirrored there.
    fn weights(&self, s: &str) -> Vec<(String, f64)> {
        let mut toks = words(s);
        toks.sort_unstable();
        let mut tf: Vec<(String, f64)> = Vec::new();
        for t in toks {
            match tf.last_mut() {
                Some(last) if last.0 == t => last.1 += 1.0,
                _ => tf.push((t, 1.0)),
            }
        }
        for (t, w) in tf.iter_mut() {
            *w *= self.idf(t);
        }
        tf
    }

    /// TF/IDF cosine similarity between two strings in `[0, 1]`.
    /// Returns 1 for two empty strings and 0 when exactly one is empty.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let wa = self.weights(a);
        let wb = self.weights(b);
        if wa.is_empty() && wb.is_empty() {
            return 1.0;
        }
        if wa.is_empty() || wb.is_empty() {
            return 0.0;
        }
        // Merge-join over the token-sorted vectors.
        let mut dot = 0.0f64;
        let (mut i, mut j) = (0, 0);
        while i < wa.len() && j < wb.len() {
            match wa[i].0.cmp(&wb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += wa[i].1 * wb[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = wa.iter().map(|(_, x)| x * x).sum::<f64>().sqrt();
        let nb: f64 = wb.iter().map(|(_, x)| x * x).sum::<f64>().sqrt();
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TfIdfModel {
        TfIdfModel::fit([
            "kingston hyperx memory kit",
            "kingston valueram memory",
            "corsair vengeance memory kit",
            "samsung evo ssd",
        ])
    }

    #[test]
    fn identical_strings_are_one() {
        let m = model();
        assert!((m.cosine("kingston hyperx", "kingston hyperx") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_strings_are_zero() {
        let m = model();
        assert_eq!(m.cosine("samsung evo", "corsair vengeance"), 0.0);
    }

    #[test]
    fn rare_tokens_dominate() {
        let m = model();
        // Sharing the rare "hyperx" outweighs sharing the common "memory".
        let rare = m.cosine("kingston hyperx", "hyperx kit");
        let common = m.cosine("kingston memory", "memory corsair");
        assert!(rare > common, "{rare} vs {common}");
    }

    #[test]
    fn empty_handling() {
        let m = model();
        assert_eq!(m.cosine("", ""), 1.0);
        assert_eq!(m.cosine("", "kingston"), 0.0);
    }

    #[test]
    fn unknown_tokens_get_max_idf() {
        let m = model();
        assert!(m.idf("zzz-unknown") >= m.idf("memory"));
    }

    #[test]
    fn fit_counts_docs() {
        assert_eq!(model().n_docs(), 4);
    }
}
