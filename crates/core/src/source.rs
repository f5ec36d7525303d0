//! Candidate-pair sources: how the umbrella set is *generated*.
//!
//! The Blocker's final step turns the selected blocking rules into the
//! set of surviving pairs. [`CandidateSource`] abstracts over how those
//! pairs are produced:
//!
//! * [`CartesianScan`] — evaluate the rules on every pair of `A × B`
//!   (the original behavior). O(|A|·|B|) but fully general; kept as the
//!   fallback and as the equivalence oracle for the indexed path.
//! * [`IndexedJoin`] — output-sensitive generation: pick one rule whose
//!   predicates are all similarity-join conditions, probe inverted
//!   indexes over B ([`similarity::index`]) per A record for a superset
//!   of its survivors, then verify the full rule set on those (few)
//!   candidates with the same rule sweep the scan uses.
//!
//! [`plan_blocking_source`] inspects the rules and picks the indexed
//! path whenever one rule is fully indexable, else falls back to the
//! scan.
//!
//! # Why one rule suffices
//!
//! Blocking rules are *negative*: a pair is blocked when **any** rule
//! fires, so the survivor set of all rules is contained in the survivor
//! set of each single rule. A rule is a conjunction of predicates, so
//! its survivors are the **union** over predicates of "predicate fails"
//! — and a threshold predicate `f <= t` (with `nan_satisfies`) fails
//! exactly when `f` is non-NaN and `f > t`, a similarity-join
//! condition the indexes over-approximate. Index probes thus yield a
//! superset of the true survivor set; the verification pass shrinks it
//! to exactly the pairs the scan would keep.
//!
//! # One generation loop
//!
//! Both sources run one loop, [`generate_rows`]: a parallel map over the
//! A records that gathers each record's candidate B records and hands
//! them to [`survivors`], the one rule evaluation. The scan's candidates
//! are all of B; the join's are its probe hits for the record, sorted and
//! deduped.
//!
//! # Determinism
//!
//! Both sources return survivors in row-major pair order (`a` asc, then
//! `b` asc), independent of thread count: the map over A keeps record
//! order and each record's candidates ascend, so no candidate list is
//! ever sorted as a whole. The proptest suite asserts byte-identical
//! output between the two paths, and against the string-path filter, at
//! 1/2/8 threads.

use crate::task::MatchTask;
use crowd::PairKey;
use exec::Threads;
use forest::{Op, Rule};
use similarity::index::{ExactIndex, InvertedIndex, ProbeScratch, SetMeasure, TokenSpace};
use similarity::{FeatureKind, Record, TaskAnalysis};
use std::cell::RefCell;

/// A strategy for generating the umbrella set (the pairs surviving the
/// blocking rules), in deterministic row-major order.
pub trait CandidateSource {
    /// Short, deterministic description of the strategy for reports
    /// (e.g. `"cartesian_scan"`).
    fn describe(&self) -> String;

    /// Generate the surviving pairs in row-major order (`a` ascending,
    /// then `b` ascending). Must return the same bytes at any thread
    /// count.
    fn generate(&self, threads: Threads) -> Vec<PairKey>;
}

/// The pairs `(a, b)`, `b` in `sweep.bs`, that no rule blocks, in `bs`
/// order: the one rule evaluation both candidate sources share, over a
/// run of pairs with the left record `a`.
///
/// It goes rule by rule. Each feature the rule reads that no earlier rule
/// read is computed once for the run, for the pairs no earlier rule
/// blocked ([`similarity::FeatureVectorizer::feature_run`]); then the
/// pairs the rule matches are dropped. The alive set only shrinks, so a
/// column computed for the pairs alive at the first rule that reads its
/// feature covers every later rule that reads it. A pair thus gets
/// exactly the features of every rule it reaches, as a per-pair memo
/// would give it, and `kernels.single_features` counts the same.
fn survivors(
    task: &MatchTask,
    rules: &[Rule],
    analysis: &TaskAnalysis,
    a: u32,
    sweep: &mut Sweep,
) -> Vec<PairKey> {
    let Sweep { bs, alive, cols, vals, .. } = sweep;
    let rec_a = task.table_a.record(a);
    alive.clear();
    alive.extend(0..bs.len());
    cols.resize_with(task.n_features(), Vec::new);
    cols.iter_mut().for_each(Vec::clear);
    let mut n_computed = 0u64;
    for rule in rules {
        if alive.is_empty() {
            break;
        }
        for p in &rule.predicates {
            if !cols[p.feature].is_empty() {
                continue;
            }
            let recs: Vec<&Record> = alive.iter().map(|&k| task.table_b.record(bs[k])).collect();
            vals.clear();
            vals.resize(alive.len(), 0.0);
            task.vectorizer.feature_run(p.feature, rec_a, &recs, analysis, vals);
            let col = &mut cols[p.feature];
            col.resize(bs.len(), f64::NAN);
            for (&k, &v) in alive.iter().zip(vals.iter()) {
                col[k] = v;
            }
            n_computed += alive.len() as u64;
        }
        alive.retain(|&k| !rule.predicates.iter().all(|p| p.holds_value(cols[p.feature][k])));
    }
    task.analysis.note_single_features(n_computed);
    alive.iter().map(|&k| PairKey::new(a, bs[k])).collect()
}

/// The buffers of one thread's generation loop, kept across A records
/// and across calls. Allocated per run instead, the sweep's buffers put
/// `e2e_bench`'s `restaurants_scan` (seed 42) in its higher peak-RSS mode
/// (~51 MiB rather than ~45) in 8 of 18 processes; kept, in 1 of 18.
/// Every record clears and overwrites what it reads, so no result depends
/// on an earlier record.
#[derive(Default)]
struct Sweep {
    /// The current A record's candidate B records, ascending and distinct.
    bs: Vec<u32>,
    /// The join's probe scratch, shared by every index the thread probes.
    probe: ProbeScratch,
    /// Positions in `bs` of the pairs no rule has blocked yet.
    alive: Vec<usize>,
    /// Per feature, its values by position in `bs`: empty until a rule
    /// reads it, and never empty after, since the sweep stops once no
    /// pair is alive.
    cols: Vec<Vec<f64>>,
    /// The column `feature_run` writes for the alive pairs.
    vals: Vec<f64>,
}

thread_local! {
    static SWEEP: RefCell<Sweep> = RefCell::new(Sweep::default());
}

/// The one generation loop of both sources: for each A record, in
/// parallel, `candidates(a, bs, probe)` fills `bs` with the record's
/// candidate B records (ascending, distinct) and [`survivors`] keeps
/// those no rule blocks. The map over A keeps record order, so the
/// survivors come out row-major with no sort.
fn generate_rows(
    task: &MatchTask,
    rules: &[Rule],
    analysis: &TaskAnalysis,
    threads: Threads,
    candidates: impl Fn(u32, &mut Vec<u32>, &mut ProbeScratch) + Sync,
) -> Vec<PairKey> {
    let rows: Vec<Vec<PairKey>> = exec::indexed_par_map(threads, task.table_a.len(), |a| {
        SWEEP.with(|sweep| {
            let sweep = &mut *sweep.borrow_mut();
            sweep.bs.clear();
            candidates(a as u32, &mut sweep.bs, &mut sweep.probe);
            survivors(task, rules, analysis, a as u32, sweep)
        })
    });
    rows.into_iter().flatten().collect()
}

/// Evaluate the rules against every pair of `A × B`, one [`survivors`]
/// sweep per A record over all of B. The original Blocker behavior and
/// the equivalence oracle for [`IndexedJoin`].
pub struct CartesianScan<'t> {
    task: &'t MatchTask,
    rules: Vec<Rule>,
}

impl<'t> CartesianScan<'t> {
    /// A scan of `task`'s Cartesian product under `rules` (empty rules
    /// → every pair survives).
    pub fn new(task: &'t MatchTask, rules: Vec<Rule>) -> Self {
        CartesianScan { task, rules }
    }
}

impl CandidateSource for CartesianScan<'_> {
    fn describe(&self) -> String {
        "cartesian_scan".to_string()
    }

    fn generate(&self, threads: Threads) -> Vec<PairKey> {
        let task = self.task;
        let n_b = task.table_b.len() as u32;
        if self.rules.is_empty() {
            // No rules: every pair survives. Stream the keys in parallel
            // chunks (row-major order is preserved by indexed_par_map)
            // rather than a serial push loop.
            let n = task.table_a.len() * n_b as usize;
            if n == 0 {
                return Vec::new();
            }
            return exec::indexed_par_map(threads, n, |i| {
                PairKey::new((i / n_b as usize) as u32, (i % n_b as usize) as u32)
            });
        }
        let analysis = task.ensure_analysis(threads);
        generate_rows(task, &self.rules, analysis, threads, |_, bs, _| bs.extend(0..n_b))
    }
}

/// One indexable predicate of the chosen rule, mapped onto an index
/// probe. The predicate *fails* (pair survives) exactly when the probed
/// similarity strictly exceeds `threshold`.
#[derive(Debug, Clone, PartialEq)]
enum ProbeSpec {
    /// Set-similarity join over one token space.
    Set { attr: usize, space: TokenSpace, measure: SetMeasure, threshold: f64 },
    /// Equality join on the collapsed normalized string
    /// (`exact_match > t` with `t < 1` means equality).
    Exact { attr: usize },
}

impl ProbeSpec {
    fn describe(&self) -> String {
        match self {
            ProbeSpec::Set { attr, space, measure, threshold } => {
                format!("a{attr}:{}:{}>{threshold:.3}", space.name(), measure.name())
            }
            ProbeSpec::Exact { attr } => format!("a{attr}:exact"),
        }
    }
}

/// Map a predicate onto an index probe, or `None` when the index cannot
/// serve it. Indexable: `f <= t` with `nan_satisfies`, `0 ≤ t < 1`, and
/// `f` a set/vector similarity with a precomputed token set (char-level
/// and numeric kinds, negated or `Gt` predicates, and cosine without a
/// corpus model all fall back to the scan).
fn probe_spec(task: &MatchTask, pred: &forest::Predicate) -> Option<ProbeSpec> {
    if pred.op != Op::Le || !pred.nan_satisfies {
        return None;
    }
    let t = pred.threshold;
    if !t.is_finite() || !(0.0..1.0).contains(&t) {
        return None;
    }
    let def = task.vectorizer.library().defs.get(pred.feature)?;
    let set = |space, measure| {
        Some(ProbeSpec::Set { attr: def.attr, space, measure, threshold: t })
    };
    match def.kind {
        FeatureKind::JaccardWords => set(TokenSpace::Words, SetMeasure::Jaccard),
        FeatureKind::Jaccard3Grams => set(TokenSpace::Grams, SetMeasure::Jaccard),
        FeatureKind::DiceWords => set(TokenSpace::Words, SetMeasure::Dice),
        FeatureKind::OverlapWords => set(TokenSpace::Words, SetMeasure::Overlap),
        // Soundex similarity is Jaccard over packed code sets, with the
        // same empty-set conventions.
        FeatureKind::Soundex => set(TokenSpace::Soundex, SetMeasure::Jaccard),
        FeatureKind::CosineTfIdf if task.vectorizer.has_corpus_model(def.attr) => {
            set(TokenSpace::TfIdf, SetMeasure::Cosine)
        }
        FeatureKind::ExactMatch => Some(ProbeSpec::Exact { attr: def.attr }),
        _ => None,
    }
}

/// Output-sensitive candidate generation: probe inverted indexes for a
/// superset of one rule's survivors, then verify all rules on the
/// candidates. Produces byte-identical output to [`CartesianScan`].
pub struct IndexedJoin<'t> {
    task: &'t MatchTask,
    rules: Vec<Rule>,
    /// Index into `rules` of the generating rule.
    chosen: usize,
    /// One probe per predicate of the chosen rule.
    probes: Vec<ProbeSpec>,
}

impl<'t> IndexedJoin<'t> {
    /// Plan an indexed join for `rules`, or `None` when no rule has all
    /// predicates indexable. Among indexable rules the planner prefers
    /// the most selective generator: highest minimum threshold, then
    /// fewest predicates (fewer unions), then first in rule order.
    pub fn plan(task: &'t MatchTask, rules: &[Rule]) -> Option<IndexedJoin<'t>> {
        let mut best: Option<(f64, usize, usize, Vec<ProbeSpec>)> = None;
        for (ri, rule) in rules.iter().enumerate() {
            if rule.predicates.is_empty() {
                continue;
            }
            let specs: Option<Vec<ProbeSpec>> =
                rule.predicates.iter().map(|p| probe_spec(task, p)).collect();
            let Some(specs) = specs else { continue };
            let min_t = rule
                .predicates
                .iter()
                .map(|p| p.threshold)
                .fold(f64::INFINITY, f64::min);
            let better = match &best {
                None => true,
                Some((bt, bn, _, _)) => match min_t.total_cmp(bt) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => rule.predicates.len() < *bn,
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                best = Some((min_t, rule.predicates.len(), ri, specs));
            }
        }
        let (_, _, chosen, probes) = best?;
        Some(IndexedJoin { task, rules: rules.to_vec(), chosen, probes })
    }

    /// The index (into the planned rule slice) of the generating rule.
    pub fn generator_rule(&self) -> usize {
        self.chosen
    }
}

/// The built index for one probe spec.
enum BuiltIndex {
    Set(InvertedIndex),
    Exact(ExactIndex),
}

impl CandidateSource for IndexedJoin<'_> {
    fn describe(&self) -> String {
        let probes: Vec<String> = self.probes.iter().map(|p| p.describe()).collect();
        format!("indexed_join[{}]", probes.join(" | "))
    }

    fn generate(&self, threads: Threads) -> Vec<PairKey> {
        let task = self.task;
        let analysis = task.ensure_analysis(threads);

        // Build one index per distinct (attr, space/exact) over table B.
        // Indexes are threshold-independent, so predicates sharing a
        // token space share an index.
        let mut keys: Vec<(usize, Option<TokenSpace>)> = Vec::new();
        let mut indexes: Vec<BuiltIndex> = Vec::new();
        let mut probe_index: Vec<usize> = Vec::with_capacity(self.probes.len());
        for spec in &self.probes {
            let key = match spec {
                ProbeSpec::Set { attr, space, .. } => (*attr, Some(*space)),
                ProbeSpec::Exact { attr } => (*attr, None),
            };
            let slot = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                indexes.push(match key {
                    (attr, Some(space)) => {
                        BuiltIndex::Set(InvertedIndex::build(&analysis.b, attr, space))
                    }
                    (attr, None) => BuiltIndex::Exact(ExactIndex::build(&analysis.b, attr)),
                });
                keys.len() - 1
            });
            probe_index.push(slot);
        }

        // Probe per A record; the union of its probes' hits, sorted and
        // deduped, is the record's run for the sweep of the full rule set.
        generate_rows(task, &self.rules, analysis, threads, |a, hits, scratch| {
            for (spec, &slot) in self.probes.iter().zip(&probe_index) {
                match (spec, &indexes[slot]) {
                    (ProbeSpec::Set { attr, measure, threshold, .. }, BuiltIndex::Set(idx)) => {
                        idx.probe(analysis.attr_a(a, *attr), *measure, *threshold, scratch, hits);
                    }
                    (ProbeSpec::Exact { attr }, BuiltIndex::Exact(idx)) => {
                        if let Some(an) = analysis.attr_a(a, *attr) {
                            idx.matches(&analysis.b, an.collapsed(), hits);
                        }
                    }
                    // Planner pairs specs with matching indexes.
                    _ => {}
                }
            }
            hits.sort_unstable();
            hits.dedup();
        })
    }
}

/// The planner's choice, as a concrete enum (pattern-matchable in tests
/// and reports) that itself implements [`CandidateSource`].
pub enum PlannedSource<'t> {
    /// Fallback: full `A × B` scan.
    Cartesian(CartesianScan<'t>),
    /// Output-sensitive inverted-index join.
    Indexed(IndexedJoin<'t>),
}

impl CandidateSource for PlannedSource<'_> {
    fn describe(&self) -> String {
        match self {
            PlannedSource::Cartesian(s) => s.describe(),
            PlannedSource::Indexed(s) => s.describe(),
        }
    }

    fn generate(&self, threads: Threads) -> Vec<PairKey> {
        match self {
            PlannedSource::Cartesian(s) => s.generate(threads),
            PlannedSource::Indexed(s) => s.generate(threads),
        }
    }
}

/// Inspect `rules` and pick the candidate-generation strategy: an
/// [`IndexedJoin`] when some rule's predicates are all indexable
/// similarity-join conditions, else a [`CartesianScan`]. With no rules
/// at all the scan streams every pair, which is already optimal.
pub fn plan_blocking_source<'t>(task: &'t MatchTask, rules: &[Rule]) -> PlannedSource<'t> {
    if rules.is_empty() {
        return PlannedSource::Cartesian(CartesianScan::new(task, Vec::new()));
    }
    match IndexedJoin::plan(task, rules) {
        Some(join) => PlannedSource::Indexed(join),
        None => PlannedSource::Cartesian(CartesianScan::new(task, rules.to_vec())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::task_from_parts;
    use forest::Predicate;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn toy_task() -> MatchTask {
        let schema = Arc::new(Schema::new(vec![
            Attribute::text("name"),
            Attribute::number("year"),
        ]));
        let names_a = [
            "kingston hyperx 4gb memory kit",
            "kingston valueram 4gb",
            "corsair vengeance 8gb memory",
            "",
            "samsung evo ssd 500gb",
            "western digital caviar blue",
            "kingston hyperx",
            "seagate barracuda 2tb",
        ];
        let names_b = [
            "kingston hyperx 4gb kit",
            "corsair 8gb memory",
            "",
            "totally unrelated tokens",
            "samsung evo ssd",
            "seagate barracuda",
        ];
        let rows = |names: &[&str]| -> Vec<Vec<Value>> {
            names
                .iter()
                .enumerate()
                .map(|(i, &n)| vec![Value::Text(n.into()), Value::Number(2000.0 + i as f64)])
                .collect()
        };
        let a = Table::new("a", schema.clone(), rows(&names_a));
        let b = Table::new("b", schema, rows(&names_b));
        task_from_parts(a, b, "same?", [(0, 0), (4, 4)], [(0, 3), (2, 5)])
    }

    fn feature(task: &MatchTask, name: &str) -> usize {
        task.feature_names()
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("missing feature {name}"))
    }

    fn le(feature: usize, threshold: f64) -> Predicate {
        Predicate { feature, op: Op::Le, threshold, nan_satisfies: true }
    }

    fn rule(predicates: Vec<Predicate>) -> Rule {
        Rule { predicates, label: false, tree: 0, n_pos: 0, n_neg: 0 }
    }

    fn assert_equivalent(task: &MatchTask, rules: &[Rule]) {
        let scan = CartesianScan::new(task, rules.to_vec());
        let join = IndexedJoin::plan(task, rules).expect("rules should be indexable");
        let want = scan.generate(Threads::new(1));
        for threads in [1, 2, 8] {
            let got = join.generate(Threads::new(threads));
            assert_eq!(got, want, "indexed/scan divergence at {threads} threads");
        }
    }

    #[test]
    fn indexed_join_matches_scan_on_jaccard_rule() {
        let task = toy_task();
        let f = feature(&task, "name_jac_w");
        for t in [0.0, 0.2, 0.5, 0.8] {
            assert_equivalent(&task, &[rule(vec![le(f, t)])]);
        }
    }

    #[test]
    fn indexed_join_matches_scan_on_multi_predicate_and_multi_rule() {
        let task = toy_task();
        let jac = feature(&task, "name_jac_w");
        let jac3 = feature(&task, "name_jac_3g");
        let cos = feature(&task, "name_cos_tfidf");
        let exact = feature(&task, "name_exact");
        let dice = feature(&task, "name_dice_w");
        let ovl = feature(&task, "name_ovl_w");
        let sdx = feature(&task, "name_sdx");
        // Conjunction within one rule + a second rule; survivors are the
        // union of per-predicate joins filtered by both rules.
        let rules = vec![
            rule(vec![le(jac, 0.3), le(cos, 0.4)]),
            rule(vec![le(exact, 0.5), le(jac3, 0.6)]),
        ];
        assert_equivalent(&task, &rules);
        let rules = vec![rule(vec![le(dice, 0.25), le(ovl, 0.5), le(sdx, 0.4)])];
        assert_equivalent(&task, &rules);
    }

    #[test]
    fn planner_prefers_most_selective_indexable_rule() {
        let task = toy_task();
        let jac = feature(&task, "name_jac_w");
        let cos = feature(&task, "name_cos_tfidf");
        let rules = vec![
            rule(vec![le(jac, 0.2)]),
            rule(vec![le(cos, 0.7)]),
        ];
        let join = IndexedJoin::plan(&task, &rules).expect("indexable");
        assert_eq!(join.generator_rule(), 1, "higher threshold is more selective");
    }

    #[test]
    fn planner_falls_back_on_unindexable_rules() {
        let task = toy_task();
        let jac = feature(&task, "name_jac_w");
        let lev = feature(&task, "name_lev");
        let num = feature(&task, "year_num_rel");
        // Char-level kind.
        assert!(IndexedJoin::plan(&task, &[rule(vec![le(lev, 0.5)])]).is_none());
        // Numeric kind.
        assert!(IndexedJoin::plan(&task, &[rule(vec![le(num, 0.5)])]).is_none());
        // Negated threshold direction (Gt).
        let gt = Predicate { feature: jac, op: Op::Gt, threshold: 0.5, nan_satisfies: true };
        assert!(IndexedJoin::plan(&task, &[rule(vec![gt])]).is_none());
        // NaN does not satisfy: the survivor set includes NaN pairs the
        // index cannot enumerate.
        let no_nan = Predicate { feature: jac, op: Op::Le, threshold: 0.5, nan_satisfies: false };
        assert!(IndexedJoin::plan(&task, &[rule(vec![no_nan])]).is_none());
        // Threshold at/above 1.0 (predicate `f <= 1` never fails).
        assert!(IndexedJoin::plan(&task, &[rule(vec![le(jac, 1.0)])]).is_none());
        // One indexable rule among unindexable ones is enough.
        let rules = vec![rule(vec![le(lev, 0.5)]), rule(vec![le(jac, 0.4)])];
        let join = IndexedJoin::plan(&task, &rules).expect("second rule is indexable");
        assert_eq!(join.generator_rule(), 1);
        // ... and the mixed rule set still produces scan-identical
        // survivors (the unindexable rule participates in verification).
        assert_equivalent(&task, &rules);
    }

    #[test]
    fn planner_routes_empty_and_unindexable_to_cartesian() {
        let task = toy_task();
        let lev = feature(&task, "name_lev");
        assert!(matches!(
            plan_blocking_source(&task, &[]),
            PlannedSource::Cartesian(_)
        ));
        let rules = [rule(vec![le(lev, 0.5)])];
        let planned = plan_blocking_source(&task, &rules);
        assert!(matches!(planned, PlannedSource::Cartesian(_)));
        assert_eq!(planned.describe(), "cartesian_scan");
        let jac = feature(&task, "name_jac_w");
        let planned = plan_blocking_source(&task, &[rule(vec![le(jac, 0.5)])]);
        assert!(matches!(planned, PlannedSource::Indexed(_)));
        assert!(planned.describe().starts_with("indexed_join["));
    }

    #[test]
    fn scan_with_no_rules_streams_all_pairs_in_order() {
        let task = toy_task();
        let scan = CartesianScan::new(&task, Vec::new());
        let pairs = scan.generate(Threads::new(4));
        assert_eq!(pairs.len(), 8 * 6);
        assert_eq!(pairs[0], PairKey::new(0, 0));
        assert_eq!(pairs[47], PairKey::new(7, 5));
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "row-major order");
    }
}
