//! Reproduces **Figure 2**: a toy random forest over book pairs and the
//! negative rules extracted from it — the mechanism the Blocker (§4),
//! Estimator (§6), and Locator (§7) are built on.

use corleone::lines::Lines;
use forest::{extract_rules, Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = Lines::stdout();
    // Features mirror the figure: isbn_match, #pages_match, title_match.
    let names: Vec<String> = ["isbn_match", "pages_match", "title_match"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Books match iff isbn matches and pages match (tree 1), and
    // title+pages correlate (tree 2's view).
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for isbn in [0.0, 1.0] {
        for pages in [0.0, 1.0] {
            for title in [0.0, 1.0] {
                for _ in 0..6 {
                    rows.push(vec![isbn, pages, title]);
                    labels.push(isbn == 1.0 && pages == 1.0 && title == 1.0);
                }
            }
        }
    }
    let ds = Dataset::from_rows(&rows, &labels);
    let cfg = ForestConfig {
        n_trees: 2,
        bagging_fraction: 1.0,
        m_features: Some(2),
        ..Default::default()
    };
    let forest = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(2014));

    out.print("Figure 2: a toy random forest and its extracted rules\n");
    for (i, tree) in forest.trees().iter().enumerate() {
        out.print(&format!(
            "Tree {} — {} leaves, depth {}",
            i + 1,
            tree.n_leaves(),
            tree.depth()
        ));
    }
    out.print("\nExtracted rules (paths to leaves):");
    let mut neg = 0;
    let mut pos = 0;
    for rule in extract_rules(&forest) {
        let kind = if rule.label {
            pos += 1;
            "positive"
        } else {
            neg += 1;
            "negative"
        };
        out.print(&format!("  [{kind}] {}", rule.display_with(&names)));
    }
    out.print(&format!("\n{neg} negative rules (candidate blocking rules), {pos} positive rules."));
    out.print("Paper Fig. 2c shows 5 negative rules from its 2-tree toy forest;");
    out.print("e.g. \"(isbn_match = N) => NO\" is the first blocking rule.");
    out.finish()
}
