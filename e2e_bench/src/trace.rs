//! Bench-side span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions (the engine itself carries no spans yet). They stay
//! in memory and are written out as one JSON file per workload when the
//! process ends.

use serde::Value;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// `workload/rep/tenant`: which run the span belongs to.
    pub run: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans. Spans opened while another is open become its
/// children; `exit` must close the innermost open span.
pub struct Recorder {
    origin: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            run: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans opened from now on with this run id.
    pub fn set_run(&mut self, run: impl Into<String>) {
        self.run = run.into();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its id for [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run.clone(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Milliseconds of span `id`.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Share of span `id` covered by its direct children.
    pub fn child_coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].duration_ns();
        if total == 0 {
            return 1.0;
        }
        let own = self.self_times()[id];
        1.0 - own as f64 / total as f64
    }

    /// All spans with their self times, as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(id as f64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("run".into(), Value::Str(s.run.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    ("self_ns".into(), Value::Num(self_ns as f64)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Arr(spans)),
        ]);
        serde_json::to_string_pretty(&doc).expect("a Value tree always serializes")
    }
}

/// `end − start` minus the part of `[start, end)` that the union of the
/// children's intervals covers. Children may overlap each other and
/// stick out of the parent; neither is counted twice or outside it.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in children {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 50, vec![]), 40);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        assert_eq!(self_time(0, 100, vec![(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,40) and [30,70) overlap on [30,40): union is [10,70).
        assert_eq!(self_time(0, 100, vec![(30, 70), (10, 40)]), 40);
        // A child inside another adds nothing.
        assert_eq!(self_time(0, 100, vec![(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(50, 100, vec![(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(0, 10, vec![(0, 10), (0, 10)]), 0);
    }

    #[test]
    fn recorder_nests_and_self_times_are_consistent() {
        let mut r = Recorder::new();
        r.set_run("w/0/t0");
        let root = r.enter("run");
        let a = r.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(a);
        let mid = r.enter("b");
        let c = r.enter("c");
        r.exit(c);
        r.exit(mid);
        r.exit(root);
        let spans = &r.spans;
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[3].parent, Some(mid));
        assert!(spans
            .iter()
            .all(|s| s.run == "w/0/t0" && s.end_ns >= s.start_ns));
        let selfs = r.self_times();
        let total: u64 = selfs.iter().sum();
        assert_eq!(
            total,
            spans[root].duration_ns(),
            "self times partition the root"
        );
        assert!(r.child_coverage(root) > 0.5);
    }
}
