//! Sample statistics, the peak-RSS probe, and metric reporting.

use serde::Value;

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every reported metric has a sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so the numbers printed here match the ones the
/// stability check computes from them. One sample (where Python raises)
/// is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(|a, b| a.total_cmp(b));
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set since it started or since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Lower this process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mib`] is the peak of the work in between (where the kernel
/// does not support this, it stays the process's peak). Returns whether
/// the mark was lowered.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Seconds [`calibrate`] takes on the 2-vCPU Xeon VM the committed
/// `BENCH_e2e.json` was recorded on, when the VM runs at its usual speed.
pub const REFERENCE_CALIBRATION_S: f64 = 0.023;

/// Time a fixed, memory-bound computation that uses none of the
/// repository's code — refilling a 4 MiB buffer from a xorshift
/// generator and sorting it, twice — and return the seconds it took.
/// A run's times are multiplied by `REFERENCE_CALIBRATION_S` over the
/// calibration timed just before the run.
///
/// Why: a shared VM slows down as a whole, by up to 30% for a minute at
/// a time. Twelve back-to-back processes of one workload and seed (the
/// same inputs) gave these spreads (IQR over median) of the process's
/// median `run_s` on that VM:
///
/// | workload            | wall-clock | scaled per run | by process median |
/// |---------------------|-----------:|---------------:|------------------:|
/// | `restaurants_cache` |      0.121 |          0.030 |             0.051 |
/// | `restaurants_scan`  |      0.180 |          0.066 |             0.061 |
///
/// and `setup_s` 0.31–0.40 unscaled against 0.10–0.12 scaled per run.
/// The process medians of this loop and of `run_s` correlated at
/// 0.89–0.94. A cache-resident 256 KiB sort tracked the runs less well
/// (0.049 where this loop gave 0.030).
pub fn calibrate() -> f64 {
    fn fill(buf: &mut [u64], x: &mut u64) {
        for v in buf {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *v = *x;
        }
    }
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    // Filled once untimed, so page faults (which depend on what the
    // allocator holds) stay out of the timing.
    let mut buf = vec![0u64; 1 << 19];
    fill(&mut buf, &mut x);
    let t = std::time::Instant::now();
    for _ in 0..2 {
        fill(&mut buf, &mut x);
        buf.sort_unstable();
    }
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64()
}

/// Metrics reported as the mean of their samples instead of the median:
/// crowd spend, whose per-run values are bimodal on some workloads (the
/// median jumps between the modes) and whose mean is what a budget pays.
const MEAN_METRICS: [&str; 1] = ["cost_usd"];

/// Mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Named samples of one run, in first-recorded order.
#[derive(Default)]
pub struct Samples {
    entries: Vec<(String, &'static str, Vec<f64>)>,
}

/// The reported value of metric `name`: its mean or its median.
fn reported(name: &str, v: &[f64]) -> f64 {
    if MEAN_METRICS.contains(&name) {
        mean(v)
    } else {
        median(v)
    }
}

impl Samples {
    /// Record one observation of `name`.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.entries.push((name.to_string(), unit, vec![value])),
        }
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| v.as_slice())
    }

    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, u, _)| *u)
    }

    /// One `<workload> <metric> <value> <unit> <q1> <q3> <n>` line per
    /// metric, where the value is the median (the mean for
    /// [`MEAN_METRICS`]).
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.entries
            .iter()
            .map(|(name, unit, v)| {
                let (q1, _, q3) = quartiles(v);
                let value = reported(name, v);
                format!("{workload} {name} {value} {unit} {q1} {q3} {}", v.len())
            })
            .collect()
    }

    /// `{"<name>": {"value": <value>, "unit": "<unit>"}, ...}` for the
    /// named metrics; `None` if one of them was never recorded.
    pub fn values_json(&self, names: &[&str]) -> Option<Value> {
        let mut out = Vec::with_capacity(names.len());
        for &name in names {
            let v = self.get(name)?;
            let unit = self.unit(name)?;
            out.push((
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(reported(name, v))),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        Some(Value::Obj(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quartiles_of_nothing_panic() {
        quartiles(&[]);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\te2e_bench\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn peak_rss_follows_a_reset() {
        let before = peak_rss_mib().expect("/proc/self/status has VmHWM on Linux");
        assert!(before > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mib().expect("VmHWM");
        assert!(with_big >= before + 60.0, "{before} -> {with_big}");
        drop(big);
        if reset_peak_rss() {
            let after = peak_rss_mib().expect("VmHWM");
            assert!(after < with_big - 60.0, "reset left the peak at {after}");
        }
    }

    #[test]
    fn calibration_takes_measurable_time() {
        let secs = calibrate();
        assert!(secs > 1e-4 && secs < 10.0, "{secs}");
    }

    #[test]
    fn samples_report_median_quartiles_and_count() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push("run_s", "s", v);
        }
        s.push("f1", "fraction", 0.5);
        for v in [1.0, 1.0, 4.0] {
            s.push("cost_usd", "USD", v);
        }
        assert_eq!(
            s.lines("w"),
            vec![
                "w run_s 3 s 1.5 4.5 5",
                "w f1 0.5 fraction 0.5 0.5 1",
                "w cost_usd 2 USD 1 4 3",
            ]
        );
        let json = serde_json::to_string(&s.values_json(&["f1"]).expect("recorded")).expect("json");
        assert_eq!(json, r#"{"f1":{"value":0.5,"unit":"fraction"}}"#);
        assert!(s.values_json(&["missing"]).is_none());
    }
}
