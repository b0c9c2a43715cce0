//! Metric collection, correctness bookkeeping and the result lines.
//!
//! Every metric is filed as either **deterministic** (a pure function
//! of the seed: counts, estimates, coverage) or **wall**-derived
//! (anything a clock or the scheduler can move). The split is carried
//! by the structure of the report line — two objects, `deterministic`
//! and `wall` — so two runs can be diffed with the wall object dropped,
//! without matching field names.

use std::collections::BTreeMap;

use crate::host::Probe;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Deterministic,
    Wall,
}

#[derive(Clone)]
struct Metric {
    value: f64,
    unit: &'static str,
    kind: Kind,
}

/// Names of the end-to-end metrics every workload reports (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("oracle_evals_per_request", "count"),
    ("coverage", "share"),
    ("peak_rss_mb", "MB"),
];

/// Names of the per-layer metrics every traced run reports (the
/// `per_layer` list of `BENCHMARK.json`). A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learn.train_ms", "ms"),
    ("core.score_ms", "ms"),
    ("strata.pilot_ms", "ms"),
    ("strata.design_ms", "ms"),
    ("strata.design_share", "share"),
    ("core.prepare_ms", "ms"),
    ("core.resume_ms", "ms"),
    ("core.prefilter_ms", "ms"),
    ("core.prepare_evals", "count"),
    ("core.resume_evals", "count"),
    ("table.oracle_us_per_eval", "us"),
    ("sampling.zero_width_share", "share"),
    ("serve.run_us.cold", "us"),
    ("serve.run_us.warm", "us"),
    ("serve.run_us.cached", "us"),
    ("serve.self_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("table.parse_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.net.wait_ms", "ms"),
    ("serve.net.backlog", "count"),
    ("serve.net.generator_lateness_ms", "ms"),
    ("table.storage.pages_read", "count"),
    ("table.storage.page_skip_share", "share"),
    ("table.storage.buffer_hit_rate", "share"),
    ("table.storage.evictions", "count"),
    ("table.scan_ms", "ms"),
    ("table.scan_ram_ms", "ms"),
    ("table.census_s", "s"),
    ("rayon.collect_us", "us"),
    ("data.generate_s", "s"),
    ("bench.trace_overhead_share", "share"),
];

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    metrics: BTreeMap<String, Metric>,
    /// Requests sent (including set-up and check requests).
    pub attempted: u64,
    /// Requests that errored or were rejected.
    pub failed: u64,
    /// Broken correctness checks, in order of discovery.
    pub violations: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            trace,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    pub fn det(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, Kind::Deterministic);
    }

    pub fn wall(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, Kind::Wall);
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind) {
        let prev = self
            .metrics
            .insert(name.to_string(), Metric { value, unit, kind });
        assert!(prev.is_none(), "metric `{name}` reported twice");
    }

    /// Record a broken check. The run still completes and reports, but
    /// exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.violations.len() < 20 {
                eprintln!("CHECK FAILED [{}]: {msg}", self.workload);
            }
            self.violations.push(msg);
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable lines, then the structured report line.
    pub fn print_report(&self) {
        println!(
            "== workload {} (seed {}, trace {}) ==",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for (kind, label) in [(Kind::Deterministic, "det "), (Kind::Wall, "wall")] {
            for (name, m) in self.metrics.iter().filter(|(_, m)| m.kind == kind) {
                println!("  [{label}] {name:<36} {:>14.6} {}", m.value, m.unit);
            }
        }
        println!(
            "  attempted {}  failed {}  checks {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "passed".to_string()
            } else {
                format!("FAILED ({})", self.violations.len())
            }
        );
        let section = |kind: Kind| {
            let body: Vec<String> = self
                .metrics
                .iter()
                .filter(|(_, m)| m.kind == kind)
                .map(|(n, m)| metric_json(n, m))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        println!(
            "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
             \"deterministic\": {}, \"wall\": {}}}}}",
            self.workload,
            self.seed,
            self.trace,
            section(Kind::Deterministic),
            section(Kind::Wall)
        );
    }

    /// The result line: exactly the `end_to_end` metrics untraced, or
    /// exactly the `per_layer` metrics traced.
    pub fn result_line(&self) -> String {
        let names = if self.trace { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = names
            .iter()
            .map(|&(n, unit)| {
                let m = self
                    .metrics
                    .get(n)
                    .unwrap_or_else(|| panic!("metric `{n}` was not measured"));
                assert_eq!(m.unit, unit, "metric `{n}` has the wrong unit");
                metric_json(n, m)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn metric_json(name: &str, m: &Metric) -> String {
    let value = if m.value.is_finite() {
        format!("{}", m.value)
    } else {
        "null".to_string()
    };
    format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        m.unit
    )
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Harrell–Davis estimate of the `p` quantile of an ascending slice: a
/// mean of every order statistic weighted by a Beta(p(n+1), (1-p)(n+1))
/// density. Where few samples sit near the quantile, as in the ~60
/// cold requests of a run spread from 0.1 to 0.8 s, it moves about
/// two-thirds as much from run to run as the single order statistic
/// [`percentile`] picks.
pub fn hd_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (cdf - below) * x;
        below = cdf;
    }
    if sorted.is_empty() {
        f64::NAN
    } else {
        sum
    }
}

/// The regularized incomplete beta function `I_x(a, b)`, by its
/// continued fraction (Numerical Recipes, `betai`).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    let floor = |v: f64| if v.abs() < 1e-300 { 1e-300 } else { v };
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 / floor(1.0 - qab * x / qap);
    let mut h = d;
    for m in 1..=1_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 / floor(1.0 + aa * d);
        c = floor(1.0 + aa / c);
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 / floor(1.0 + aa * d);
        c = floor(1.0 + aa / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    use std::f64::consts::PI;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let s = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, &c)| s + c / (x + (i + 1) as f64));
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Report `latency_p50_ms`, `latency_tail_ms` and `throughput_rps` of
/// a closed loop of `elapsed` seconds from its completed requests, each
/// `(end, latency)`: completion in seconds from the loop's start and
/// latency in ms. `probe` holds host probes taken between the requests
/// and `start` is the loop's start on its clock.
///
/// Each latency is divided by the host's slowdown around it (see
/// [`crate::host`]) and each window's throughput multiplied by the
/// slowdown over the window; the wall figures are kept as `raw.*`. The
/// loop is cut into `windows` equal spans of completion time and each
/// figure is the median of the per-window figures. The tail percentile
/// is fixed per workload (`tail`), so a run that completes more
/// requests does not switch to a noisier level.
pub fn closed_loop_metrics(
    report: &mut Report,
    done: &[(f64, f64)],
    elapsed: f64,
    tail: f64,
    windows: usize,
    probe: &Probe,
    start: f64,
) {
    let span = elapsed / windows as f64;
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut adj: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(end, ms) in done {
        let w = ((end / span) as usize).min(windows - 1);
        raw[w].push(ms);
        adj[w].push(ms / probe.slowdown_around(start + end, ms));
    }
    let mut figures = Vec::with_capacity(windows);
    for (w, (r, a)) in raw.iter_mut().zip(&mut adj).enumerate() {
        r.sort_by(f64::total_cmp);
        a.sort_by(f64::total_cmp);
        let from = start + w as f64 * span;
        let slowdown = probe.slowdown(from, from + span);
        figures.push(window_figures(r, a, tail, r.len() as f64 / span, slowdown));
    }
    let mut all: Vec<f64> = done.iter().map(|&(_, ms)| ms).collect();
    all.sort_by(f64::total_cmp);
    tail_samples(report, &all, tail);
    report_window_medians(report, &figures);
    report.det("latency_windows", windows as f64, "count");
    report.wall("host.slowdown", probe.run_slowdown(), "x");
}

/// The figures a timed loop reports per window, in order: p50, tail
/// and throughput adjusted for the host (see [`crate::host`]), then the
/// same three as measured.
const WINDOW_FIGURES: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_tail_ms", "ms"),
    ("raw.throughput_rps", "1/s"),
];

/// One window's [`WINDOW_FIGURES`] from its ascending wall latencies
/// `raw`, the same divided by the host's slowdown around each,
/// `adjusted` (also ascending), the `tail` level, the window's
/// completion rate `rps` and the host's slowdown over the window.
pub fn window_figures(
    raw: &[f64],
    adjusted: &[f64],
    tail: f64,
    rps: f64,
    slowdown: f64,
) -> [f64; 6] {
    [
        hd_quantile(adjusted, 0.5),
        hd_quantile(adjusted, tail),
        rps * slowdown,
        hd_quantile(raw, 0.5),
        hd_quantile(raw, tail),
        rps,
    ]
}

/// Report each of [`WINDOW_FIGURES`] as its median over the windows.
pub fn report_window_medians(report: &mut Report, windows: &[[f64; 6]]) {
    for (i, &(name, unit)) in WINDOW_FIGURES.iter().enumerate() {
        let values: Vec<f64> = windows.iter().map(|w| w[i]).collect();
        report.wall(name, median(&values), unit);
    }
}

/// Check that at least 10 of the ascending `sorted` latencies lie
/// beyond the `tail` percentile (the run loops until they do), and print
/// the level and sample count.
pub fn tail_samples(report: &mut Report, sorted: &[f64], tail: f64) {
    let beyond = sorted.len() - (tail * sorted.len() as f64).ceil() as usize;
    report.check(beyond >= 10, || {
        format!(
            "only {beyond} samples beyond p{} (of {})",
            tail * 100.0,
            sorted.len()
        )
    });
    report.det("latency_tail_percentile", tail * 100.0, "pct");
    report.wall("latency_samples", sorted.len() as f64, "count");
}

/// Samples needed for at least 10 beyond the `tail` percentile.
pub fn samples_for_tail(tail: f64) -> usize {
    (10.0 / (1.0 - tail)).ceil() as usize + 1
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
