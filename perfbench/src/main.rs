//! One benchmark for the counting service.
//!
//! ```text
//! perfbench --workload <cold_stream|warm_fresh|net_mixed|exact_scan>
//!           --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload in this process, checks every output, prints the
//! report and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics). Exits non-zero when any check
//! fails. See `README.md` beside this crate for the workloads.

mod cold_stream;
mod data;
mod exact_scan;
mod host;
mod net_mixed;
mod replay;
mod report;
mod serving;
mod trace;
mod warm_fresh;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Host probes taken just before and just after each set-up.
const SETUP_PROBES: usize = 8;

/// Shortest gap between two host probes in a closed loop, seconds.
pub const PROBE_EVERY_S: f64 = 0.1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/target/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    let mut tracer = Tracer::new();
    match args.workload.as_str() {
        "cold_stream" => cold_stream::run(&args, &mut report, &mut tracer),
        "warm_fresh" => warm_fresh::run(&args, &mut report, &mut tracer),
        "net_mixed" => net_mixed::run(&args, &mut report, &mut tracer),
        "exact_scan" => exact_scan::run(&args, &mut report, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    if args.trace {
        report.wall("rayon.collect_us", rayon_collect_us(), "us");
        fill_bypassed(&mut report);
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            report.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            });
        }
    }
    if !report.has("peak_rss_mb") {
        report.wall("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.wall("failed_share", failed_share, "share");
    // Host properties depend on the machine, not the seed: filed with
    // the wall fields so seed-pure diffs skip them.
    report.wall("host.threads", rayon::current_num_threads() as f64, "count");
    report.print_report();
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Take the census once, timed on its own as `table.census_s`, then run
/// set-up [`SETUP_REPS`] times and report the median as `setup_s`. Each
/// earlier set-up is dropped before the next is built. Each set-up's
/// wall is divided by the host's slowdown over it, from probes taken
/// just before and just after (see [`host`]); the median wall is kept
/// as `raw.setup_s`.
pub fn repeated_setup<S, C>(
    report: &mut Report,
    census: impl FnOnce(&mut Report) -> C,
    mut build: impl FnMut(&C, &mut Report) -> S,
) -> (S, C) {
    let t0 = Instant::now();
    let c = census(report);
    report.wall("table.census_s", t0.elapsed().as_secs_f64(), "s");
    let mut probe = host::Probe::new();
    let (mut raw, mut adjusted) = (Vec::new(), Vec::new());
    let mut state = None;
    trim_heap();
    for _ in 0..SETUP_REPS {
        drop(state.take());
        trim_heap();
        let from = probe.now();
        for _ in 0..SETUP_PROBES {
            probe.sample();
        }
        let t0 = Instant::now();
        state = Some(build(&c, report));
        let s = t0.elapsed().as_secs_f64();
        for _ in 0..SETUP_PROBES {
            probe.sample();
        }
        raw.push(s);
        adjusted.push(s / probe.slowdown(from, probe.now()));
    }
    report.wall("setup_s", report::median(&adjusted), "s");
    report.wall("raw.setup_s", report::median(&raw), "s");
    (state.expect("at least one set-up"), c)
}

/// Hand freed heap back to the system, so each set-up starts from the
/// same resident set whichever threads' arenas the last one used. Without
/// it `net_mixed`'s peak resident set landed 3 MB high or not from run to
/// run, as a new server's threads did or did not reuse the old one's
/// freed memory.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory; no
        // live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Closed loop: call `step` (which returns its latency in ms) until
/// `seconds` have passed and at least `min_n` calls completed, probing
/// the host between calls at most every [`PROBE_EVERY_S`]. Returns each
/// call's `(completion s from the start, latency ms)`, the loop's wall
/// time in seconds and its start on the probe's clock.
pub fn closed_loop(
    seconds: f64,
    min_n: usize,
    probe: &mut host::Probe,
    mut step: impl FnMut() -> f64,
) -> (Vec<(f64, f64)>, f64, f64) {
    let start = probe.now();
    probe.sample();
    let mut last_probe = start;
    let t0 = Instant::now();
    let mut done = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds || done.len() < min_n {
        let ms = step();
        done.push((t0.elapsed().as_secs_f64(), ms));
        if probe.now() - last_probe >= PROBE_EVERY_S {
            last_probe = probe.now();
            probe.sample();
        }
    }
    (done, t0.elapsed().as_secs_f64(), start)
}

/// The traced run's closed loop: requests alternate untraced and
/// traced, so both sides see the same request mix and the same host
/// conditions, and `bench.trace_overhead_share` compares like with
/// like. `step` runs one request with the recorder switched on or off;
/// the whole step is timed, so a traced request pays for its spans and
/// for the core calls replayed beside it.
pub fn traced_loop(
    seconds: f64,
    min_n: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    mut step: impl FnMut(&mut Tracer, &mut Report) -> f64,
) {
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    closed_loop(seconds, min_n, &mut host::Probe::new(), || {
        let on = lat[0].len() > lat[1].len();
        tracer.set_enabled(on);
        let t0 = Instant::now();
        let ms = step(tracer, report);
        lat[usize::from(on)].push(t0.elapsed().as_secs_f64() * 1e3);
        ms
    });
    tracer.set_enabled(false);
    overhead(report, &lat[0], &lat[1]);
}

/// `bench.trace_overhead_share`: median wall of a whole request step
/// with recording on (spans plus the replays beside the request) over
/// the same with recording off, minus one.
pub fn overhead(report: &mut Report, untraced_ms: &[f64], traced_ms: &[f64]) {
    report.wall(
        "bench.trace_overhead_share",
        report::median(traced_ms) / report::median(untraced_ms) - 1.0,
        "share",
    );
}

/// Median wall of one `collect` over one no-op item per worker thread:
/// the fixed cost of a fan-out on the vendored thread pool.
fn rayon_collect_us() -> f64 {
    use rayon::prelude::*;
    let workers = rayon::current_num_threads();
    let times: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            let v: Vec<usize> = (0..workers)
                .into_par_iter()
                .map(std::hint::black_box)
                .collect();
            std::hint::black_box(v);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report::median(&times)
}

/// A traced run reports every per-layer metric; a layer the workload
/// never calls reports 0.
fn fill_bypassed(report: &mut Report) {
    for &(name, unit) in report::PER_LAYER {
        if !report.has(name) {
            report.det(name, 0.0, unit);
        }
    }
}
