//! Host speed probe.
//!
//! The benchmark shares a few cores of a host whose speed drifts: a
//! fixed loop of equal work takes up to half again as long in one
//! stretch of seconds as in the next, with the process on CPU the whole
//! time. The probe times a fixed kernel that belongs to the benchmark,
//! not to the program under test, between requests; a timing taken at
//! about the same moment is divided by the probe's slowdown against
//! [`NOMINAL_MS`]. A change to the program moves its timings and not
//! the probe, so the ratio still shows it; a change of host speed moves
//! both.

use std::collections::HashMap;
use std::time::Instant;

/// Elements in each of the kernel's buffers: 32 Ki, 256 KiB each.
const LEN: usize = 1 << 15;
/// Passes of the arithmetic half of the kernel over its buffer.
const PASSES: usize = 3;
/// Probe time, in ms, that counts as host speed 1. Any fixed value
/// works, since runs are compared with runs on the same host; this is
/// about what the probe reads on a 2-core x86-64 VM in its usual state,
/// so adjusted times read close to wall times there.
const NOMINAL_MS: f64 = 2.3;
/// Half-width, in seconds, of the span around a timing whose probes
/// give its slowdown: narrower than the host's drift, wide enough to
/// hold a few probes.
const SPAN_S: f64 = 0.5;

pub struct Probe {
    series: Series,
    /// One kernel, or one per worker thread of the pool (see
    /// [`Probe::fork_join`]).
    kernels: Vec<Kernel>,
}

impl Probe {
    /// A probe that runs its kernel on the calling thread.
    pub fn new() -> Self {
        Probe::with_kernels(1)
    }

    /// A probe that runs one kernel on each of `rayon`'s threads at once,
    /// fanned out the way the program's parallel scans are, and times
    /// the whole fan-out. When the host slows one core, a scan split
    /// across both waits for its slower half; a kernel on one thread did
    /// not see that, and left `exact_scan` runs reading a third slow
    /// after adjustment.
    pub fn fork_join() -> Self {
        Probe::with_kernels(rayon::current_num_threads())
    }

    fn with_kernels(n: usize) -> Self {
        let mut kernels: Vec<Kernel> = (0..n).map(|_| Kernel::new()).collect();
        for k in &mut kernels {
            k.run();
        }
        Probe {
            series: Series::new(NOMINAL_MS),
            kernels,
        }
    }

    /// Run the kernel (or kernels) once now and keep the time taken.
    pub fn sample(&mut self) {
        use rayon::prelude::*;
        let t0 = Instant::now();
        if let [k] = self.kernels.as_mut_slice() {
            k.run();
        } else {
            let kernels = std::mem::take(&mut self.kernels);
            self.kernels = kernels
                .into_par_iter()
                .map(|mut k| {
                    k.run();
                    k
                })
                .collect();
        }
        self.series.push(t0);
    }

    /// Seconds since the probe was made, on the clock its samples use.
    pub fn now(&self) -> f64 {
        self.series.secs(Instant::now())
    }

    /// `at` on the same clock; an instant before the probe was made
    /// reads below zero.
    pub fn secs(&self, at: Instant) -> f64 {
        self.series.secs(at)
    }

    /// Host slowdown over `[from, to)` seconds on [`Probe::now`]'s
    /// clock: see [`Series::slowdown`].
    pub fn slowdown(&self, from: f64, to: f64) -> f64 {
        self.series.slowdown(from, to)
    }

    /// Slowdown around a timing that ended at `end` and lasted `ms`: over
    /// its own span widened by [`SPAN_S`] each side.
    pub fn slowdown_around(&self, end: f64, ms: f64) -> f64 {
        self.series.slowdown_around(end, ms)
    }

    /// Slowdown over every probe taken.
    pub fn run_slowdown(&self) -> f64 {
        self.series.slowdown(f64::NEG_INFINITY, f64::INFINITY)
    }
}

/// The probe's fixed work. Its buffers are made once: a kernel that
/// allocated on each call would time the allocator's state, which the
/// program sets.
struct Kernel {
    values: Vec<f64>,
    keys: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        Kernel {
            values: (0..LEN)
                .map(|_| (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64)
                .collect(),
            keys: Vec::with_capacity(LEN),
            index: HashMap::with_capacity(LEN / 4),
        }
    }

    /// Two halves shaped like the program's two kinds of work. One is
    /// arithmetic with data-dependent branches over a buffer in cache,
    /// like labeling rows with the oracle; the other sorts a buffer and
    /// hashes a quarter of it, like training and the design's
    /// bookkeeping. Either half alone followed one kind of request and
    /// not the other when the host slowed.
    fn run(&mut self) {
        let mut acc = 0.0f64;
        for pass in 0..PASSES {
            let cut = 0.5 + pass as f64 * 1e-3;
            for (i, &v) in self.values.iter().enumerate() {
                let y = v * 1.000_1 + acc * 1e-12;
                if y > cut {
                    acc += y;
                } else {
                    acc -= i as f64 * 1e-15;
                }
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        self.keys.clear();
        self.keys.extend((0..LEN).map(|_| xorshift(&mut x)));
        self.keys.sort_unstable();
        self.index.clear();
        for (i, &k) in self.keys.iter().enumerate().step_by(4) {
            self.index.insert(k, i);
        }
        for &k in &self.keys {
            if k & 1 == 0 {
                if let Some(&i) = self.index.get(&k) {
                    acc += i as f64 * 1e-9;
                }
            }
        }
        std::hint::black_box(acc);
    }
}

/// Timed probe samples on one clock.
struct Series {
    t0: Instant,
    nominal_ms: f64,
    /// `(seconds since t0, probe ms)`, in order.
    samples: Vec<(f64, f64)>,
}

impl Series {
    fn new(nominal_ms: f64) -> Self {
        Series {
            t0: Instant::now(),
            nominal_ms,
            samples: Vec::new(),
        }
    }

    /// Keep a sample that started at `start` and ends now.
    fn push(&mut self, start: Instant) {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let at = self.secs(Instant::now());
        self.samples.push((at, ms));
    }

    fn secs(&self, at: Instant) -> f64 {
        match at.checked_duration_since(self.t0) {
            Some(d) => d.as_secs_f64(),
            None => -self.t0.duration_since(at).as_secs_f64(),
        }
    }

    /// Slowdown over `[from, to)` seconds: the mean sample taken then
    /// over the nominal time. The mean, not the median: when the host
    /// takes the CPU away in slices of a few ms (steal time reached a
    /// fifth of the time here), the median sample skips the slices that
    /// the program's timings pay for. With no sample in the span, the
    /// nearest one counts.
    fn slowdown(&self, from: f64, to: f64) -> f64 {
        let a = self.samples.partition_point(|&(t, _)| t < from);
        let b = self.samples.partition_point(|&(t, _)| t < to);
        let ms = if a < b {
            let inside = &self.samples[a..b];
            inside.iter().map(|&(_, ms)| ms).sum::<f64>() / inside.len() as f64
        } else {
            // `a == b`: the nearest sample is the one just before or at it.
            let before = a.checked_sub(1).map(|i| self.samples[i]);
            let after = self.samples.get(a).copied();
            match (before, after) {
                (Some(x), Some(y)) => {
                    if from - x.0 <= y.0 - to {
                        x.1
                    } else {
                        y.1
                    }
                }
                (Some(x), None) | (None, Some(x)) => x.1,
                (None, None) => self.nominal_ms,
            }
        };
        ms / self.nominal_ms
    }

    fn slowdown_around(&self, end: f64, ms: f64) -> f64 {
        self.slowdown(end - ms / 1e3 - SPAN_S, end + SPAN_S)
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
