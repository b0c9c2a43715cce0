//! `net_mixed`: an in-process `NetServer` on loopback, driven by one
//! generator over one connection. The run is a series of rounds, each
//! an open-loop window at a fixed reference rate, a closed-loop
//! ping-pong with one request outstanding (the gated figures) and a
//! closed-loop burst that keeps a few requests outstanding, and ends
//! with a staircase of higher offered rates. Four requests in five
//! re-ask a working-set query (answered from the result cache) and one
//! asks it `fresh` (a warm resume), at a seeded position in each block
//! of five. Latency runs from each request's due time to its response,
//! so time spent queued behind a slow request counts.
//!
//! Every response line is checked against `Response::to_json(true)`
//! from an in-process service that replays the same lines in order.

use lts_core::mix_seed;
use lts_serve::{
    handle_line, LineOutcome, NetConfig, NetServer, ReplOptions, Response, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::data::{self, Census, Query, DATASET};
use crate::host::Probe;
use crate::report::{self, Report};
use crate::serving::{self, LayerCounts, Quality};
use crate::trace::Tracer;
use crate::warm_fresh::working_set;
use crate::Args;

const ROWS: usize = 10_000;
/// The reference rates, requests per second, alternated over the
/// rounds' open-loop windows. Their latencies, which include time
/// queued behind a `fresh` resume, are printed per rate.
const REF_RATES: [f64; 2] = [15.0, 30.0];
/// Rounds of (reference window, ping-pong, burst). The gated figures
/// are the medians of the per-round figures, so a host slowdown over
/// part of the run moves only some rounds.
const ROUNDS: usize = 6;
/// Shares of the run held by the reference windows, the ping-pong
/// loops and the bursts; the staircase gets the rest.
const REF_SHARE: f64 = 0.2;
const PONG_SHARE: f64 = 0.4;
const BURST_SHARE: f64 = 0.3;
/// Requests kept outstanding during a burst: enough that the
/// dispatcher never waits for the client.
const BURST_WINDOW: usize = 8;
/// The staircase of offered rates after the rounds, for `max_rate_rps`.
/// It stops after the first rate that misses the latency limit.
const STEP_RATES: [f64; 3] = [80.0, 160.0, 240.0];
/// p90, not p95: a fifth of the requests are `fresh` resumes, so p95 sits
/// among the few slowest of them, where one host hiccup moved it by half
/// between runs.
const TAIL: f64 = 0.9;
/// A rate meets the limit when its tail latency is at most this.
const LIMIT_MS: f64 = 100.0;
/// One request in this many is `fresh`; the rest re-ask.
const FRESH_EVERY: usize = 5;
/// Quality and the cache-hit rate come from the first this-many
/// ping-pong requests; the first round's ping-pong loop runs until it
/// has sent them.
const QUALITY_N: usize = 240;
/// Longest the generator parks before it looks at the count of
/// responses again; the receiver unparks it sooner on each response.
const WAIT: Duration = Duration::from_millis(1);
/// How long to wait for outstanding responses.
const DRAIN: Duration = Duration::from_secs(60);

struct Setup {
    /// Taken, shut down and joined on drop, so a set-up's threads have
    /// ended before the next set-up starts.
    server: Option<NetServer>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    generate_s: f64,
}

fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn, "{line}").expect("send request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp.trim_end().to_string()
}

/// The lines that register the table and prepare the working set.
fn setup_lines(set: &[(Query, usize)]) -> Vec<String> {
    let mut lines = vec![format!(
        "register sports {DATASET} rows={ROWS} level=M seed={}",
        data::TABLE_SEED
    )];
    lines.extend(
        set.iter()
            .enumerate()
            .map(|(e, (q, b))| serving::line(e as u64, q, *b, false)),
    );
    lines
}

fn setup(set: &[(Query, usize)], report: &mut Report) -> Setup {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            service: ServiceConfig::default(),
            repl: ReplOptions {
                deterministic: true,
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let t0 = Instant::now();
    let lines = setup_lines(set);
    let registered = roundtrip(&mut conn, &mut reader, &lines[0]);
    let generate_s = t0.elapsed().as_secs_f64();
    report.check(registered.contains("\"registered\""), || {
        format!("register failed: {registered}")
    });
    for line in &lines[1..] {
        let resp = roundtrip(&mut conn, &mut reader, line);
        report.check(resp.contains("\"served\": \"cold\""), || {
            format!("set-up request not cold: {resp}")
        });
    }
    Setup {
        server: Some(server),
        conn,
        reader,
        generate_s,
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Deals `0..n` in seeded shuffled rounds, so every entry is asked
/// equally often over a run.
struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Self {
        Deck {
            n,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut StdRng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
        }
        let i = rng.random_range(0..self.left.len());
        self.left.swap_remove(i)
    }
}

/// A stream of requests in the workload's mix: one `fresh` at a seeded
/// position in each block of [`FRESH_EVERY`], the rest re-asks. The
/// reference windows and the load (bursts and staircase) draw from two
/// streams, so the reference requests — and the quality taken over
/// them — do not depend on how many requests a burst completed.
struct Mix {
    rng: StdRng,
    salt: u64,
    k: usize,
    fresh_at: usize,
    fresh: Deck,
    cached: Deck,
}

impl Mix {
    fn new(salt: u64, entries: usize) -> Self {
        Mix {
            rng: StdRng::seed_from_u64(mix_seed(salt, 0x0E7)),
            salt,
            k: 0,
            fresh_at: 0,
            fresh: Deck::new(entries),
            cached: Deck::new(entries),
        }
    }

    /// The next request: its id, working-set entry and whether it is
    /// `fresh`.
    fn next(&mut self) -> (u64, usize, bool) {
        let k = self.k;
        self.k += 1;
        if k.is_multiple_of(FRESH_EVERY) {
            self.fresh_at = k + self.rng.random_range(0..FRESH_EVERY);
        }
        let fresh = k == self.fresh_at;
        let deck = if fresh {
            &mut self.fresh
        } else {
            &mut self.cached
        };
        (
            mix_seed(self.salt, k as u64),
            deck.deal(&mut self.rng),
            fresh,
        )
    }
}

/// Where in the run a request was sent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Window {
    /// The open-loop reference window of a round.
    Reference(usize),
    /// The closed-loop ping-pong of a round: one request outstanding.
    Pong(usize),
    /// The closed-loop burst of a round.
    Burst(usize),
    /// A step of the staircase.
    Step(usize),
}

/// One request sent.
struct Sent {
    id: u64,
    entry: usize,
    fresh: bool,
    window: Window,
    due: Instant,
    lateness_ms: f64,
    backlog: usize,
}

/// Requests in reference window `round` of a run whose windows last
/// `window_s` seconds.
fn window_len(round: usize, window_s: f64) -> usize {
    let rate = REF_RATES[round % REF_RATES.len()];
    ((rate * window_s).round() as usize).max(1)
}

/// The client side of the connection during the run.
struct Client<'a> {
    conn: &'a mut TcpStream,
    set: &'a [(Query, usize)],
    received: &'a AtomicUsize,
    sent: Vec<Sent>,
    buf: Vec<u8>,
    probe: Probe,
    last_probe: f64,
}

impl Client<'_> {
    fn send(&mut self, mix: &mut Mix, window: Window, due: Instant) {
        let (id, entry, fresh) = mix.next();
        let (q, budget) = &self.set[entry];
        self.buf.clear();
        writeln!(self.buf, "{}", serving::line(id, q, *budget, fresh)).expect("format");
        let lateness_ms = due.elapsed().as_secs_f64() * 1e3;
        self.conn.write_all(&self.buf).expect("send request");
        self.sent.push(Sent {
            id,
            entry,
            fresh,
            window,
            due,
            lateness_ms,
            backlog: self.outstanding(),
        });
    }

    fn outstanding(&self) -> usize {
        self.sent.len() - self.received.load(Ordering::SeqCst)
    }

    /// Open loop: `n` requests due at `rate` from now.
    fn open_loop(&mut self, mix: &mut Mix, window: Window, rate: f64, n: usize) {
        let start = Instant::now();
        for j in 0..n {
            let due = start + Duration::from_secs_f64(j as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.send(mix, window, due);
        }
    }

    /// Closed loop for `seconds`: keep [`BURST_WINDOW`] requests
    /// outstanding, each due when sent.
    fn burst(&mut self, mix: &mut Mix, window: Window, seconds: f64) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            if self.outstanding() < BURST_WINDOW {
                self.send(mix, window, Instant::now());
            } else {
                std::thread::park_timeout(WAIT);
            }
        }
    }

    /// Closed loop with one request outstanding, for `seconds` and at
    /// least `min_n` requests: send, wait for the response, repeat. The
    /// host is probed between requests, as in the in-process closed
    /// loops (see [`crate::host`]).
    fn pong(&mut self, mix: &mut Mix, window: Window, seconds: f64, min_n: usize) {
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed().as_secs_f64() < seconds || n < min_n {
            self.send(mix, window, Instant::now());
            self.drain();
            n += 1;
            if self.probe.now() - self.last_probe >= crate::PROBE_EVERY_S {
                self.last_probe = self.probe.now();
                self.probe.sample();
            }
        }
    }

    /// Wait until every request sent so far has its response.
    fn drain(&self) {
        let t0 = Instant::now();
        while self.outstanding() > 0 && t0.elapsed() < DRAIN {
            std::thread::park_timeout(WAIT);
        }
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (mut setup, census) = crate::repeated_setup(
        report,
        |report| Census::new(ROWS, args.seed, report),
        |census, report| setup(&working_set(census), report),
    );
    report.wall("data.generate_s", setup.generate_s, "s");
    let set = working_set(&census);

    // ---- the run -------------------------------------------------------
    let received = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    // Arrival time and a hash of each response line. Keeping the hash
    // rather than the line keeps the benchmark's own memory out of
    // `peak_rss_mb`.
    let responses: Mutex<Vec<(Instant, u64)>> = Mutex::new(Vec::new());
    setup
        .conn
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut client = Client {
        conn: &mut setup.conn,
        set: &set,
        received: &received,
        sent: Vec::new(),
        buf: Vec::new(),
        probe: Probe::new(),
        last_probe: f64::NEG_INFINITY,
    };
    std::thread::scope(|scope| {
        let reader = &mut setup.reader;
        let (received, done, responses) = (&received, &done, &responses);
        // The generator parks while it waits for responses; the receiver
        // wakes it on each one. Polling instead kept a third thread
        // waking on two cores.
        let generator = std::thread::current();
        let receiver = scope.spawn(move || {
            let mut line = String::new();
            while !done.load(Ordering::SeqCst) {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        responses
                            .lock()
                            .expect("responses lock")
                            .push((at, line_hash(line.trim_end())));
                        received.fetch_add(1, Ordering::SeqCst);
                        generator.unpark();
                        line.clear();
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
        });

        let mut ref_mix = Mix::new(args.seed, set.len());
        let mut pong_mix = Mix::new(mix_seed(args.seed, 0x90), set.len());
        let mut load_mix = Mix::new(mix_seed(args.seed, 0xB0), set.len());
        let window_s = args.seconds * REF_SHARE / ROUNDS as f64;
        let pong_s = args.seconds * PONG_SHARE / ROUNDS as f64;
        let burst_s = args.seconds * BURST_SHARE / ROUNDS as f64;
        for round in 0..ROUNDS {
            let rate = REF_RATES[round % REF_RATES.len()];
            let n = window_len(round, window_s);
            client.open_loop(&mut ref_mix, Window::Reference(round), rate, n);
            client.drain();
            let min_n = if round == 0 { QUALITY_N } else { 0 };
            client.pong(&mut pong_mix, Window::Pong(round), pong_s, min_n);
            client.burst(&mut load_mix, Window::Burst(round), burst_s);
            client.drain();
        }
        let step_s = args.seconds * (1.0 - REF_SHARE - BURST_SHARE) / STEP_RATES.len() as f64;
        for (step, &rate) in STEP_RATES.iter().enumerate() {
            let n = ((rate * step_s).round() as usize).max(1);
            client.open_loop(&mut load_mix, Window::Step(step), rate, n);
            if !drains_in_limit(&client.sent, Window::Step(step), rate) {
                break;
            }
        }
        client.drain();
        done.store(true, Ordering::SeqCst);
        receiver.join().expect("receiver thread");
    });
    let Client { sent, probe, .. } = client;
    drop(setup);
    let responses = responses.into_inner().expect("responses lock");
    // The peak of set-up and the run. The in-process replay below is
    // the benchmark's own check: it holds a second service and table,
    // and its peak landed 3 MB high or not as the allocator happened to
    // reuse the server's freed memory.
    report.wall("peak_rss_mb", report::peak_rss_mb(), "MB");

    // ---- correctness: replay every line in-process ----------------------
    let config = ServiceConfig::default();
    let mut reference = Service::new(config);
    let mut session = lts_serve::SessionState::default();
    let opts = ReplOptions {
        deterministic: true,
    };
    let lines = setup_lines(&set);
    let _ = handle_line(&mut reference, &mut session, opts, &lines[0]);
    let table = Arc::clone(&data::sports(ROWS).table);
    let first: Vec<Response> = set
        .iter()
        .enumerate()
        .map(|(e, (q, b))| reference.run(serving::request(e as u64, q, *b, false)))
        .collect();
    let mut counts = LayerCounts::default();
    let replicas = if args.trace {
        serving::replicas(tracer, report, &config, &reference, &table, &set, &first)
    } else {
        Vec::new()
    };
    report.check(responses.len() == sent.len(), || {
        format!(
            "{} of {} requests got no response",
            sent.len() - responses.len(),
            sent.len()
        )
    });
    let mut quality = Quality::default();
    let mut inproc_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut probe_rng = StdRng::seed_from_u64(mix_seed(args.seed, 0x9B0E));
    for (k, s) in sent.iter().enumerate() {
        let (q, budget) = &set[s.entry];
        let Some((_, got)) = responses.get(k) else {
            report.attempted += 1;
            report.failed += 1;
            continue;
        };
        let on = args.trace && k % 2 == 1;
        tracer.set_enabled(on);
        let step_t0 = Instant::now();
        let expect = if s.fresh { "warm" } else { "cached" };
        let req = serving::request(s.id, q, *budget, s.fresh);
        let (r, ms) = serving::timed_run(tracer, report, &mut reference, &table, req, expect, ROWS);
        let want = r.to_json(true);
        report.check(*got == line_hash(&want), || {
            format!(
                "id {}: net response differs from in-process\n  in:  {want}",
                s.id
            )
        });
        if !s.fresh {
            report.check(serving::bits(&r) == serving::bits(&first[s.entry]), || {
                format!("id {}: cached answer differs from its first answer", s.id)
            });
        }
        let is_ref = matches!(s.window, Window::Reference(_));
        if matches!(s.window, Window::Pong(_)) && quality.len() < QUALITY_N {
            quality.add(&r, census.truth(q));
        }
        if args.trace {
            // The protocol layer: the same line through `handle_line`,
            // which must replay the same bytes.
            let line = serving::line(s.id, q, *budget, s.fresh);
            let open = tracer.begin("serve.protocol", s.id);
            let t0 = Instant::now();
            let out = handle_line(&mut reference, &mut session, opts, &line);
            let proto_ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end(open);
            let LineOutcome::Reply(text) = out else {
                unreachable!("count always replies")
            };
            report.check(line_hash(&text) == *got, || {
                format!("id {}: handle_line replay differs", s.id)
            });
            if is_ref {
                inproc_ms[usize::from(s.fresh)].push(proto_ms);
            }
            if s.fresh && on {
                let rep = &replicas[s.entry];
                serving::traced_resume(tracer, &mut counts, rep, &config, s.id, ms, &mut probe_rng);
            }
            let step_ms = step_t0.elapsed().as_secs_f64() * 1e3;
            if on {
                traced.push(step_ms);
            } else {
                untraced.push(step_ms);
            }
        }
    }
    tracer.set_enabled(false);

    // ---- metrics ---------------------------------------------------------
    let latency_ms = |k: usize| -> f64 {
        responses.get(k).map_or(f64::INFINITY, |(at, _)| {
            at.duration_since(sent[k].due).as_secs_f64() * 1e3
        })
    };
    let in_window =
        |w: Window| -> Vec<usize> { (0..sent.len()).filter(|&k| sent[k].window == w).collect() };
    let sorted_latencies = |ks: &[usize]| -> Vec<f64> {
        let mut lat: Vec<f64> = ks.iter().map(|&k| latency_ms(k)).collect();
        lat.sort_by(f64::total_cmp);
        lat
    };
    // The gated figures come from the ping-pong loops: per round, the
    // p50 and tail of the latencies, each divided by the host's slowdown
    // around it, and the completion rate times the slowdown over the
    // loop (see `crate::host`); wall figures are kept as `raw.*`. The
    // open-loop windows, whose medians and tails moved by a fifth to a
    // third between runs with how long the cores had slept between
    // arrivals, and the bursts, paced by thread wake-ups on two cores,
    // are printed but not gated.
    let span = |ks: &[usize]| -> Option<(f64, f64)> {
        let (&a, &b) = ks.first().zip(ks.last())?;
        let (end, _) = responses.get(b)?;
        Some((probe.secs(sent[a].due), probe.secs(*end)))
    };
    let (mut figures, mut burst_rps) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let pong = in_window(Window::Pong(round));
        let burst = in_window(Window::Burst(round));
        let (Some((from, to)), Some((b_from, b_to))) = (span(&pong), span(&burst)) else {
            continue;
        };
        let raw = sorted_latencies(&pong);
        let mut adjusted: Vec<f64> = pong
            .iter()
            .filter_map(|&k| {
                let (at, _) = responses.get(k)?;
                let ms = latency_ms(k);
                Some(ms / probe.slowdown_around(probe.secs(*at), ms))
            })
            .collect();
        adjusted.sort_by(f64::total_cmp);
        let rps = pong.len() as f64 / (to - from);
        let slowdown = probe.slowdown(from, to);
        figures.push(report::window_figures(&raw, &adjusted, TAIL, rps, slowdown));
        burst_rps.push(burst.len() as f64 / (b_to - b_from));
    }
    let mut max_rate = 0.0;
    for (i, &rate) in REF_RATES.iter().enumerate() {
        let ks: Vec<usize> = (i..ROUNDS)
            .step_by(REF_RATES.len())
            .flat_map(|round| in_window(Window::Reference(round)))
            .collect();
        let lat = sorted_latencies(&ks);
        let tail = report::percentile(&lat, TAIL);
        report.wall(
            &format!("rate_{rate}.latency_p50_ms"),
            report::percentile(&lat, 0.5),
            "ms",
        );
        report.wall(&format!("rate_{rate}.latency_tail_ms"), tail, "ms");
        if tail <= LIMIT_MS && rate > max_rate {
            max_rate = rate;
        }
    }
    for (step, &rate) in STEP_RATES.iter().enumerate() {
        let ks = in_window(Window::Step(step));
        if ks.is_empty() {
            break;
        }
        let lat = sorted_latencies(&ks);
        let tail = report::percentile(&lat, TAIL);
        report.wall(
            &format!("rate_{rate}.latency_p50_ms"),
            report::percentile(&lat, 0.5),
            "ms",
        );
        report.wall(&format!("rate_{rate}.latency_tail_ms"), tail, "ms");
        if drains_in_limit(&sent, Window::Step(step), rate) && tail <= LIMIT_MS {
            max_rate = rate;
        }
    }
    report.wall("max_rate_rps", max_rate, "1/s");
    report.det("latency_limit_ms", LIMIT_MS, "ms");
    let in_ref: Vec<usize> = (0..sent.len())
        .filter(|&k| matches!(sent[k].window, Window::Reference(_)))
        .collect();
    quality.report(report);
    if args.trace {
        quality.report_layers(report);
        serving::layer_metrics(report, tracer, &counts);
        crate::overhead(report, &untraced, &traced);
        let wait = |fresh: bool| {
            let client: Vec<f64> = in_ref
                .iter()
                .filter(|&&k| sent[k].fresh == fresh)
                .map(|&k| latency_ms(k))
                .collect();
            let n = client.len() as f64;
            (report::median(&client) - report::median(&inproc_ms[usize::from(fresh)])) * n
        };
        let n_ref = in_ref.len().max(1) as f64;
        report.wall(
            "serve.net.wait_ms",
            (wait(false) + wait(true)) / n_ref,
            "ms",
        );
        let backlog = in_ref.iter().map(|&k| sent[k].backlog).max().unwrap_or(0);
        report.wall("serve.net.backlog", backlog as f64, "count");
        let late: Vec<f64> = in_ref.iter().map(|&k| sent[k].lateness_ms).collect();
        report.wall(
            "serve.net.generator_lateness_ms",
            report::median(&late),
            "ms",
        );
    } else {
        // The pooled ping-pong latencies carry the tail-sample check and
        // the printed sample count; the gated figures are the medians
        // over rounds.
        let in_pong: Vec<usize> = (0..sent.len())
            .filter(|&k| matches!(sent[k].window, Window::Pong(_)))
            .collect();
        report::tail_samples(report, &sorted_latencies(&in_pong), TAIL);
        report::report_window_medians(report, &figures);
        report.wall("burst_rps", report::median(&burst_rps), "1/s");
        report.wall("host.slowdown", probe.run_slowdown(), "x");
    }
    report.det("rounds", ROUNDS as f64, "count");
    report.det("rows", ROWS as f64, "count");
}

/// Whether `window` ended without a growing backlog: at its last send,
/// no more requests were outstanding than `rate` drains within the
/// latency limit.
fn drains_in_limit(sent: &[Sent], window: Window, rate: f64) -> bool {
    let last = sent.iter().rev().find(|s| s.window == window);
    last.is_none_or(|s| (s.backlog as f64) <= rate * LIMIT_MS / 1e3 + 1.0)
}

/// A hash of one response line, for comparing lines without keeping
/// them.
fn line_hash(line: &str) -> u64 {
    use std::hash::{DefaultHasher, Hash as _, Hasher as _};
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}
