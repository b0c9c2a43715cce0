//! `cold_stream`: one in-process closed-loop caller of `Service::run`,
//! every request a query the service has never seen. Each request pays
//! train → score → pilot → design → stage 2; the result cache and the
//! model store do no work.

use lts_core::mix_seed;
use lts_serve::{Response, Service, ServiceConfig};
use lts_table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::SeedableRng;
use std::sync::Arc;

use crate::data::{self, Census, Query, QueryGen, Sports};
use crate::report::{self, Report};
use crate::serving::{self, LayerCounts, Quality};
use crate::trace::Tracer;
use crate::Args;

const ROWS: usize = 10_000;
/// The request classes, cycled in order. Seven classes keep the median
/// and the tail percentile inside one class's latencies rather than on
/// the gap between two.
const CLASSES: [(&str, usize); 7] = [
    ("range", 300),
    ("skyband", 300),
    ("range_skyband", 300),
    ("range", 600),
    ("skyband", 600),
    ("range_skyband", 600),
    ("skyband", 450),
];
const TAIL: f64 = 0.8;
/// The first this-many requests ask a fixed pool of queries (9 per
/// class) in seeded order; coverage, error and eval counts come from
/// them. Cold coverage varies so much from design to design (ROADMAP
/// item 1) that a pool drawn afresh per seed moved it by a quarter
/// between seeds.
const QUALITY_N: usize = 63;

struct Setup {
    sports: Sports,
    service: Service,
}

fn setup(census: &Census, report: &mut Report) -> Setup {
    let sports = data::sports(ROWS);
    let mut service = serving::service(&sports);
    // Warm-up: one cold request on the calibrated skyband, a query the
    // timed stream never repeats.
    let warmup = Query::Skyband {
        k: census.k_calibrated,
    };
    let r = service.run(serving::request(0, &warmup, 300, false));
    serving::check(report, &r, ROWS);
    report.check(r.served == "cold", || {
        format!("warm-up served {}", r.served)
    });
    Setup { sports, service }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (
        Setup {
            sports,
            mut service,
        },
        census,
    ) = crate::repeated_setup(report, |report| Census::new(ROWS, args.seed, report), setup);
    report.wall("data.generate_s", sports.generate_s, "s");
    let table = Arc::clone(&sports.table);
    // The pool: QUALITY_N queries, the same in every run. The stream
    // keeps the class cycle, so any stretch of it (and each side of the
    // traced run's alternation) mixes the classes evenly; the order
    // within each class is seeded. Requests past the pool draw further
    // never-seen queries from the seed.
    let warmup = Query::Skyband {
        k: census.k_calibrated,
    };
    let mut pool_gen = QueryGen::new(&census, mix_seed(data::TABLE_SEED, 0xC01D));
    pool_gen.reserve(&warmup);
    let mut by_class: Vec<Vec<(Query, usize)>> = vec![Vec::new(); CLASSES.len()];
    for i in 0..QUALITY_N {
        let (kind, budget) = CLASSES[i % CLASSES.len()];
        by_class[i % CLASSES.len()].push((pool_gen.fresh(kind), budget));
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(args.seed, 0x5F));
    for class in &mut by_class {
        class.shuffle(&mut rng);
    }
    let mut pool: Vec<(Query, usize)> = (0..QUALITY_N)
        .map(|i| by_class[i % CLASSES.len()].pop().expect("a full cycle"))
        .collect();
    let mut gen = QueryGen::new(&census, mix_seed(args.seed, 0xC01D));
    gen.reserve(&warmup);
    for (q, _) in &pool {
        gen.reserve(q);
    }
    pool.reverse();
    let lss = ServiceConfig::default().lss;

    let mut stream = Stream {
        pool,
        gen,
        census: &census,
        table: &table,
        lss,
        quality: Quality::default(),
        first: Vec::new(),
        counts: LayerCounts::default(),
        next: 0,
    };
    if args.trace {
        crate::traced_loop(args.seconds, 16, tracer, report, |t, r| {
            stream.send(t, r, &mut service)
        });
    } else {
        let min_n = QUALITY_N.max(report::samples_for_tail(TAIL));
        let mut probe = crate::host::Probe::new();
        let (done, elapsed, start) = crate::closed_loop(args.seconds, min_n, &mut probe, || {
            stream.send(tracer, report, &mut service)
        });
        // One window: a run completes about 60 requests, too few to cut
        // into windows that each hold whole cycles of the seven classes.
        report::closed_loop_metrics(report, &done, elapsed, TAIL, 1, &probe, start);
    }
    // Top up the quality set when the traced run stopped short of it.
    while stream.quality.len() < QUALITY_N {
        stream.send(tracer, report, &mut service);
    }
    let Stream {
        quality,
        first,
        counts,
        ..
    } = stream;

    // Re-asks must come from the cache, bit for bit; a fixed fresh id
    // must replay bit for bit.
    for (j, (q, budget, r0)) in first.iter().enumerate() {
        let r = service.run(serving::request(900_000 + j as u64, q, *budget, false));
        serving::check(report, &r, ROWS);
        report.check(
            r.served == "cached" && serving::bits(&r) == serving::bits(r0),
            || {
                format!(
                    "re-ask of `{}` served {} with different bits",
                    q.condition(),
                    r.served
                )
            },
        );
    }
    let (q, budget, _) = &first[0];
    let a = service.run(serving::request(910_000, q, *budget, true));
    let b = service.run(serving::request(910_000, q, *budget, true));
    for r in [&a, &b] {
        serving::check(report, r, ROWS);
    }
    report.check(serving::bits(&a) == serving::bits(&b), || {
        "fresh replay of a fixed id changed bits".to_string()
    });

    quality.report(report);
    if args.trace {
        quality.report_layers(report);
        serving::layer_metrics(report, tracer, &counts);
    }
    report.det("rows", ROWS as f64, "count");
}

/// The request stream: every call sends the next never-seen query.
struct Stream<'a> {
    /// Queries still to send before drawing new ones, last first.
    pool: Vec<(Query, usize)>,
    gen: QueryGen<'a>,
    census: &'a Census,
    table: &'a Arc<Table>,
    lss: lts_core::Lss,
    quality: Quality,
    first: Vec<(Query, usize, Response)>,
    counts: LayerCounts,
    next: usize,
}

impl Stream<'_> {
    fn send(&mut self, tracer: &mut Tracer, report: &mut Report, service: &mut Service) -> f64 {
        let i = self.next;
        self.next += 1;
        let (q, budget) = self.pool.pop().unwrap_or_else(|| {
            let (kind, budget) = CLASSES[i % CLASSES.len()];
            (self.gen.fresh(kind), budget)
        });
        let id = 1 + i as u64;
        let req = serving::request(id, &q, budget, false);
        let (r, ms) = serving::timed_run(tracer, report, service, self.table, req, "cold", ROWS);
        if self.quality.len() < QUALITY_N {
            self.quality.add(&r, self.census.truth(&q));
        }
        if tracer.enabled() && r.ok {
            let seed = serving::prepare_seed(service, &q.condition(), r.budget);
            replay_cold(
                tracer,
                report,
                &mut self.counts,
                &self.lss,
                self.table,
                &q,
                &r,
                ms,
                seed,
            );
        }
        if self.first.len() < 3 {
            self.first.push((q, budget, r));
        }
        ms
    }
}

/// The traced replay of one cold request through the core layers:
/// prefilter (decomposed queries), the composite prepare, its
/// phase-by-phase replay, and the stage-2 resume. `seed` is the
/// service's prepare seed for this request.
#[allow(clippy::too_many_arguments)]
fn replay_cold(
    tracer: &mut Tracer,
    report: &mut Report,
    counts: &mut LayerCounts,
    lss: &lts_core::Lss,
    table: &Arc<Table>,
    q: &Query,
    r: &Response,
    run_ms: f64,
    seed: u64,
) {
    let id = r.id;
    let mut problem = data::sql_problem(table, q);
    let mut core_ns = 0u64;
    if let Query::RangeSkyband { .. } = q {
        problem = serving::traced_prefilter(tracer, id, table, q, &problem);
        core_ns += tracer.last_ns("core.prefilter").unwrap_or(0);
    }
    let warm = tracer.span("core.prepare", id, |_| {
        lss.prepare(&problem, r.budget, seed)
            .expect("composite prepare")
    });
    core_ns += tracer.last_ns("core.prepare").unwrap_or(0);
    report.check(warm.digest() == r.model_version, || {
        format!("id {id}: Lss::prepare under the stored seed differs from the served state")
    });
    let replay = tracer.span("core.prepare_replay", id, |t| {
        crate::replay::prepare(t, id, lss, &problem, r.budget, seed)
    });
    report.check(replay.digest == warm.digest(), || {
        format!("id {id}: phase-by-phase prepare digest differs from Lss::prepare")
    });
    report.check(replay.prepare_evals == warm.prepare_evals, || {
        format!(
            "id {id}: replay spent {} evals, Lss::prepare {}",
            replay.prepare_evals, warm.prepare_evals
        )
    });
    counts.label_evals += replay.pilot_evals as u64;
    counts.prepare_evals.push(warm.prepare_evals as f64);
    let est = tracer.span("core.resume", id, |_| {
        lss.estimate_prepared(&problem, &warm, mix_seed(seed, 1))
            .expect("resume")
    });
    core_ns += tracer.last_ns("core.resume").unwrap_or(0);
    counts.resume_evals.push(est.evals as f64);
    counts.self_us.push(run_ms * 1e3 - core_ns as f64 / 1e3);
}
