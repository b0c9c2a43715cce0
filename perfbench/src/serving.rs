//! Shared pieces of the three serving workloads: the service under
//! test, response checks, estimate quality and the per-layer metrics
//! read off the span tree.

use lts_core::{mix_seed, CountingProblem, LssWarm};
use lts_serve::{Request, Response, Service, ServiceConfig, Target};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

use crate::data::{self, Sports, DATASET, FEATURES};
use crate::report::Report;
use crate::trace::Tracer;

/// A service as served — `ServiceConfig::default()`: the serve LSS
/// profile, `shards = 1`, the default root seed — with the Sports table
/// registered.
pub fn service(sports: &Sports) -> Service {
    let mut service = Service::new(ServiceConfig::default());
    service
        .register_dataset(DATASET, Arc::clone(&sports.table), &FEATURES)
        .expect("register dataset");
    service
}

pub fn request(id: u64, q: &data::Query, budget: usize, fresh: bool) -> Request {
    Request {
        id,
        dataset: DATASET.to_string(),
        condition: q.condition(),
        target: Target::Budget(budget),
        fresh,
    }
}

/// The protocol line equivalent to [`request`].
pub fn line(id: u64, q: &data::Query, budget: usize, fresh: bool) -> String {
    format!(
        "count {DATASET} budget={budget} {}id={id} :: {}",
        if fresh { "fresh " } else { "" },
        q.condition()
    )
}

/// The bits of an answer that must replay exactly.
pub fn bits(r: &Response) -> [u64; 5] {
    [
        r.estimate.to_bits(),
        r.std_error.to_bits(),
        r.lo.to_bits(),
        r.hi.to_bits(),
        r.model_version,
    ]
}

/// Count one response against `attempted`/`failed` and check the
/// invariants every `ok` response must hold.
pub fn check(report: &mut Report, r: &Response, n_rows: usize) {
    report.attempted += 1;
    if !r.ok {
        report.failed += 1;
        eprintln!("request {} failed: {:?}", r.id, r.error);
        return;
    }
    let n = n_rows as f64;
    report.check(r.lo <= r.estimate && r.estimate <= r.hi, || {
        format!(
            "id {}: estimate {} outside [{}, {}]",
            r.id, r.estimate, r.lo, r.hi
        )
    });
    report.check((0.0..=n).contains(&r.estimate), || {
        format!("id {}: estimate {} outside [0, {n}]", r.id, r.estimate)
    });
    report.check(r.evals <= r.budget, || {
        format!("id {}: {} evals over budget {}", r.id, r.evals, r.budget)
    });
}

/// One request through `Service::run`, as every in-process workload
/// sends it: the front spans (parse, fingerprint) when recording, the
/// run under a `serve.run.<mode>` span and timed by the benchmark, then
/// the response checks, including that it was served as `expect`.
/// Returns the response and its `Service::run` wall in ms.
pub fn timed_run(
    tracer: &mut Tracer,
    report: &mut Report,
    service: &mut Service,
    table: &Arc<lts_table::Table>,
    req: Request,
    expect: &str,
    n_rows: usize,
) -> (Response, f64) {
    let id = req.id;
    if tracer.enabled() {
        trace_front(tracer, table, id, &req.condition);
    }
    let open = tracer.begin("serve.run", id);
    let t0 = Instant::now();
    let r = service.run(req);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end_as(open, Some(&format!("serve.run.{}", r.served)));
    check(report, &r, n_rows);
    report.check(r.served == expect, || {
        format!("id {id}: served {} not {expect}", r.served)
    });
    (r, ms)
}

/// Estimate quality over a fixed, seed-determined set of responses.
#[derive(Default)]
pub struct Quality {
    responses: u64,
    covered: u64,
    ok: u64,
    sq_rel_err: f64,
    evals: u64,
    non_exact: u64,
    zero_width: u64,
    cached: u64,
}

impl Quality {
    pub fn add(&mut self, r: &Response, truth: usize) {
        self.responses += 1;
        self.cached += u64::from(r.served == "cached");
        if !r.ok {
            return;
        }
        let t = truth as f64;
        self.ok += 1;
        self.covered += u64::from(r.lo <= t && t <= r.hi);
        self.sq_rel_err += ((r.estimate - t) / t).powi(2);
        self.evals += r.evals as u64;
        if r.served != "exact" {
            self.non_exact += 1;
            self.zero_width += u64::from(r.lo == r.hi);
        }
    }

    pub fn len(&self) -> usize {
        self.responses as usize
    }

    /// Deterministic end-to-end quality metrics plus `rel_rmse`.
    pub fn report(&self, report: &mut Report) {
        let n = self.responses.max(1) as f64;
        report.det("coverage", self.covered as f64 / n, "share");
        report.det(
            "rel_rmse",
            (self.sq_rel_err / self.ok.max(1) as f64).sqrt(),
            "share",
        );
        report.det("oracle_evals_per_request", self.evals as f64 / n, "count");
        report.det("quality_responses", self.responses as f64, "count");
    }

    /// Per-layer shares taken from the same responses.
    pub fn report_layers(&self, report: &mut Report) {
        report.det(
            "sampling.zero_width_share",
            self.zero_width as f64 / self.non_exact.max(1) as f64,
            "share",
        );
        report.det(
            "serve.cache_hit_rate",
            self.cached as f64 / self.responses.max(1) as f64,
            "share",
        );
    }
}

/// Per-request counts gathered beside the spans in the traced phase.
#[derive(Default)]
pub struct LayerCounts {
    pub prepare_evals: Vec<f64>,
    pub resume_evals: Vec<f64>,
    pub label_evals: u64,
    pub self_us: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer metrics read off the span tree: mean self time per call of
/// each layer's span, plus the counts gathered beside it.
pub fn layer_metrics(report: &mut Report, tracer: &Tracer, counts: &LayerCounts) {
    let st = tracer.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("learn.train_ms", "learn.train"),
        ("core.score_ms", "core.score"),
        ("strata.pilot_ms", "strata.pilot"),
        ("strata.design_ms", "strata.design"),
        ("core.prepare_ms", "core.prepare"),
        ("core.resume_ms", "core.resume"),
        ("core.prefilter_ms", "core.prefilter"),
    ] {
        report.wall(metric, get(span).mean_ms(), "ms");
    }
    for (metric, span) in [
        ("serve.run_us.cold", "serve.run.cold"),
        ("serve.run_us.warm", "serve.run.warm"),
        ("serve.run_us.cached", "serve.run.cached"),
        ("serve.fingerprint_us", "serve.fingerprint"),
        ("table.parse_us", "table.parse"),
        ("serve.protocol_us", "serve.protocol"),
    ] {
        report.wall(metric, get(span).mean_us(), "us");
    }
    let design = get("strata.design");
    let prepare = get("core.prepare");
    report.wall(
        "strata.design_share",
        if prepare.total_ns == 0 {
            0.0
        } else {
            design.total_ns as f64 / prepare.total_ns as f64
        },
        "share",
    );
    // Counts, but over however many requests the traced half reached.
    report.wall("core.prepare_evals", mean(&counts.prepare_evals), "count");
    report.wall("core.resume_evals", mean(&counts.resume_evals), "count");
    report.wall(
        "table.oracle_us_per_eval",
        if counts.label_evals == 0 {
            0.0
        } else {
            get("table.label_batch").total_ns as f64 / 1e3 / counts.label_evals as f64
        },
        "us",
    );
    // Two separately timed calls: the median of their difference is
    // robust to one of them catching a scheduler hiccup.
    report.wall(
        "serve.self_us",
        crate::report::median(&counts.self_us),
        "us",
    );
}

/// Spans for the front of a request: parsing the condition and
/// fingerprinting its canonical form, as the service does on entry.
pub fn trace_front(tracer: &mut Tracer, table: &Arc<lts_table::Table>, id: u64, condition: &str) {
    let expr = tracer.span("table.parse", id, |_| data::parse(table, condition));
    tracer.span("serve.fingerprint", id, |_| {
        let canonical = lts_serve::canonical(&lts_serve::normalize(&expr));
        std::hint::black_box(lts_serve::fingerprint(DATASET, 0, &canonical))
    });
}

/// The exact prefilter scan of a decomposed query and the residual
/// problem restricted to its survivors, as the service plans it.
pub fn traced_prefilter(
    tracer: &mut Tracer,
    id: u64,
    table: &Arc<lts_table::Table>,
    q: &data::Query,
    problem: &CountingProblem,
) -> CountingProblem {
    let expr = lts_serve::normalize(&data::parse(table, &q.condition()));
    let prefilter = lts_table::decompose(&expr)
        .exact_prefilter
        .expect("query decomposes");
    let ptable = lts_table::PartitionedTable::auto(Arc::clone(table));
    tracer.span("core.prefilter", id, |_| {
        let sel = lts_core::select_prefilter(&ptable, &prefilter).expect("prefilter scan");
        lts_core::restrict_problem(problem, &sel.survivors).expect("restrict problem")
    })
}

/// Label `n` distinct random objects of `problem` in one `label_batch`
/// under a `table.label_batch` span; returns the evaluations made.
fn traced_label_probe(
    tracer: &mut Tracer,
    id: u64,
    problem: &CountingProblem,
    n: usize,
    rng: &mut StdRng,
) -> u64 {
    let ids = lts_sampling::sample_without_replacement(rng, n.min(problem.n()), problem.n())
        .expect("draw probe ids");
    tracer.span("table.label_batch", id, |_| {
        problem.label_batch(&ids).expect("label probe")
    });
    ids.len() as u64
}

/// The seed the service prepared the warm state of `(condition,
/// budget)` under, read from its public store export. Preparing the
/// same problem under it reproduces the service's state, so a traced
/// replay does the same work as the request it shadows.
pub fn prepare_seed(service: &Service, condition: &str, budget: usize) -> u64 {
    lts_serve::ModelStore::parse_export(&service.export_store())
        .expect("parse store export")
        .into_iter()
        .find(|e| e.condition == condition && e.budget == budget)
        .map(|e| e.prepare_seed)
        .expect("prepared state in the store")
}

/// The stage-2 seed of a `fresh` request: the service derives it from
/// its root seed and the request id alone (its determinism contract).
fn fresh_seed(config: &ServiceConfig, id: u64) -> u64 {
    mix_seed(config.seed, mix_seed(id, 0x0046_5245_5348))
}

/// The benchmark's own copy of one served warm state: the problem the
/// service builds for the entry, prepared under the service's stored
/// seed.
pub struct Replica {
    pub problem: CountingProblem,
    pub warm: LssWarm,
}

/// Replicas of every working-set entry, checked to reproduce the state
/// the service answered `first[e]` from. Decomposed entries run their
/// prefilter scan under a `core.prefilter` span.
pub fn replicas(
    tracer: &mut Tracer,
    report: &mut Report,
    config: &ServiceConfig,
    service: &Service,
    table: &Arc<lts_table::Table>,
    set: &[(data::Query, usize)],
    first: &[Response],
) -> Vec<Replica> {
    tracer.set_enabled(true);
    let out = set
        .iter()
        .zip(first)
        .enumerate()
        .map(|(e, ((q, _), r0))| {
            let mut problem = data::sql_problem(table, q);
            if let data::Query::RangeSkyband { .. } = q {
                problem = traced_prefilter(tracer, e as u64, table, q, &problem);
            }
            let seed = prepare_seed(service, &q.condition(), r0.budget);
            let warm = config
                .lss
                .prepare(&problem, r0.budget, seed)
                .expect("prepare replica");
            report.check(warm.digest() == r0.model_version, || {
                format!(
                    "entry {e}: Lss::prepare under the stored seed differs from the served state"
                )
            });
            Replica { problem, warm }
        })
        .collect();
    tracer.set_enabled(false);
    out
}

/// The core call a warm `fresh` request makes, replayed on a replica
/// under a `core.resume` span with the request's own stage-2 seed, plus
/// an oracle probe of the same size; `run_ms` is the request's
/// `Service::run` wall, for `serve.self_us`.
pub fn traced_resume(
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    rep: &Replica,
    config: &ServiceConfig,
    id: u64,
    run_ms: f64,
    rng: &mut StdRng,
) {
    let est = tracer.span("core.resume", id, |_| {
        config
            .lss
            .estimate_prepared(&rep.problem, &rep.warm, fresh_seed(config, id))
            .expect("resume")
    });
    let resume_ns = tracer.last_ns("core.resume").unwrap_or(0);
    counts.resume_evals.push(est.evals as f64);
    counts.self_us.push(run_ms * 1e3 - resume_ns as f64 / 1e3);
    let n = rep.warm.split.stage2;
    counts.label_evals += traced_label_probe(tracer, id, &rep.problem, n, rng);
}
