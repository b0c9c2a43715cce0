//! `warm_fresh`: one in-process closed-loop caller sending `fresh`
//! requests with distinct ids over a working set prepared in set-up.
//! Only stage-2 sampling and oracle labeling run; the design DP never
//! does. Carries coverage and error over many independent estimates.

use lts_core::mix_seed;
use lts_serve::{Response, Service, ServiceConfig};
use lts_table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::data::{self, Census, Query, QueryGen};
use crate::report::{self, Report};
use crate::serving::{self, LayerCounts, Quality};
use crate::trace::Tracer;
use crate::Args;

const ROWS: usize = 10_000;
/// p90, not p95: p95 sits among the slowest resumes of the slowest
/// entry, where short host slowdowns moved it by a quarter between
/// runs while the median held.
const TAIL: f64 = 0.9;
/// Latency and throughput are medians over this many equal windows of
/// the run (about 150 requests each at 20 s).
const WINDOWS: usize = 10;
/// Coverage and error come from the first this-many requests (150 per
/// working-set entry), so they are a function of the seed alone.
const QUALITY_N: usize = 1_050;

/// The working set: four queries, seven (query, budget) entries. Like
/// the table it is the service's standing state, the same in every run;
/// the workload seed draws the request ids. An odd number of equally
/// asked entries keeps the median inside one entry's latencies rather
/// than on the gap between two.
pub fn working_set(census: &Census) -> Vec<(Query, usize)> {
    let mut gen = QueryGen::new(census, mix_seed(data::TABLE_SEED, 0x3A2B));
    let skyband = Query::Skyband {
        k: census.k_calibrated,
    };
    gen.reserve(&skyband);
    let decomposed = gen.fresh("range_skyband");
    let range = gen.fresh("range");
    vec![
        (skyband.clone(), 300),
        (skyband, 600),
        (range.clone(), 300),
        (range, 600),
        (decomposed.clone(), 300),
        (decomposed, 600),
        (gen.fresh("skyband"), 300),
    ]
}

struct Setup {
    table: Arc<Table>,
    generate_s: f64,
    service: Service,
    /// The cold answer each working-set entry got in set-up.
    first: Vec<Response>,
}

/// A service with every working-set entry prepared by one cold,
/// cacheable request.
fn setup(set: &[(Query, usize)], report: &mut Report) -> Setup {
    let sports = data::sports(ROWS);
    let mut service = serving::service(&sports);
    let first = set
        .iter()
        .enumerate()
        .map(|(e, (q, budget))| {
            let r = service.run(serving::request(e as u64, q, *budget, false));
            serving::check(report, &r, ROWS);
            report.check(r.served == "cold", || format!("set-up served {}", r.served));
            r
        })
        .collect();
    Setup {
        table: sports.table,
        generate_s: sports.generate_s,
        service,
        first,
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (
        Setup {
            table,
            generate_s,
            mut service,
            first,
        },
        census,
    ) = crate::repeated_setup(
        report,
        |report| Census::new(ROWS, args.seed, report),
        |census, report| setup(&working_set(census), report),
    );
    report.wall("data.generate_s", generate_s, "s");
    let set = working_set(&census);

    let config = ServiceConfig::default();
    let mut counts = LayerCounts::default();
    let replicas = if args.trace {
        serving::replicas(tracer, report, &config, &service, &table, &set, &first)
    } else {
        Vec::new()
    };

    let mut quality = Quality::default();
    let mut sent: Vec<(usize, Response)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(mix_seed(args.seed, 0x1ABE));
    let mut next = 0usize;
    let mut send = |tracer: &mut Tracer, report: &mut Report, quality: &mut Quality| -> f64 {
        let i = next;
        next += 1;
        let e = i % set.len();
        let (q, budget) = &set[e];
        let id = mix_seed(args.seed, i as u64);
        let req = serving::request(id, q, *budget, true);
        let (r, ms) = serving::timed_run(tracer, report, &mut service, &table, req, "warm", ROWS);
        if quality.len() < QUALITY_N {
            quality.add(&r, census.truth(q));
        }
        if tracer.enabled() && r.ok {
            serving::traced_resume(tracer, &mut counts, &replicas[e], &config, id, ms, &mut rng);
        }
        if sent.len() < set.len() {
            sent.push((e, r));
        }
        ms
    };

    if args.trace {
        crate::traced_loop(args.seconds, 200, tracer, report, |t, r| {
            send(t, r, &mut quality)
        });
    } else {
        let min_n = QUALITY_N.max(report::samples_for_tail(TAIL));
        let mut probe = crate::host::Probe::new();
        let (done, elapsed, start) = crate::closed_loop(args.seconds, min_n, &mut probe, || {
            send(tracer, report, &mut quality)
        });
        report::closed_loop_metrics(report, &done, elapsed, TAIL, WINDOWS, &probe, start);
    }
    while quality.len() < QUALITY_N {
        send(tracer, report, &mut quality);
    }

    // Replaying a fixed id gives the same bits; a re-ask of a set-up
    // request comes from the cache with the bits of its first answer.
    for (e, r0) in &sent {
        let (q, budget) = &set[*e];
        let r = service.run(serving::request(r0.id, q, *budget, true));
        serving::check(report, &r, ROWS);
        report.check(serving::bits(&r) == serving::bits(r0), || {
            format!("fresh replay of id {} changed bits", r0.id)
        });
    }
    for (e, r0) in first.iter().enumerate() {
        let (q, budget) = &set[e];
        let r = service.run(serving::request(1_000 + e as u64, q, *budget, false));
        serving::check(report, &r, ROWS);
        report.check(
            r.served == "cached" && serving::bits(&r) == serving::bits(r0),
            || {
                format!(
                    "re-ask of entry {e} served {} with different bits",
                    r.served
                )
            },
        );
    }

    quality.report(report);
    if args.trace {
        quality.report_layers(report);
        serving::layer_metrics(report, tracer, &counts);
    }
    report.det("rows", ROWS as f64, "count");
}
