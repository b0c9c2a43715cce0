//! `exact_scan`: exact counts of cheap conjunctive predicates, no
//! oracle. Every request counts one predicate twice — in RAM through
//! `PartitionedTable::par_count` and out of core through
//! `PagedTable::par_count` with zone-map skipping over a buffer pool
//! smaller than the table — and both counts must equal the census.
//! The only workload that touches paged storage; serving never does.

use lts_core::mix_seed;
use lts_table::{PagedTable, PartitionedTable, Snapshot as _, Table, TableRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::data::{Spread, TABLE_SEED};
use crate::report::{self, Report};
use crate::trace::Tracer;
use crate::Args;

const PAGE_ROWS: usize = 4_096;
/// 49 pages of 4 096 rows (200 704 rows, 9 columns: 441 column pages).
const ROWS: usize = 49 * PAGE_ROWS;
/// Buffer pool, in column pages: about a seventh of the table, and less
/// than one three-column scan touches, so every pass evicts.
const POOL_PAGES: usize = 64;
/// Seventeen of each shape; odd, so the traced run's alternately
/// traced requests reach every query.
const QUERIES: usize = 51;
/// p90, not p95: p95 sits among the few slowest scans, where short host
/// slowdowns moved it by a third between runs while the median moved
/// by 2 %.
const TAIL: f64 = 0.9;
/// Latency and throughput are medians over this many equal windows of
/// the run (about 200 scans each at 20 s).
const WINDOWS: usize = 10;

/// A conjunction of `column op literal` terms.
struct Conj {
    terms: Vec<(&'static str, &'static str, f64)>,
}

impl Conj {
    fn condition(&self) -> String {
        let parts: Vec<String> = self
            .terms
            .iter()
            .map(|(c, op, v)| format!("{c} {op} {v}"))
            .collect();
        parts.join(" AND ")
    }

    /// The exact count, evaluated directly on the columns.
    fn census(&self, cols: &Columns) -> usize {
        (0..ROWS)
            .filter(|&i| {
                self.terms.iter().all(|&(c, op, lit)| {
                    let v = cols.get(c)[i];
                    match op {
                        ">=" => v >= lit,
                        "<" => v < lit,
                        other => unreachable!("no operator `{other}`"),
                    }
                })
            })
            .count()
    }
}

struct Columns(Vec<(&'static str, Vec<f64>)>);

impl Columns {
    fn of(table: &Table) -> Self {
        let names = ["player_id", "year", "strikeouts", "wins", "era"];
        Columns(
            names
                .iter()
                .map(|&n| {
                    let v = match table.ints(n) {
                        Ok(ints) => ints.iter().map(|&x| x as f64).collect(),
                        Err(_) => table.floats(n).expect("numeric column").to_vec(),
                    };
                    (n, v)
                })
                .collect(),
        )
    }

    fn get(&self, name: &str) -> &[f64] {
        &self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .expect("census column")
            .1
    }

    fn sorted(&self, name: &str) -> Vec<f64> {
        let mut v = self.get(name).to_vec();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Seeded predicates (evenly spread, see [`Spread`]) in three shapes: a
/// `player_id` range (the table's clustering key, so zone maps skip
/// most pages), a `year` range (no clustering, nothing skips) and a
/// two-column range on the performance columns.
fn queries(cols: &Columns, seed: u64) -> Vec<Conj> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dims: [Spread; 6] = std::array::from_fn(|_| Spread::new(&mut rng));
    let sorted: Vec<(&'static str, Vec<f64>)> =
        cols.0.iter().map(|&(n, _)| (n, cols.sorted(n))).collect();
    let mut at = |d: usize, name: &str, lo: f64, hi: f64| {
        let v = &sorted.iter().find(|(n, _)| *n == name).expect("column").1;
        let q = dims[d].within(lo, hi);
        v[((q * v.len() as f64) as usize).min(v.len() - 1)]
    };
    (0..QUERIES)
        .map(|i| {
            let terms = match i % 3 {
                0 => {
                    let a = at(0, "player_id", 0.0, 0.7);
                    vec![
                        ("player_id", ">=", a),
                        ("player_id", "<", a + (ROWS / 20) as f64),
                        ("strikeouts", ">=", at(1, "strikeouts", 0.2, 0.6)),
                    ]
                }
                1 => {
                    let y = at(2, "year", 0.0, 0.6);
                    vec![
                        ("year", ">=", y),
                        ("year", "<", y + 8.0),
                        ("wins", ">=", at(3, "wins", 0.3, 0.7)),
                    ]
                }
                _ => vec![
                    ("strikeouts", ">=", at(4, "strikeouts", 0.1, 0.5)),
                    ("strikeouts", "<", at(4, "strikeouts", 0.6, 0.95)),
                    ("era", "<", at(5, "era", 0.3, 0.9)),
                ],
            };
            Conj { terms }
        })
        .collect()
}

fn generate() -> (Arc<Table>, f64) {
    let t0 = Instant::now();
    let config = lts_data::sports::SportsConfig {
        rows: ROWS,
        seed: TABLE_SEED,
    };
    let table = lts_data::sports::sports_table(&config).expect("generate sports table");
    (Arc::new(table), t0.elapsed().as_secs_f64())
}

struct Setup {
    ram: PartitionedTable,
    paged: PagedTable,
    registry: TableRegistry,
    dir: PathBuf,
    generate_s: f64,
}

fn setup(dir: &Path) -> Setup {
    let (table, generate_s) = generate();
    let _ = std::fs::remove_dir_all(dir);
    PagedTable::create(dir, &table, PAGE_ROWS).expect("write paged table");
    let paged = PagedTable::open(dir, POOL_PAGES)
        .expect("open paged table")
        .with_zone_skipping(true);
    Setup {
        registry: TableRegistry::new().register("sports", Arc::clone(&table)),
        ram: PartitionedTable::auto(table),
        paged,
        dir: dir.to_path_buf(),
        generate_s,
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let dir = args
        .out
        .join(format!("paged-{}-{}", args.seed, std::process::id()));
    let (s, (conds, truths)) = crate::repeated_setup(
        report,
        |_| {
            let (table, _) = generate();
            let cols = Columns::of(&table);
            let qs = queries(&cols, mix_seed(args.seed, 0x5CA4));
            let truths: Vec<usize> = qs.iter().map(|q| q.census(&cols)).collect();
            let conds: Vec<String> = qs.iter().map(Conj::condition).collect();
            (conds, truths)
        },
        |_, _| setup(&dir),
    );
    report.wall("data.generate_s", s.generate_s, "s");
    report.det("pool_pages", POOL_PAGES as f64, "count");
    report.det(
        "table_column_pages",
        (s.paged.n_pages() * 9) as f64,
        "count",
    );

    // Rows each engine evaluates the predicate on, and pages read and
    // skipped, over the first pass through the query list.
    let mut evaluated_rows = 0u64;
    let mut first_pass = (0u64, 0u64);
    let (mut buf_hits, mut buf_misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut scans = 0u64;
    let mut next = 0usize;
    let mut send = |tracer: &mut Tracer, report: &mut Report| -> f64 {
        let i = next % QUERIES;
        next += 1;
        let id = next as u64;
        let t0 = Instant::now();
        let expr = tracer.span("table.parse", id, |_| {
            lts_table::parse_condition(&conds[i], &s.registry).expect("parse")
        });
        let scan0 = s.paged.scan_snapshot();
        let buf0 = s.paged.buffer_snapshot();
        let ram = tracer.span("table.scan.ram", id, |_| s.ram.par_count(&expr));
        let paged = tracer.span("table.scan.paged", id, |_| s.paged.par_count(&expr));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let scan = s.paged.scan_snapshot().delta(&scan0);
        let buf = s.paged.buffer_snapshot().delta(&buf0);
        report.attempted += 1;
        match (ram, paged) {
            (Ok(a), Ok(b)) => {
                report.check(a == b && a == truths[i], || {
                    format!(
                        "`{}`: in-RAM {a}, paged {b}, census {}",
                        conds[i], truths[i]
                    )
                });
            }
            (a, b) => {
                report.failed += 1;
                eprintln!("`{}` failed: {a:?} / {b:?}", conds[i]);
            }
        }
        if next <= QUERIES {
            evaluated_rows += (ROWS as u64) + scan.pages_evaluated * PAGE_ROWS as u64;
            first_pass.0 += scan.pages_evaluated;
            first_pass.1 += scan.pages_skipped;
        }
        buf_hits += buf.hits;
        buf_misses += buf.misses;
        evictions += buf.evictions;
        scans += 1;
        ms
    };

    if args.trace {
        crate::traced_loop(args.seconds, 2 * QUERIES, tracer, report, |t, r| send(t, r));
    } else {
        let min_n = QUERIES.max(report::samples_for_tail(TAIL));
        let mut probe = crate::host::Probe::fork_join();
        let (done, elapsed, start) =
            crate::closed_loop(args.seconds, min_n, &mut probe, || send(tracer, report));
        report::closed_loop_metrics(report, &done, elapsed, TAIL, WINDOWS, &probe, start);
    }

    // Every answer is exact: its interval is the count itself.
    report.det(
        "coverage",
        1.0 - report.failed as f64 / report.attempted as f64,
        "share",
    );
    report.det(
        "oracle_evals_per_request",
        evaluated_rows as f64 / QUERIES as f64,
        "count",
    );
    let (eval, skip) = first_pass;
    if args.trace {
        let st = tracer.self_times();
        let get = |n: &str| st.get(n).copied().unwrap_or_default();
        report.wall("table.scan_ms", get("table.scan.paged").mean_ms(), "ms");
        report.wall("table.scan_ram_ms", get("table.scan.ram").mean_ms(), "ms");
        report.wall("table.parse_us", get("table.parse").mean_us(), "us");
        report.det(
            "table.storage.pages_read",
            eval as f64 / QUERIES as f64,
            "count",
        );
        report.det(
            "table.storage.page_skip_share",
            skip as f64 / (eval + skip).max(1) as f64,
            "share",
        );
        report.wall(
            "table.storage.buffer_hit_rate",
            buf_hits as f64 / (buf_hits + buf_misses).max(1) as f64,
            "share",
        );
        report.wall(
            "table.storage.evictions",
            evictions as f64 / scans as f64,
            "count",
        );
    }
    report.det("rows", ROWS as f64, "count");
    let _ = std::fs::remove_dir_all(&s.dir);
}
