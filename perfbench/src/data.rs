//! Seeded inputs: the Sports table, the exact census every estimate is
//! checked against, and the query generators of each workload.
//!
//! Truth never comes from the system under test. Skyband membership
//! comes from `lts_data::skyband::dominator_counts` (one census per
//! table), cheap predicates from a direct scan of the columns here. The
//! census is cross-checked against `Scenario::truth` and against the
//! service's own SQL oracle on a sample of rows.

use lts_core::CountingProblem;
use lts_table::{ExprPredicate, ObjectPredicate, Table, TableRegistry};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crate::report::Report;

pub const DATASET: &str = "sports";
/// Generator seed of every table: the seed of the ROADMAP's coverage
/// probe. The table is the service's data, not a request, so it stays
/// the same in every run; the workload seed draws the requests.
pub const TABLE_SEED: u64 = 11;
pub const FEATURES: [&str; 2] = ["strikeouts", "wins"];

/// A generated Sports population with its calibrated skyband `k`.
pub struct Sports {
    pub table: Arc<Table>,
    pub k_calibrated: usize,
    pub scenario_truth: usize,
    pub generate_s: f64,
}

/// Generate the Sports scenario (`lts_data::sports_scenario` at
/// selectivity level M), timed.
pub fn sports(rows: usize) -> Sports {
    let t0 = Instant::now();
    let scenario = lts_data::sports_scenario(rows, lts_data::SelectivityLevel::M, TABLE_SEED)
        .expect("generate sports scenario");
    let generate_s = t0.elapsed().as_secs_f64();
    let lts_data::QueryParam::K(k) = scenario.param else {
        unreachable!("the sports scenario calibrates a skyband k")
    };
    Sports {
        table: scenario.table,
        k_calibrated: k,
        scenario_truth: scenario.truth,
        generate_s,
    }
}

/// A count query over the Sports table.
#[derive(Clone, Debug)]
pub enum Query {
    /// `col >= lo AND col < hi` — a cheap range, no subquery.
    Range { col: &'static str, lo: f64, hi: f64 },
    /// The k-skyband over (strikeouts, wins): a correlated aggregate
    /// subquery, the paper's expensive predicate.
    Skyband { k: usize },
    /// `strikeouts >= lo AND skyband(k)`: decomposes into an exact
    /// prefilter and an estimated residual.
    RangeSkyband { lo: f64, k: usize },
}

fn skyband_sql(k: usize) -> String {
    format!(
        "(SELECT COUNT(*) FROM sports WHERE strikeouts >= o.strikeouts AND \
         wins >= o.wins AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    )
}

impl Query {
    pub fn condition(&self) -> String {
        match self {
            Query::Range { col, lo, hi } => format!("{col} >= {lo} AND {col} < {hi}"),
            Query::Skyband { k } => skyband_sql(*k),
            Query::RangeSkyband { lo, k } => format!("strikeouts >= {lo} AND {}", skyband_sql(*k)),
        }
    }
}

/// The exact census of one Sports table.
pub struct Census {
    dom: Vec<usize>,
    dom_sorted: Vec<usize>,
    strikeouts: Vec<f64>,
    wins: Vec<f64>,
    pub k_calibrated: usize,
}

impl Census {
    /// Generate the table, count every row's dominators once, then
    /// cross-check against the scenario's truth and the service's SQL
    /// oracle.
    pub fn new(rows: usize, seed: u64, report: &mut Report) -> Self {
        let sports = self::sports(rows);
        let strikeouts = sports
            .table
            .floats("strikeouts")
            .expect("strikeouts")
            .to_vec();
        let wins = sports.table.floats("wins").expect("wins").to_vec();
        let dom = lts_data::skyband::dominator_counts(&strikeouts, &wins);
        let mut dom_sorted = dom.clone();
        dom_sorted.sort_unstable();
        let census = Census {
            dom,
            dom_sorted,
            strikeouts,
            wins,
            k_calibrated: sports.k_calibrated,
        };
        let k = sports.k_calibrated;
        let truth = census.truth(&Query::Skyband { k });
        report.check(truth == sports.scenario_truth, || {
            format!(
                "census skyband count {truth} != Scenario::truth {}",
                sports.scenario_truth
            )
        });
        // The service answers through the SQL predicate; its labels must
        // agree with the census on a sample of rows.
        let problem = sql_problem(&sports.table, &Query::Skyband { k });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC3_75);
        let ids: Vec<usize> = (0..64)
            .map(|_| rng.random_range(0..census.dom.len()))
            .collect();
        let labels = problem.label_batch(&ids).expect("label census sample");
        for (&i, &l) in ids.iter().zip(&labels) {
            report.check(l == (census.dom[i] < k), || {
                format!("SQL oracle disagrees with the census on row {i}")
            });
        }
        census
    }

    pub fn rows(&self) -> usize {
        self.dom.len()
    }

    pub fn truth(&self, q: &Query) -> usize {
        match *q {
            Query::Range { col, lo, hi } => self
                .column(col)
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .count(),
            Query::Skyband { k } => self.dom.iter().filter(|&&d| d < k).count(),
            Query::RangeSkyband { lo, k } => self
                .dom
                .iter()
                .zip(&self.strikeouts)
                .filter(|&(&d, &s)| d < k && s >= lo)
                .count(),
        }
    }

    fn column(&self, col: &str) -> &[f64] {
        match col {
            "strikeouts" => &self.strikeouts,
            "wins" => &self.wins,
            other => unreachable!("no census column `{other}`"),
        }
    }

    /// The skyband `k` whose selectivity is `q` (dominator-count
    /// quantile, as the scenario calibrates it).
    pub fn k_at(&self, q: f64) -> usize {
        let idx = ((q * self.rows() as f64) as usize).clamp(1, self.rows()) - 1;
        self.dom_sorted[idx] + 1
    }
}

/// Draws queries none of which has been drawn before by this generator.
/// Selectivities stay between 5 % and 60 % so every truth is large
/// enough for relative error to mean something and every prefilter is
/// selective enough for the planner to decompose.
pub struct QueryGen<'a> {
    census: &'a Census,
    dims: [Spread; 5],
    ranges: usize,
    seen: HashSet<String>,
    sorted: [Vec<f64>; 2],
}

impl<'a> QueryGen<'a> {
    pub fn new(census: &'a Census, seed: u64) -> Self {
        let sort = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            census,
            dims: std::array::from_fn(|_| Spread::new(&mut rng)),
            ranges: 0,
            seen: HashSet::new(),
            sorted: [sort(&census.strikeouts), sort(&census.wins)],
        }
    }

    /// Mark a query as already used (e.g. a set-up query).
    pub fn reserve(&mut self, q: &Query) {
        self.seen.insert(q.condition());
    }

    /// A never-drawn query of the given kind.
    pub fn fresh(&mut self, kind: &str) -> Query {
        loop {
            let q = self.draw(kind);
            let t = self.census.truth(&q) as f64 / self.census.rows() as f64;
            if (0.05..=0.6).contains(&t) && self.seen.insert(q.condition()) {
                return q;
            }
        }
    }

    fn draw(&mut self, kind: &str) -> Query {
        let n = self.census.rows();
        let [width, start, k, keep, k2] = &mut self.dims;
        match kind {
            "range" => {
                self.ranges += 1;
                let c = self.ranges % 2;
                let width = width.within(0.1, 0.55);
                let start = start.within(0.0, 1.0 - width);
                let at = |q: f64| self.sorted[c][((q * n as f64) as usize).min(n - 1)];
                Query::Range {
                    col: FEATURES[c],
                    lo: at(start),
                    hi: at(start + width),
                }
            }
            "skyband" => Query::Skyband {
                k: self.census.k_at(k.within(0.1, 0.5)),
            },
            "range_skyband" => {
                // Prefilter keeps 30-55 % of rows: below the planner's
                // monolithic threshold, far above the census cutoff.
                let keep = keep.within(0.3, 0.55);
                Query::RangeSkyband {
                    lo: self.sorted[0][(((1.0 - keep) * n as f64) as usize).min(n - 1)],
                    k: self.census.k_at(k2.within(0.2, 0.5)),
                }
            }
            other => unreachable!("unknown query kind `{other}`"),
        }
    }
}

/// Evenly spread draws: an additive golden-ratio sequence from a seeded
/// start. The first n draws of any run cover the interval almost
/// uniformly, so each seed draws different queries while aggregates
/// over a run (latency quantiles, coverage) vary little between seeds.
pub struct Spread(f64);

impl Spread {
    pub fn new(rng: &mut StdRng) -> Self {
        Spread(rng.random::<f64>())
    }

    pub fn within(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = (self.0 + 0.618_033_988_749_894_9).fract();
        lo + (hi - lo) * self.0
    }
}

/// The problem the service assembles for `q`: the SQL predicate over
/// the table, with the registered feature columns.
pub fn sql_problem(table: &Arc<Table>, q: &Query) -> CountingProblem {
    let expr = parse(table, &q.condition());
    let predicate: Arc<dyn ObjectPredicate> = Arc::new(ExprPredicate::new("q", expr));
    CountingProblem::new(Arc::clone(table), predicate, &FEATURES).expect("assemble problem")
}

fn registry(table: &Arc<Table>) -> TableRegistry {
    TableRegistry::new().register(DATASET, Arc::clone(table))
}

pub fn parse(table: &Arc<Table>, condition: &str) -> lts_table::Expr {
    lts_table::parse_condition(condition, &registry(table)).expect("parse condition")
}
