//! Traced calls into the core layers.
//!
//! `prepare` replays `Lss::prepare` through its public parts — train →
//! score → pilot → design (`lts_strata::dynpgm`) — under one span each,
//! and asserts that the replay reaches the same warm-state digest as
//! the composite call. The replay mirrors `Lss::prepare_with_known`
//! with no known labels; the salts below are that function's per-phase
//! seed salts. If either drifts, the digest check fails the run.

use lts_core::warm::train_proxy;
use lts_core::{
    fnv1a, mix_seed, CountingProblem, Labeler, Lss, LssLayout, PilotSource, ScoredPopulation,
};
use lts_strata::{fixed_height_cuts, DesignAlgorithm, DesignParams, StrataError, Stratification};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

const SALT_LEARN: u64 = 0x4C45_4152_4E01;
const SALT_DESIGN: u64 = 0x4445_5349_474E;

/// Counts one traced replay of `Lss::prepare` adds up.
pub struct PrepareReplay {
    pub digest: u64,
    /// Oracle evaluations the pilot's `label_batch` made.
    pub pilot_evals: usize,
    pub prepare_evals: usize,
}

/// Replay `lss.prepare(problem, budget, seed)` phase by phase.
pub fn prepare(
    tracer: &mut Tracer,
    req: u64,
    lss: &Lss,
    problem: &CountingProblem,
    budget: usize,
    seed: u64,
) -> PrepareReplay {
    assert_eq!(
        lss.pilot_source,
        PilotSource::Fresh,
        "replay covers the fresh-pilot profile"
    );
    assert_eq!(
        lss.layout,
        LssLayout::Optimized(DesignAlgorithm::DynPgm),
        "replay covers the DynPgm layout"
    );
    let split = lss.budget_split(budget).expect("budget split");
    let mut labeler = Labeler::new(problem);

    let proxy = tracer.span("learn.train", req, |_| {
        train_proxy(
            problem,
            &lss.learn,
            split.train,
            mix_seed(seed, SALT_LEARN),
            &mut labeler,
        )
        .expect("train proxy")
    });

    let (ordered, train_positions) = tracer.span("core.score", req, |_| {
        let scored = ScoredPopulation::score_rest(problem, proxy.model.as_ref(), &proxy.labeled)
            .expect("score population");
        let ordered = scored.into_ordered();
        let mut in_train = vec![false; problem.n()];
        for &i in &proxy.labeled {
            in_train[i] = true;
        }
        let train_positions = ordered.positions_marked(&in_train);
        (ordered, train_positions)
    });
    let n_rest = ordered.n();

    let open = tracer.begin("strata.pilot", req);
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, SALT_DESIGN));
    let mut positions = lts_sampling::sample_without_replacement(&mut rng, split.pilot, n_rest)
        .expect("draw pilot");
    positions.extend_from_slice(&train_positions);
    let pilot_objs = ordered.objects_at(&positions);
    let before = labeler.unique_evals();
    let labels = tracer.span("table.label_batch", req, |_| {
        labeler.label_batch(&pilot_objs).expect("label pilot")
    });
    let pilot_evals = labeler.unique_evals() - before;
    let entries: Vec<(usize, bool)> = positions.iter().copied().zip(labels).collect();
    let pilot = ordered.pilot_index(&entries).expect("pilot index");
    tracer.end(open);

    let stratification = tracer.span("strata.design", req, |_| {
        design(lss, &pilot, n_rest, split.stage2)
    });

    let mut sorted = entries;
    sorted.sort_unstable_by_key(|&(pos, _)| pos);
    let mut bytes = Vec::with_capacity(16 * (sorted.len() + 2));
    bytes.extend_from_slice(&proxy.snapshot().digest().to_le_bytes());
    for &(p, l) in &sorted {
        bytes.extend_from_slice(&(p as u64).to_le_bytes());
        bytes.push(u8::from(l));
    }
    for &c in &stratification.cuts {
        bytes.extend_from_slice(&(c as u64).to_le_bytes());
    }
    PrepareReplay {
        digest: fnv1a(&bytes),
        pilot_evals,
        prepare_evals: labeler.unique_evals(),
    }
}

/// The design step of `Lss::prepare` for the DynPgm layout, including
/// its relax-then-fixed-height fallback on an infeasible pilot.
fn design(
    lss: &Lss,
    pilot: &lts_strata::PilotIndex,
    n_rest: usize,
    stage2: usize,
) -> Stratification {
    let h = lss.n_strata;
    let auto_min = ((stage2 + 1).min(n_rest / h)).max(1);
    let params = DesignParams {
        n_strata: h,
        budget: stage2,
        min_stratum_size: lss
            .min_stratum_size
            .unwrap_or(auto_min)
            .min(n_rest / h)
            .max(1),
        min_pilots_per_stratum: lss.min_pilots_per_stratum.min(pilot.m() / h).max(2),
        epsilon: lss.epsilon,
    };
    match lts_strata::dynpgm(pilot, &params, lss.t_selection) {
        Ok(s) => s,
        Err(StrataError::Infeasible { .. }) => {
            let relaxed = DesignParams {
                min_stratum_size: (n_rest / (4 * h)).max(1),
                min_pilots_per_stratum: 2,
                ..params
            };
            lts_strata::dynpgm(pilot, &relaxed, lss.t_selection).unwrap_or_else(|_| {
                Stratification {
                    cuts: fixed_height_cuts(n_rest, h).expect("fixed-height cuts"),
                    estimated_variance: f64::NAN,
                }
            })
        }
        Err(e) => panic!("design failed: {e}"),
    }
}
