//! Parallel/serial differential tests: executing the same physical plan
//! under `threads = 4` must be **row-for-row identical** — same rows, same
//! order — to `threads = 1` (`tests/batch_differential.rs` checks the
//! serial executor against the reference semantics). The parallel states
//! use `parallel_min_rows = 1` so even the small proptest inputs actually
//! take the partitioned code paths (exchange over scans, parallel sort,
//! partitioned hash join build + probe, data-run-partitioned temporal
//! sweeps).

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

fn serial_state() -> ExecutionState {
    ExecutionState::new(PlannerConfig {
        threads: 1,
        ..Default::default()
    })
}

fn parallel_state() -> ExecutionState {
    ExecutionState::new(PlannerConfig {
        threads: 4,
        parallel_min_rows: 1,
        ..Default::default()
    })
}

/// Plan once, execute twice (serial, 4 workers), compare row-for-row.
fn assert_parallel_identical_logical(lp: &LogicalPlan, label: &str) {
    let physical = Planner::default()
        .plan(lp, &Catalog::new())
        .unwrap_or_else(|e| panic!("{label}: plan: {e}"));
    let serial = physical
        .collect(&serial_state())
        .unwrap_or_else(|e| panic!("{label}: serial: {e}"));
    let parallel = physical
        .collect(&parallel_state())
        .unwrap_or_else(|e| panic!("{label}: parallel: {e}"));
    assert_eq!(
        serial.rows(),
        parallel.rows(),
        "{label}: threads=4 diverges from threads=1"
    );
}

fn assert_parallel_identical(plan: &TemporalPlan, label: &str) {
    assert_parallel_identical_logical(plan.logical(), label);
}

/// Apply one operator to a composed plan (as in `tests/plan_first.rs`).
fn apply_plan(
    op: &TemporalOp,
    plan: TemporalPlan,
    rhs: Option<TemporalPlan>,
) -> TemporalResult<TemporalPlan> {
    match op {
        TemporalOp::Selection { predicate } => plan.selection(predicate.clone()),
        TemporalOp::Projection { attrs } => plan.projection(attrs),
        TemporalOp::Aggregation { group, aggs } => plan.aggregation(group, aggs.clone()),
        TemporalOp::Union => plan.union(rhs.expect("binary")),
        TemporalOp::Difference => plan.difference(rhs.expect("binary")),
        TemporalOp::Intersection => plan.intersection(rhs.expect("binary")),
        TemporalOp::CartesianProduct => plan.cartesian_product(rhs.expect("binary")),
        TemporalOp::Join { theta } => plan.join(rhs.expect("binary"), theta.clone()),
        TemporalOp::LeftOuterJoin { theta } => {
            plan.left_outer_join(rhs.expect("binary"), theta.clone())
        }
        TemporalOp::RightOuterJoin { theta } => {
            plan.right_outer_join(rhs.expect("binary"), theta.clone())
        }
        TemporalOp::FullOuterJoin { theta } => {
            plan.full_outer_join(rhs.expect("binary"), theta.clone())
        }
        TemporalOp::AntiJoin { theta } => plan.anti_join(rhs.expect("binary"), theta.clone()),
    }
}

/// Chains exercising every parallelized operator through the reductions:
/// joins (hash/interval group construction), sorts, sweeps, absorb, set
/// ops and aggregation.
fn chains_1col() -> Vec<Vec<TemporalOp>> {
    let count = vec![(AggCall::count_star(), "cnt".to_string())];
    vec![
        vec![
            TemporalOp::Join {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(1i64)),
            },
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::LeftOuterJoin { theta: None },
            TemporalOp::Aggregation {
                group: vec![0],
                aggs: count.clone(),
            },
        ],
        vec![
            TemporalOp::FullOuterJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Projection { attrs: vec![0, 1] },
        ],
        vec![
            TemporalOp::AntiJoin {
                theta: Some(col(0).eq(col(3))),
            },
            TemporalOp::Selection {
                predicate: col(0).ge(lit(0i64)),
            },
        ],
        vec![
            TemporalOp::Union,
            TemporalOp::Selection {
                predicate: col(0).lt(lit(4i64)),
            },
        ],
        vec![
            TemporalOp::Difference,
            TemporalOp::Projection { attrs: vec![0] },
        ],
        vec![
            TemporalOp::Intersection,
            TemporalOp::Aggregation {
                group: vec![],
                aggs: count,
            },
        ],
    ]
}

fn check_chains(r: &TemporalRelation, s: &TemporalRelation, label: &str) {
    for (i, chain) in chains_1col().iter().enumerate() {
        let mut plan = apply_plan(
            &chain[0],
            TemporalPlan::scan(r),
            Some(TemporalPlan::scan(s)),
        )
        .unwrap_or_else(|e| panic!("{label} chain {i}: compose: {e}"));
        for op in &chain[1..] {
            plan = apply_plan(op, plan, None)
                .unwrap_or_else(|e| panic!("{label} chain {i}: compose: {e}"));
        }
        assert_parallel_identical(&plan, &format!("{label} chain {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelines over the paper's synthetic datasets: threads=4 ≡
    /// threads=1 ≡ row path on Ddisj and Deq of random sizes.
    #[test]
    fn parallel_equals_serial_on_ddisj_and_deq(n in 2usize..7) {
        let (r, s) = ddisj(n);
        check_chains(&r, &s, &format!("ddisj({n})"));
        let (r, s) = deq(n);
        check_chains(&r, &s, &format!("deq({n})"));
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn parallel_equals_serial_on_drand(n in 2usize..7, seed in 0u64..1000) {
        let (r, s) = drand(n, seed);
        // concat row = (id, ts, te, a, min, max, ts, te)
        let chains: Vec<Vec<TemporalOp>> = vec![
            vec![
                TemporalOp::Join { theta: Some(col(0).lt(col(3))) },
                TemporalOp::Projection { attrs: vec![0] },
            ],
            vec![
                TemporalOp::LeftOuterJoin { theta: Some(col(0).lt(col(3))) },
                TemporalOp::Selection { predicate: col(1).ge(lit(0i64)) },
                TemporalOp::Projection { attrs: vec![0, 1] },
            ],
            vec![
                TemporalOp::AntiJoin { theta: Some(col(0).eq(col(3))) },
                TemporalOp::Aggregation {
                    group: vec![0],
                    aggs: vec![(AggCall::count_star(), "cnt".to_string())],
                },
            ],
        ];
        for (i, chain) in chains.iter().enumerate() {
            let mut plan = apply_plan(
                &chain[0],
                TemporalPlan::scan(&r),
                Some(TemporalPlan::scan(&s)),
            ).unwrap_or_else(|e| panic!("drand chain {i}: compose: {e}"));
            for op in &chain[1..] {
                plan = apply_plan(op, plan, None)
                    .unwrap_or_else(|e| panic!("drand chain {i}: compose: {e}"));
            }
            assert_parallel_identical(&plan, &format!("drand({n},{seed}) chain {i}"));
        }
    }

    /// The raw primitives under parallel execution: alignment,
    /// normalization, the gaps-only sweep and absorb.
    #[test]
    fn parallel_equals_serial_on_raw_primitives(seed in 0u64..500) {
        let r = common::random_trel(seed, 14, 4, 30);
        let s = common::random_trel(seed + 10_000, 14, 4, 30);
        let theta = col(0).eq(col(3));

        let align = TemporalPlan::scan(&r)
            .align(TemporalPlan::scan(&s), Some(theta.clone()))
            .unwrap();
        assert_parallel_identical(&align, &format!("align seed {seed}"));

        let normalize = TemporalPlan::scan(&r)
            .normalize(TemporalPlan::scan(&s), &[(0, 0)])
            .unwrap();
        assert_parallel_identical(&normalize, &format!("normalize seed {seed}"));

        let gaps = TemporalPlan::scan(&r)
            .anti_join_optimized(TemporalPlan::scan(&s), Some(theta))
            .unwrap();
        assert_parallel_identical(&gaps, &format!("gaps-only seed {seed}"));

        let absorb = TemporalPlan::scan(&r).absorb();
        assert_parallel_identical(&absorb, &format!("absorb seed {seed}"));
    }
}

// ---- partition-boundary edge cases -----------------------------------

/// Sweep groups that straddle the naive equal-size partition cuts: 3
/// oversized groups over 4 workers force every cut to snap forward past a
/// group, and one group dwarfs the others (skew).
#[test]
fn boundary_straddling_groups_are_swept_whole() {
    let mut r_rows: Vec<(i64, i64, i64)> = Vec::new();
    // Group 0: 50 tuples; group 1: 400 tuples (dwarfs the rest); group 2: 73.
    for (k, count) in [(0i64, 50i64), (1, 400), (2, 73)] {
        for i in 0..count {
            r_rows.push((k, 3 * i, 3 * i + 2));
        }
    }
    let r = common::rel1("r", &r_rows);
    let s_rows: Vec<(i64, i64, i64)> = (0..200).map(|i| (i % 3, 6 * i + 1, 6 * i + 4)).collect();
    let s = common::rel1("s", &s_rows);

    let align = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), Some(col(0).eq(col(3))))
        .unwrap();
    assert_parallel_identical(&align, "straddling align");
    let absorb = TemporalPlan::scan(&r).absorb();
    assert_parallel_identical(&absorb, "straddling absorb");
}

/// Exact-boundary case: the input size divides evenly by the worker count
/// AND every data-run boundary coincides with a naive cut point, so the
/// snap loop takes zero steps. The partitioned sweep must still agree and
/// must actually have partitioned (not fallen back to serial).
#[test]
fn exact_partition_boundaries() {
    // 400 rows, 4 workers → cuts at 100/200/300; data changes exactly there.
    let rows: Vec<(i64, i64, i64)> = (0..400).map(|i| (i / 100, 2 * i, 2 * i + 1)).collect();
    let r = common::rel1("r", &rows);
    let plan = TemporalPlan::scan(&r).absorb();
    let physical = Planner::default()
        .plan(plan.logical(), &Catalog::new())
        .unwrap();
    let serial = physical.collect(&serial_state()).unwrap();
    let par_state = parallel_state();
    let parallel = physical.collect(&par_state).unwrap();
    assert_eq!(serial.rows(), parallel.rows());
    let (_, _, partitions) = par_state.stats.snapshot();
    assert!(
        partitions > 1,
        "exact-boundary input must still run partitioned, got {partitions}"
    );
}
