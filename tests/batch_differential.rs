//! Executor differential tests against the reference semantics: compiled
//! plans drained through `PhysicalPlan::collect` (the batch executor) must
//! equal `core::reference` on every operator — filter, project,
//! aggregation, the join algorithms (hash, keyless nested loop, interval
//! sweep), set operations, both temporal adjustment modes (alignment and
//! normalization), the gaps-only anti-join sweep and absorb. Chains are
//! checked against the point-wise `evaluate_oracle`; the raw primitives
//! against `align_ref`, `normalize_ref` and `absorb_ref`, and the
//! gaps-only sweep against the oracle's anti join. Every chain runs under
//! the default planner and again under `PlannerConfig::nestloop_only()`,
//! so the keyless join is checked for Inner/Left/Full/Anti as well.
//!
//! Plus batch-boundary edge cases: empty inputs, batches emptied by a
//! filter, inputs of exactly `BATCH_SIZE` rows, and sweep and absorb
//! groups spanning batch boundaries.

mod common;

use proptest::prelude::*;
use temporal_alignment::core::prelude::*;
use temporal_alignment::core::primitives::absorb::absorb_ref;
use temporal_alignment::core::primitives::aligner::{align_ref, Theta};
use temporal_alignment::core::primitives::splitter::normalize_ref;
use temporal_alignment::core::reference::evaluate_oracle;
use temporal_alignment::core::semantics::TemporalOp;
use temporal_alignment::engine::catalog::Catalog;
use temporal_alignment::engine::prelude::*;
use temporal_datasets::{ddisj, deq, drand};

/// The planner configurations every chain runs under: the default, and
/// nested loops only (every join a keyless hash join).
fn configs() -> [(PlannerConfig, &'static str); 2] {
    [
        (PlannerConfig::default(), "default"),
        (PlannerConfig::nestloop_only(), "nestloop"),
    ]
}

/// Plan `lp` and drain it through `PhysicalPlan::collect`.
fn collect_logical(lp: &LogicalPlan, config: PlannerConfig, label: &str) -> Relation {
    Planner::new(config)
        .plan(lp, &Catalog::new())
        .unwrap_or_else(|e| panic!("{label}: plan: {e}"))
        .collect(&ExecutionState::new(config))
        .unwrap_or_else(|e| panic!("{label}: collect: {e}"))
}

fn collect_plan(plan: &TemporalPlan, config: PlannerConfig, label: &str) -> TemporalRelation {
    TemporalRelation::new(collect_logical(plan.logical(), config, label))
        .unwrap_or_else(|e| panic!("{label}: result: {e}"))
}

fn assert_same_set(got: &TemporalRelation, want: &TemporalRelation, label: &str) {
    assert!(
        got.same_set(want),
        "{label}: executor diverges from the reference.\nexecutor:\n{got}\nreference:\n{want}"
    );
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

/// Compose `chain` (first operator binary over `(r, s)`, the rest unary)
/// into one plan, and evaluate it step by step with the oracle; compare
/// under every planner configuration.
fn check_chain(chain: &[TemporalOp], r: &TemporalRelation, s: &TemporalRelation, label: &str) {
    let mut plan = apply_plan(
        &chain[0],
        TemporalPlan::scan(r),
        Some(TemporalPlan::scan(s)),
    )
    .unwrap_or_else(|e| panic!("{label}: compose: {e}"));
    for op in &chain[1..] {
        plan = apply_plan(op, plan, None).unwrap_or_else(|e| panic!("{label}: compose: {e}"));
    }
    let mut oracle = evaluate_oracle(&chain[0], &[r, s])
        .unwrap_or_else(|e| panic!("{label}: oracle {}: {e}", chain[0].name()));
    for op in &chain[1..] {
        oracle = evaluate_oracle(op, &[&oracle])
            .unwrap_or_else(|e| panic!("{label}: oracle {}: {e}", op.name()));
    }
    for (config, name) in configs() {
        let label = format!("{label} [{name}]");
        assert_same_set(&collect_plan(&plan, config, &label), &oracle, &label);
    }
}

/// Chains over two one-data-column relations covering filter, project,
/// aggregation, every join family and every set operation — and, through
/// the reductions, both adjustment modes (joins align, group-based
/// operators and set ops normalize) plus absorb.
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
        // θ = None: the group-construction join is a pure overlap join, so
        // the default planner's heuristic picks the interval sweep join.
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
        check_chain(chain, r, s, &format!("{label} chain {i}"));
    }
}

/// Alignment, normalization, the gaps-only anti-join sweep and absorb of
/// `(r, s)` against their references, under the default planner. `theta`
/// is over `r_row ++ s_row`; `b` the normalization's grouping pairs.
fn check_primitives(
    r: &TemporalRelation,
    s: &TemporalRelation,
    theta: Option<Expr>,
    b: &[(usize, usize)],
    label: &str,
) {
    let config = PlannerConfig::default();
    let align = TemporalPlan::scan(r)
        .align(TemporalPlan::scan(s), theta.clone())
        .unwrap();
    let align_theta = theta.clone().map_or(Theta::True, Theta::Predicate);
    let label_a = format!("align {label}");
    assert_same_set(
        &collect_plan(&align, config, &label_a),
        &align_ref(r, s, &align_theta).unwrap(),
        &label_a,
    );

    let normalize = TemporalPlan::scan(r)
        .normalize(TemporalPlan::scan(s), b)
        .unwrap();
    let label_n = format!("normalize {label}");
    assert_same_set(
        &collect_plan(&normalize, config, &label_n),
        &normalize_ref(r, s, b).unwrap(),
        &label_n,
    );

    let gaps = TemporalPlan::scan(r)
        .anti_join_optimized(TemporalPlan::scan(s), theta.clone())
        .unwrap();
    let label_g = format!("gaps-only {label}");
    assert_same_set(
        &collect_plan(&gaps, config, &label_g),
        &evaluate_oracle(&TemporalOp::AntiJoin { theta }, &[r, s]).unwrap(),
        &label_g,
    );

    let absorb = TemporalPlan::scan(r).absorb();
    let label_b = format!("absorb {label}");
    assert_same_set(
        &collect_plan(&absorb, config, &label_b),
        &absorb_ref(r).unwrap(),
        &label_b,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipelines over the paper's synthetic datasets: executor ≡ oracle on
    /// Ddisj and Deq of random sizes.
    #[test]
    fn chains_match_oracle_on_ddisj_and_deq(n in 2usize..7) {
        let (r, s) = ddisj(n);
        check_chains(&r, &s, &format!("ddisj({n})"));
        let (r, s) = deq(n);
        check_chains(&r, &s, &format!("deq({n})"));
    }

    /// Pipelines on Drand (random intervals, asymmetric schemas).
    #[test]
    fn chains_match_oracle_on_drand(n in 2usize..7, seed in 0u64..1000) {
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
                TemporalOp::FullOuterJoin { theta: Some(col(0).lt(col(3))) },
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
            check_chain(chain, &r, &s, &format!("drand({n},{seed}) chain {i}"));
        }
    }

    /// The raw primitives against their direct references: alignment,
    /// normalization, the gaps-only anti-join sweep and absorb.
    #[test]
    fn raw_primitives_match_references(seed in 0u64..500) {
        let r = common::random_trel(seed, 14, 4, 30);
        let s = common::random_trel(seed + 10_000, 14, 4, 30);
        check_primitives(&r, &s, Some(col(0).eq(col(3))), &[(0, 0)], &format!("seed {seed}"));
        check_primitives(&r, &s, None, &[], &format!("seed {seed}, no θ"));
    }
}

// ---- batch-boundary edge cases ---------------------------------------

/// A sweep group larger than `BATCH_SIZE`: one r tuple split at ~1.5·1024
/// interior points, so the adjustment's sorted group spans several input
/// batches — and the output spans several output batches.
#[test]
fn sweep_group_spanning_batches() {
    let k = BATCH_SIZE as i64 + 512;
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        vec![(vec![Value::Int(0)], Interval::of(0, 2 * k + 2))],
    )
    .unwrap();
    // Disjoint unit intervals strictly inside r's interval: every endpoint
    // is a split point.
    let s = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        (0..k)
            .map(|i| (vec![Value::Int(i)], Interval::of(2 * i + 1, 2 * i + 2)))
            .collect(),
    )
    .unwrap();
    let config = PlannerConfig::default();
    let normalize = TemporalPlan::scan(&r)
        .normalize(TemporalPlan::scan(&s), &[])
        .unwrap();
    let got = collect_plan(&normalize, config, "giant normalize group");
    assert_eq!(got.len() as i64, 2 * k + 1);
    assert_same_set(
        &got,
        &normalize_ref(&r, &s, &[]).unwrap(),
        "giant normalize group",
    );
    let align = TemporalPlan::scan(&r)
        .align(TemporalPlan::scan(&s), None)
        .unwrap();
    let got = collect_plan(&align, config, "giant align group");
    assert!(got.len() > BATCH_SIZE);
    assert_same_set(
        &got,
        &align_ref(&r, &s, &Theta::True).unwrap(),
        "giant align group",
    );
}

/// An absorb group larger than `BATCH_SIZE` (nested same-value intervals):
/// group state must carry across input batches.
#[test]
fn absorb_group_spanning_batches() {
    let k = BATCH_SIZE as i64 + 300;
    let schema = Schema::new(vec![
        Column::new("v", DataType::Int),
        Column::new("ts", DataType::Int),
        Column::new("te", DataType::Int),
    ]);
    // (0, [i, 2k - i)) for i in 0..k — all absorbed into (0, [0, 2k)).
    let rel = Relation::from_values(
        schema,
        (0..k)
            .map(|i| vec![Value::Int(0), Value::Int(i), Value::Int(2 * k - i)])
            .collect(),
    )
    .unwrap();
    let lp = temporal_alignment::core::primitives::absorb::AbsorbNode::plan(
        LogicalPlan::inline_scan(rel.clone()),
    );
    let got = TemporalRelation::new(collect_logical(
        &lp,
        PlannerConfig::default(),
        "giant absorb group",
    ))
    .unwrap();
    assert_eq!(got.len(), 1);
    let want = absorb_ref(&TemporalRelation::new(rel).unwrap()).unwrap();
    assert_same_set(&got, &want, "giant absorb group");
}

/// Inputs of exactly `BATCH_SIZE` rows: one full batch, then `None` — and
/// empty inputs: `None` immediately, never an empty batch. Both shapes
/// also go through the temporal primitives against their references.
#[test]
fn exact_batch_size_and_empty_inputs() {
    let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
    let exact = Relation::from_values(
        schema.clone(),
        (0..BATCH_SIZE as i64)
            .map(|i| vec![Value::Int(i)])
            .collect(),
    )
    .unwrap();
    let state = ExecutionState::default();
    let mut scan = temporal_alignment::engine::exec::SeqScanExec::new(exact.into_shared());
    let first = scan.next_batch(&state).unwrap().expect("one full batch");
    assert_eq!(first.len(), BATCH_SIZE);
    assert!(scan.next_batch(&state).unwrap().is_none());

    let empty = Relation::empty(schema.clone());
    let mut scan = temporal_alignment::engine::exec::SeqScanExec::new(empty.into_shared());
    assert!(scan.next_batch(&state).unwrap().is_none());
    assert!(scan.next_batch(&state).unwrap().is_none());

    // Exactly BATCH_SIZE r tuples (value i over [2i, 2i + 3)), each
    // overlapping its neighbours, against a small s.
    let r = TemporalRelation::from_rows(
        Schema::new(vec![Column::new("k", DataType::Int)]),
        (0..BATCH_SIZE as i64)
            .map(|i| (vec![Value::Int(i % 7)], Interval::of(2 * i, 2 * i + 3)))
            .collect(),
    )
    .unwrap();
    let s = common::random_trel(3, 14, 7, 2 * BATCH_SIZE as i64);
    check_primitives(&r, &s, Some(col(0).eq(col(3))), &[(0, 0)], "exact batch");
    let e = common::random_trel(0, 0, 1, 1);
    assert!(e.is_empty());
    check_primitives(&r, &e, None, &[], "empty s");
    check_primitives(&e, &s, None, &[], "empty r");
    check_chains(&e, &s, "empty r");
    check_chains(&s, &e, "empty s");
}

/// A filter that empties whole input batches must skip them (batches are
/// never empty) and still terminate.
#[test]
fn filter_skips_emptied_batches() {
    let n = 3 * BATCH_SIZE as i64;
    let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
    let rel = Relation::from_values(schema, (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    // Keep only a sliver from the middle batch.
    let lo = BATCH_SIZE as i64 + 10;
    let hi = lo + 5;
    let lp =
        LogicalPlan::inline_scan(rel.clone()).filter(col(0).ge(lit(lo)).and(col(0).lt(lit(hi))));
    let got = collect_logical(&lp, PlannerConfig::default(), "middle sliver filter");
    let want: Vec<Vec<Value>> = (lo..hi).map(|i| vec![Value::Int(i)]).collect();
    let got: Vec<Vec<Value>> = got.rows().iter().map(|r| r.to_vec()).collect();
    assert_eq!(got, want, "middle sliver filter");
    // Keep nothing at all.
    let lp = LogicalPlan::inline_scan(rel).filter(col(0).lt(lit(0i64)));
    let physical = Planner::default().plan(&lp, &Catalog::new()).unwrap();
    let state = ExecutionState::default();
    let mut exec = physical.execute(&state).unwrap();
    assert!(exec.next_batch(&state).unwrap().is_none());
}
