//! Hash aggregation ϑ: group rows and fold aggregate functions.
//!
//! Output layout: group expressions first, then one column per aggregate.
//! Grouping equality is structural (NULL groups with NULL), matching the
//! paper's set semantics where ω values group together.

use crate::batch::{next_chunk, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::exec::{collect_rows, BoxedExec, ExecNode, ExecutionState};
use crate::expr::{AggCall, AggFunc, Expr};
use crate::hashing::FxHashMap;
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::{num_add, Value};

/// One accumulator per (group, aggregate call).
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> EngineResult<()> {
        match self {
            Acc::Count(c) => {
                // CountStar passes None ⇒ always count; Count skips NULLs.
                match v {
                    None => *c += 1,
                    Some(val) if !val.is_null() => *c += 1,
                    _ => {}
                }
            }
            Acc::Sum(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *acc = Some(match acc.take() {
                            None => val.clone(),
                            Some(cur) => num_add(&cur, val)?,
                        });
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let d = val.as_double().ok_or_else(|| {
                            EngineError::TypeError(format!(
                                "avg over non-numeric {}",
                                val.type_name()
                            ))
                        })?;
                        *sum += d;
                        *count += 1;
                    }
                }
            }
            Acc::Min(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => matches!(val.sql_cmp(cur), Some(std::cmp::Ordering::Less)),
                        };
                        if replace {
                            *acc = Some(val.clone());
                        }
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => {
                                matches!(val.sql_cmp(cur), Some(std::cmp::Ordering::Greater))
                            }
                        };
                        if replace {
                            *acc = Some(val.clone());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
        }
    }
}

/// Aggregate a row set directly (shared by [`HashAggregateExec`] and by the
/// temporal reference oracle, so both use byte-identical aggregate
/// semantics). Output rows are `group values ++ aggregate values`, in
/// first-seen group order. A global aggregate (`group` empty) over zero
/// rows yields one row of identity values.
pub fn aggregate_rows(rows: &[Row], group: &[Expr], aggs: &[AggCall]) -> EngineResult<Vec<Row>> {
    let mut index: FxHashMap<Row, usize> = FxHashMap::default();
    let mut groups: Vec<(Row, Vec<Acc>)> = Vec::new();

    for row in rows {
        let mut key_vals = Vec::with_capacity(group.len());
        for g in group {
            key_vals.push(g.eval(row.values())?);
        }
        let key = Row::new(key_vals);
        let slot = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = groups.len();
                index.insert(key.clone(), i);
                groups.push((key, aggs.iter().map(|a| Acc::new(a.func)).collect()));
                i
            }
        };
        let accs = &mut groups[slot].1;
        for (acc, call) in accs.iter_mut().zip(aggs) {
            match &call.arg {
                None => acc.update(None)?,
                Some(e) => {
                    let v = e.eval(row.values())?;
                    acc.update(Some(&v))?;
                }
            }
        }
    }

    if groups.is_empty() && group.is_empty() {
        groups.push((
            Row::new(vec![]),
            aggs.iter().map(|a| Acc::new(a.func)).collect(),
        ));
    }

    Ok(groups
        .into_iter()
        .map(|(key, accs)| {
            let mut vals = key.to_vec();
            vals.extend(accs.iter().map(|a| a.finish()));
            Row::new(vals)
        })
        .collect())
}

/// Hash-based grouped aggregation. Materializes on the first pull and emits
/// groups in first-seen input order (deterministic).
pub struct HashAggregateExec {
    input: BoxedExec,
    group: Vec<Expr>,
    aggs: Vec<AggCall>,
    schema: Schema,
    out: Option<std::vec::IntoIter<Row>>,
}

impl HashAggregateExec {
    pub fn new(input: BoxedExec, group: Vec<Expr>, aggs: Vec<AggCall>, schema: Schema) -> Self {
        debug_assert_eq!(schema.len(), group.len() + aggs.len());
        HashAggregateExec {
            input,
            group,
            aggs,
            schema,
            out: None,
        }
    }

    fn compute(&mut self, state: &ExecutionState) -> EngineResult<Vec<Row>> {
        let rows = collect_rows(self.input.as_mut(), state)?;
        aggregate_rows(&rows, &self.group, &self.aggs)
    }
}

impl ExecNode for HashAggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Drain the input, then emit the groups a chunk at a time.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            let rows = self.compute(state)?;
            self.out = Some(rows.into_iter());
        }
        Ok(next_chunk(
            &self.schema,
            self.out.as_mut().expect("initialized"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};

    fn agg_schema(names: &[(&str, DataType)]) -> Schema {
        Schema::new(names.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    #[test]
    fn grouped_aggregates() {
        let rel = int2_rel(("g", "v"), &[(1, 10), (2, 5), (1, 20), (2, 7)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Sum, col(1)),
                AggCall::new(AggFunc::Avg, col(1)),
                AggCall::new(AggFunc::Min, col(1)),
                AggCall::new(AggFunc::Max, col(1)),
            ],
            agg_schema(&[
                ("g", DataType::Int),
                ("cnt", DataType::Int),
                ("sum", DataType::Int),
                ("avg", DataType::Double),
                ("min", DataType::Int),
                ("max", DataType::Int),
            ]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
        // first-seen order: group 1 then group 2
        assert_eq!(
            out.rows()[0].to_vec(),
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(30),
                Value::Double(15.0),
                Value::Int(10),
                Value::Int(20)
            ]
        );
        assert_eq!(out.rows()[1][2], Value::Int(12));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("v", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Count, col(0)),
                AggCall::new(AggFunc::Sum, col(0)),
            ],
            agg_schema(&[
                ("cs", DataType::Int),
                ("c", DataType::Int),
                ("s", DataType::Int),
            ]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(
            out.rows()[0].to_vec(),
            vec![Value::Int(3), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let rel = int2_rel(("g", "v"), &[]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![],
            vec![AggCall::count_star(), AggCall::new(AggFunc::Max, col(1))],
            agg_schema(&[("c", DataType::Int), ("m", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let rel = int2_rel(("g", "v"), &[]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![AggCall::count_star()],
            agg_schema(&[("g", DataType::Int), ("c", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn null_group_keys_group_together() {
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("g", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let agg = Box::new(HashAggregateExec::new(
            scan,
            vec![col(0)],
            vec![AggCall::new(AggFunc::Sum, col(1))],
            agg_schema(&[("g", DataType::Int), ("s", DataType::Int)]),
        ));
        let out = collect(agg, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][1], Value::Int(3));
    }
}
