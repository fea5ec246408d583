//! Sort-merge join on equi keys with an optional residual predicate.
//!
//! The planner guarantees both inputs arrive sorted ascending (NULLs first)
//! on the key columns. Supports Inner, Left and Full joins; the planner
//! rewrites Right joins by swapping inputs.

use crate::batch::{next_chunk, RowBatch};
use crate::error::EngineResult;
use crate::exec::{collect_rows, BoxedExec, ExecNode, ExecutionState};
use crate::expr::Expr;
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// Merge join over sorted inputs. Output is computed group-by-group on the
/// first pull and emitted a batch at a time.
pub struct MergeJoinExec {
    left: BoxedExec,
    right: BoxedExec,
    /// `(left column, right column)` pairs.
    keys: Vec<(usize, usize)>,
    residual: Option<Expr>,
    join_type: JoinType,
    schema: Schema,
    left_width: usize,
    right_width: usize,
    out: Option<std::vec::IntoIter<Row>>,
}

impl MergeJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        assert!(
            matches!(join_type, JoinType::Inner | JoinType::Left | JoinType::Full),
            "merge join supports Inner/Left/Full, got {join_type:?}"
        );
        let left_width = left.schema().len();
        let right_width = right.schema().len();
        let schema = left.schema().concat(right.schema());
        MergeJoinExec {
            left,
            right,
            keys,
            residual,
            join_type,
            schema,
            left_width,
            right_width,
            out: None,
        }
    }

    fn residual_ok(&self, combined: &Row) -> EngineResult<bool> {
        match &self.residual {
            None => Ok(true),
            Some(e) => e.eval_pred(combined.values()),
        }
    }

    fn compute(&mut self, state: &ExecutionState) -> EngineResult<Vec<Row>> {
        let l_rows = collect_rows(self.left.as_mut(), state)?;
        let r_rows = collect_rows(self.right.as_mut(), state)?;

        let lkey =
            |row: &Row| -> Vec<Value> { self.keys.iter().map(|&(l, _)| row[l].clone()).collect() };
        let rkey =
            |row: &Row| -> Vec<Value> { self.keys.iter().map(|&(_, r)| row[r].clone()).collect() };
        let has_null = |k: &[Value]| k.iter().any(Value::is_null);

        let mut out = Vec::new();

        // Rows with NULL keys can never match; handle per join type.
        // They sort to the front (NULLs first), but a NULL may appear in a
        // later key column, so partition explicitly.
        let (l_null, l_rows): (Vec<Row>, Vec<Row>) =
            l_rows.into_iter().partition(|r| has_null(&lkey(r)));
        let (r_null, r_rows): (Vec<Row>, Vec<Row>) =
            r_rows.into_iter().partition(|r| has_null(&rkey(r)));
        if matches!(self.join_type, JoinType::Left | JoinType::Full) {
            for r in &l_null {
                out.push(r.concat_nulls(self.right_width));
            }
        }
        if self.join_type == JoinType::Full {
            for r in &r_null {
                out.push(r.nulls_concat(self.left_width));
            }
        }

        let (mut li, mut ri) = (0usize, 0usize);
        while li < l_rows.len() && ri < r_rows.len() {
            let lk = lkey(&l_rows[li]);
            let rk = rkey(&r_rows[ri]);
            match lk.cmp(&rk) {
                std::cmp::Ordering::Less => {
                    if matches!(self.join_type, JoinType::Left | JoinType::Full) {
                        out.push(l_rows[li].concat_nulls(self.right_width));
                    }
                    li += 1;
                }
                std::cmp::Ordering::Greater => {
                    if self.join_type == JoinType::Full {
                        out.push(r_rows[ri].nulls_concat(self.left_width));
                    }
                    ri += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Gather the equal-key groups on both sides.
                    let mut lj = li + 1;
                    while lj < l_rows.len() && lkey(&l_rows[lj]) == lk {
                        lj += 1;
                    }
                    let mut rj = ri + 1;
                    while rj < r_rows.len() && rkey(&r_rows[rj]) == rk {
                        rj += 1;
                    }
                    let mut r_matched = vec![false; rj - ri];
                    for lrow in &l_rows[li..lj] {
                        let mut matched = false;
                        for (k, rrow) in r_rows[ri..rj].iter().enumerate() {
                            let combined = lrow.concat(rrow);
                            if self.residual_ok(&combined)? {
                                matched = true;
                                r_matched[k] = true;
                                out.push(combined);
                            }
                        }
                        if !matched && matches!(self.join_type, JoinType::Left | JoinType::Full) {
                            out.push(lrow.concat_nulls(self.right_width));
                        }
                    }
                    if self.join_type == JoinType::Full {
                        for (k, rrow) in r_rows[ri..rj].iter().enumerate() {
                            if !r_matched[k] {
                                out.push(rrow.nulls_concat(self.left_width));
                            }
                        }
                    }
                    li = lj;
                    ri = rj;
                }
            }
        }
        if matches!(self.join_type, JoinType::Left | JoinType::Full) {
            for lrow in &l_rows[li..] {
                out.push(lrow.concat_nulls(self.right_width));
            }
        }
        if self.join_type == JoinType::Full {
            for rrow in &r_rows[ri..] {
                out.push(rrow.nulls_concat(self.left_width));
            }
        }
        Ok(out)
    }
}

impl ExecNode for MergeJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            let rows = self.compute(state)?;
            self.out = Some(rows.into_iter());
        }
        Ok(next_chunk(
            &self.schema,
            self.out.as_mut().expect("computed"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, HashJoinExec, SeqScanExec, SortExec};
    use crate::expr::{col, SortKey};
    use crate::relation::Relation;

    fn sorted_scan(vals: &[(i64, i64)]) -> BoxedExec {
        let scan = Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()));
        Box::new(SortExec::new(scan, vec![SortKey::asc(col(0))]))
    }

    fn run_merge(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let node = MergeJoinExec::new(sorted_scan(l), sorted_scan(r), vec![(0, 0)], residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    /// The same join as a nested loop (keyless hash join), as the oracle.
    fn run_nl(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let cond = match residual {
            None => col(0).eq(col(2)),
            Some(res) => col(0).eq(col(2)).and(res),
        };
        let node = HashJoinExec::new(sorted_scan(l), sorted_scan(r), vec![], Some(cond), jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    #[test]
    fn agrees_with_nested_loop() {
        let l = [(1, 10), (2, 20), (2, 21), (4, 40), (5, 50)];
        let r = [(2, 200), (2, 201), (3, 300), (5, 500)];
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let m = run_merge(&l, &r, jt, None);
            let n = run_nl(&l, &r, jt, None);
            assert!(m.same_bag(&n), "join type {jt:?}: {m} vs {n}");
        }
    }

    #[test]
    fn residual_with_group_duplicates() {
        let l = [(2, 20), (2, 25), (2, 30)];
        let r = [(2, 22), (2, 28)];
        let residual = Some(col(1).lt(col(3)));
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            let m = run_merge(&l, &r, jt, residual.clone());
            let n = run_nl(&l, &r, jt, residual.clone());
            assert!(m.same_bag(&n), "join type {jt:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(run_merge(&[], &[(1, 1)], JoinType::Full, None).len(), 1);
        assert_eq!(run_merge(&[(1, 1)], &[], JoinType::Left, None).len(), 1);
        assert_eq!(run_merge(&[], &[], JoinType::Inner, None).len(), 0);
    }

    #[test]
    fn null_keys_surface_as_unmatched() {
        use crate::schema::{Column, DataType, Schema};
        use crate::value::Value;
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
        )
        .unwrap()
        .into_shared();
        let l = Box::new(SeqScanExec::new(rel));
        let r = sorted_scan(&[(2, 9)]);
        let node = MergeJoinExec::new(l, r, vec![(0, 0)], None, JoinType::Left);
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
        let unmatched = out.rows().iter().find(|r| r[0].is_null()).unwrap();
        assert!(unmatched[2].is_null());
    }
}
