//! Set operations ∪, ∩, − with set semantics (duplicates eliminated), the
//! semantics the paper assumes for temporal relations (Sec. 3.1).

use crate::batch::{next_chunk, RowBatch};
use crate::error::{EngineError, EngineResult};
use crate::exec::{collect_rows, BoxedExec, ExecNode, ExecutionState};
use crate::hashing::FxHashSet;
use crate::plan::SetOpKind;
use crate::schema::Schema;
use crate::tuple::Row;

/// Hash-based UNION / INTERSECT / EXCEPT.
pub struct HashSetOpExec {
    kind: SetOpKind,
    left: BoxedExec,
    right: BoxedExec,
    out: Option<std::vec::IntoIter<Row>>,
}

impl HashSetOpExec {
    pub fn new(kind: SetOpKind, left: BoxedExec, right: BoxedExec) -> EngineResult<Self> {
        if !left.schema().union_compatible(right.schema()) {
            return Err(EngineError::SchemaMismatch(format!(
                "set operation arguments are not union compatible: {} vs {}",
                left.schema(),
                right.schema()
            )));
        }
        Ok(HashSetOpExec {
            kind,
            left,
            right,
            out: None,
        })
    }

    fn compute(&mut self, state: &ExecutionState) -> EngineResult<Vec<Row>> {
        let left_rows = collect_rows(self.left.as_mut(), state)?;
        let right_rows = collect_rows(self.right.as_mut(), state)?;
        let mut out = Vec::new();
        match self.kind {
            SetOpKind::Union => {
                let mut seen: FxHashSet<Row> = FxHashSet::default();
                for r in left_rows.into_iter().chain(right_rows) {
                    if seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
            }
            SetOpKind::Intersect => {
                let right_set: FxHashSet<Row> = right_rows.into_iter().collect();
                let mut seen: FxHashSet<Row> = FxHashSet::default();
                for r in left_rows {
                    if right_set.contains(&r) && seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
            }
            SetOpKind::Except => {
                let right_set: FxHashSet<Row> = right_rows.into_iter().collect();
                let mut seen: FxHashSet<Row> = FxHashSet::default();
                for r in left_rows {
                    if !right_set.contains(&r) && seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
            }
        }
        Ok(out)
    }
}

impl ExecNode for HashSetOpExec {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    /// Drain both inputs, then emit the (materialized) result a chunk at a
    /// time.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.out.is_none() {
            let rows = self.compute(state)?;
            self.out = Some(rows.into_iter());
        }
        let out = self.out.as_mut().expect("initialized");
        Ok(next_chunk(self.left.schema(), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::{int_rel, rows_of};
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::value::Value;

    fn run(kind: SetOpKind, l: &[i64], r: &[i64]) -> Vec<i64> {
        let left = Box::new(SeqScanExec::new(int_rel("a", l).into_shared()));
        let right = Box::new(SeqScanExec::new(int_rel("a", r).into_shared()));
        let node = HashSetOpExec::new(kind, left, right).unwrap();
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        let mut v: Vec<i64> = rows_of(&out)
            .into_iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn union_dedups() {
        assert_eq!(run(SetOpKind::Union, &[1, 2, 2], &[2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn intersect() {
        assert_eq!(
            run(SetOpKind::Intersect, &[1, 2, 2, 3], &[2, 3, 4]),
            vec![2, 3]
        );
        assert_eq!(run(SetOpKind::Intersect, &[1], &[2]), Vec::<i64>::new());
    }

    #[test]
    fn except() {
        assert_eq!(run(SetOpKind::Except, &[1, 2, 2, 3], &[2]), vec![1, 3]);
        assert_eq!(run(SetOpKind::Except, &[], &[1]), Vec::<i64>::new());
    }

    #[test]
    fn union_compatibility_enforced() {
        use crate::exec::test_util::int2_rel;
        let left = Box::new(SeqScanExec::new(int_rel("a", &[1]).into_shared()));
        let right = Box::new(SeqScanExec::new(
            int2_rel(("a", "b"), &[(1, 2)]).into_shared(),
        ));
        assert!(HashSetOpExec::new(SetOpKind::Union, left, right).is_err());
    }

    #[test]
    fn null_rows_compare_equal_in_setops() {
        use crate::relation::Relation;
        use crate::schema::{Column, DataType, Schema};
        let mk = || {
            Box::new(SeqScanExec::new(
                Relation::from_values(
                    Schema::new(vec![Column::new("a", DataType::Int)]),
                    vec![vec![Value::Null]],
                )
                .unwrap()
                .into_shared(),
            ))
        };
        let node = HashSetOpExec::new(SetOpKind::Except, mk(), mk()).unwrap();
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert!(out.is_empty());
    }
}
