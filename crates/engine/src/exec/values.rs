//! Inline row source (VALUES lists, constant relations).

use crate::batch::{next_chunk, RowBatch};
use crate::error::EngineResult;
use crate::exec::{ExecNode, ExecutionState};
use crate::schema::Schema;
use crate::tuple::Row;

/// Emits a fixed list of rows.
pub struct ValuesExec {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl ValuesExec {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        ValuesExec {
            schema,
            rows: rows.into_iter(),
        }
    }
}

impl ExecNode for ValuesExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        Ok(next_chunk(&self.schema, &mut self.rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::collect;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    #[test]
    fn emits_fixed_rows() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let node = ValuesExec::new(
            schema,
            vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
        );
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
    }
}
