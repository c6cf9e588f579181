//! One typed column: a dense vector of cells of a single [`ColumnType`].
//!
//! String cells hold `u32` dictionary codes, never the strings themselves —
//! the enclosing table (or the streaming writer) owns one [`Dictionary`]
//! shared by all `Str` columns.

use crate::dict::Dictionary;
use crate::{ColumnType, StoreError, Value};

/// A typed column of cells.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    /// Unsigned integers.
    U64(Vec<u64>),
    /// Floats.
    F64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary codes of interned strings.
    Str(Vec<u32>),
}

impl Column {
    /// An empty column of the given type.
    pub(crate) fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::U64 => Column::U64(Vec::new()),
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::Bool => Column::Bool(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
        }
    }

    /// This column's type.
    pub(crate) fn column_type(&self) -> ColumnType {
        match self {
            Column::U64(_) => ColumnType::U64,
            Column::F64(_) => ColumnType::F64,
            Column::Bool(_) => ColumnType::Bool,
            Column::Str(_) => ColumnType::Str,
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Appends a cell, interning strings through `dict`. Errors on a type
    /// mismatch rather than coercing.
    pub(crate) fn push(&mut self, value: &Value, dict: &mut Dictionary) -> Result<(), StoreError> {
        match (self, value) {
            (Column::U64(v), Value::U64(x)) => v.push(*x),
            (Column::F64(v), Value::F64(x)) => v.push(*x),
            (Column::Bool(v), Value::Bool(x)) => v.push(*x),
            (Column::Str(v), Value::Str(s)) => v.push(dict.intern(s)),
            (col, value) => {
                return Err(StoreError::Schema(format!(
                    "cannot push a {} value into a {} column",
                    value.column_type(),
                    col.column_type()
                )))
            }
        }
        Ok(())
    }

    /// The cell at `row`, with string codes resolved through `dict`.
    ///
    /// # Panics
    ///
    /// On an out-of-range row or a code absent from `dict` (both indicate
    /// internal corruption, not caller error).
    pub(crate) fn value(&self, row: usize, dict: &Dictionary) -> Value {
        match self {
            Column::U64(v) => Value::U64(v[row]),
            Column::F64(v) => Value::F64(v[row]),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Str(v) => Value::Str(
                dict.resolve(v[row])
                    .expect("column code interned")
                    .to_string(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_all_types() {
        let mut dict = Dictionary::new();
        let cases = [
            (ColumnType::U64, Value::U64(9)),
            (ColumnType::F64, Value::F64(2.5)),
            (ColumnType::Bool, Value::Bool(true)),
            (ColumnType::Str, Value::str("cns")),
        ];
        for (ty, val) in cases {
            let mut c = Column::new(ty);
            assert_eq!(c.len(), 0);
            c.push(&val, &mut dict).unwrap();
            assert_eq!(c.len(), 1);
            assert_eq!(c.value(0, &dict), val);
            assert_eq!(c.column_type(), ty);
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut dict = Dictionary::new();
        let mut c = Column::new(ColumnType::U64);
        let err = c.push(&Value::str("oops"), &mut dict).unwrap_err();
        assert!(matches!(err, StoreError::Schema(_)), "{err}");
    }
}
