//! Schemas and the in-memory [`Table`]: a schema plus its rows.
//!
//! Appending is the only mutation — rows are never edited or removed,
//! mirroring the append-only on-disk format.

use crate::{ColumnType, StoreError, Value};

/// An ordered list of `(name, type)` column declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// A schema from `(name, type)` pairs.
    pub fn new(columns: &[(&str, ColumnType)]) -> Self {
        Schema {
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// A schema from owned pairs (the format reader's constructor).
    pub(crate) fn from_columns(columns: Vec<(String, ColumnType)>) -> Self {
        Schema { columns }
    }

    /// The `(name, type)` declarations in column order.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for the (degenerate) zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// The type of the column named `name`.
    pub fn type_of(&self, name: &str) -> Option<ColumnType> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }

    /// Checks that `row` has one cell per column, each of its column's
    /// type.
    pub(crate) fn check(&self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.len() {
            return Err(StoreError::Schema(format!(
                "row has {} cells but the schema has {} columns",
                row.len(),
                self.len()
            )));
        }
        for (val, (name, ty)) in row.iter().zip(&self.columns) {
            if val.column_type() != *ty {
                return Err(StoreError::Schema(format!(
                    "column '{}' is {} but the row carries {}",
                    name,
                    ty,
                    val.column_type()
                )));
            }
        }
        Ok(())
    }
}

/// An in-memory table: a schema plus its rows, in append order.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends one row. Errors on arity or per-cell type mismatches.
    pub fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        self.schema.check(row)?;
        self.rows.push(row.to_vec());
        Ok(())
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// On out-of-range indices.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.rows[row][col].clone()
    }

    /// One whole row, in schema order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.rows[row].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[("name", ColumnType::Str), ("n", ColumnType::U64)])
    }

    #[test]
    fn schema_lookups() {
        let s = schema();
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("n"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.type_of("name"), Some(ColumnType::Str));
    }

    #[test]
    fn arity_and_type_mismatches_error() {
        let mut t = Table::new(schema());
        assert!(t.push(&[Value::str("x")]).is_err(), "arity");
        assert!(t.push(&[Value::U64(1), Value::U64(2)]).is_err(), "type");
        assert_eq!(t.rows(), 0);
    }
}
