//! Schemas, fixed-size chunks, and the in-memory [`Table`].
//!
//! A table is a schema plus a list of `Chunk`s; every chunk except the
//! last holds exactly [`CHUNK_ROWS`] rows, so a global row index maps to
//! `(row / CHUNK_ROWS, row % CHUNK_ROWS)` with no per-chunk offsets. All
//! `Str` columns share the table's one [`Dictionary`]. Appending is the
//! only mutation — rows are never edited or removed, mirroring the
//! append-only on-disk format.

use crate::column::Column;
use crate::dict::Dictionary;
use crate::{ColumnType, StoreError, Value};

/// Rows per chunk, both in memory and in each on-disk chunk frame.
pub const CHUNK_ROWS: usize = 256;

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
}

/// One fixed-capacity block of rows: every column holds the same number of
/// cells, at most [`CHUNK_ROWS`].
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    columns: Vec<Column>,
}

impl Chunk {
    /// An empty chunk matching `schema`.
    pub(crate) fn new(schema: &Schema) -> Self {
        Chunk {
            columns: schema
                .columns()
                .iter()
                .map(|(_, t)| Column::new(*t))
                .collect(),
        }
    }

    /// Rows currently held.
    pub(crate) fn rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True at [`CHUNK_ROWS`] rows.
    pub(crate) fn is_full(&self) -> bool {
        self.rows() >= CHUNK_ROWS
    }

    /// The columns, in schema order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Appends one row (arity pre-checked by the caller).
    pub(crate) fn push(&mut self, row: &[Value], dict: &mut Dictionary) -> Result<(), StoreError> {
        for (col, val) in self.columns.iter_mut().zip(row) {
            col.push(val, dict)?;
        }
        Ok(())
    }
}

/// An in-memory columnar table: schema + shared dictionary + chunks.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    dict: Dictionary,
    chunks: Vec<Chunk>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            dict: Dictionary::new(),
            chunks: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared string dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Total rows across all chunks.
    pub fn rows(&self) -> usize {
        match self.chunks.split_last() {
            None => 0,
            Some((last, full)) => full.len() * CHUNK_ROWS + last.rows(),
        }
    }

    /// Appends one row. Errors on arity or per-cell type mismatches.
    pub fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.schema.len() {
            return Err(StoreError::Schema(format!(
                "row has {} cells but the schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        if self.chunks.last().is_none_or(Chunk::is_full) {
            self.chunks.push(Chunk::new(&self.schema));
        }
        let chunk = self.chunks.last_mut().expect("just ensured");
        chunk.push(row, &mut self.dict)
    }

    /// The cell at `(row, col)` (global row index across chunks).
    ///
    /// # Panics
    ///
    /// On out-of-range indices.
    pub fn value(&self, row: usize, col: usize) -> Value {
        let chunk = &self.chunks[row / CHUNK_ROWS];
        chunk.columns()[col].value(row % CHUNK_ROWS, &self.dict)
    }

    /// One whole row, in schema order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.value(row, c)).collect()
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
    fn rows_spill_into_fresh_chunks_at_the_boundary() {
        let mut t = Table::new(schema());
        let total = CHUNK_ROWS + 3;
        for i in 0..total {
            t.push(&[Value::str(format!("r{}", i % 7)), Value::U64(i as u64)])
                .unwrap();
        }
        assert_eq!(t.rows(), total);
        assert_eq!(t.chunks.len(), 2);
        assert_eq!(t.chunks[0].rows(), CHUNK_ROWS);
        assert_eq!(t.chunks[1].rows(), 3);
        // Reads across the boundary resolve through the shared dictionary.
        assert_eq!(t.value(CHUNK_ROWS, 1), Value::U64(CHUNK_ROWS as u64));
        assert_eq!(
            t.value(CHUNK_ROWS, 0),
            Value::str(format!("r{}", CHUNK_ROWS % 7))
        );
        assert_eq!(t.row(0), vec![Value::str("r0"), Value::U64(0)]);
    }

    #[test]
    fn arity_and_type_mismatches_error() {
        let mut t = Table::new(schema());
        assert!(t.push(&[Value::str("x")]).is_err(), "arity");
        assert!(t.push(&[Value::U64(1), Value::U64(2)]).is_err(), "type");
        assert_eq!(t.rows(), 0);
    }
}
