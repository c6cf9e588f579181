//! The append-only on-disk format: a streaming [`Writer`] and a sequential
//! [`read_table`] reader.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8B   "CLKSTOR1"
//! header       u32 ncols, then per column: u32 name_len, name bytes, u8 type tag
//! frames*      u8 frame tag, then:
//!   tag 1  dictionary delta: u32 count, then per string: u32 len, bytes
//!   tag 2  chunk: u32 nrows, then per column (schema order), packed cells:
//!            u64 -> 8B, f64 -> to_bits 8B, bool -> 1B, str -> u32 dict code
//! ```
//!
//! The writer buffers rows and flushes a chunk frame every
//! [`CHUNK_ROWS`] rows, preceded by a dictionary-delta frame whenever new
//! strings were interned since the last flush. Codes are assigned in
//! first-seen order and every delta frame lands *before* the first chunk
//! that references it, so a single forward pass reconstructs the table.
//! Opening an existing file validates the schema and replays it to recover
//! the dictionary, then appends — the byte stream of "one run, then another"
//! is identical to "two runs appended to the same file".
//!
//! A crash mid-append leaves a *torn tail*: the file ends inside a frame.
//! Reading stops after the last whole chunk frame (a dictionary delta only
//! counts together with the chunk it precedes, since the writer never emits
//! one alone), and reopening for append cuts the tail off first, so every
//! row of an earlier, finished session survives. Bytes that are present but
//! malformed — a bad magic, a truncated header, an unknown frame tag, an
//! oversized chunk — are [`StoreError::Corrupt`], never silently dropped.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::table::{Schema, Table, CHUNK_ROWS};
use crate::{ColumnType, Dictionary, StoreError, Value};

/// File magic: identifies a cutelock store, version 1.
pub(crate) const MAGIC: [u8; 8] = *b"CLKSTOR1";
/// Frame tag for a dictionary delta.
pub(crate) const FRAME_DICT: u8 = 1;
/// Frame tag for a chunk of rows.
pub(crate) const FRAME_CHUNK: u8 = 2;

/// A streaming, append-only writer.
///
/// Dropping a writer without calling [`Writer::finish`] loses any buffered
/// rows (at most [`CHUNK_ROWS`] - 1 of them); the file stays readable.
pub struct Writer {
    out: BufWriter<File>,
    schema: Schema,
    dict: Dictionary,
    pending: Vec<Vec<Value>>,
}

impl Writer {
    /// Opens `path` for appending, creating it (and writing the header) if
    /// absent. An existing file must carry exactly this schema; a torn tail
    /// is cut off before anything is appended.
    pub fn open(path: impl AsRef<Path>, schema: Schema) -> Result<Writer, StoreError> {
        let path = path.as_ref();
        let exists = path.exists();
        let mut dict = Dictionary::new();
        let mut whole = None;
        if exists {
            // Replay the file: validates magic + schema and recovers every
            // dictionary code so appended rows keep interning consistently.
            let (existing, end) = replay(path)?;
            if existing.schema() != &schema {
                return Err(StoreError::Schema(format!(
                    "store {} has a different schema than the one being opened",
                    path.display()
                )));
            }
            for s in existing.dict().iter() {
                dict.intern(s);
            }
            dict.mark_flushed();
            whole = Some(end);
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if let Some(end) = whole {
            if file.metadata()?.len() > end {
                file.set_len(end)?;
            }
        }
        let mut out = BufWriter::new(file);
        if !exists {
            out.write_all(&MAGIC)?;
            write_u32(&mut out, schema.len() as u32)?;
            for (name, ty) in schema.columns() {
                write_u32(&mut out, name.len() as u32)?;
                out.write_all(name.as_bytes())?;
                out.write_all(&[ty.tag()])?;
            }
        }
        Ok(Writer {
            out,
            schema,
            dict,
            pending: Vec::new(),
        })
    }

    /// Appends one row, flushing a chunk frame at every
    /// [`CHUNK_ROWS`]-row boundary.
    pub fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.schema.len() {
            return Err(StoreError::Schema(format!(
                "row has {} cells but the schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (val, (name, ty)) in row.iter().zip(self.schema.columns()) {
            if val.column_type() != *ty {
                return Err(StoreError::Schema(format!(
                    "column '{}' is {} but the row carries {}",
                    name,
                    ty,
                    val.column_type()
                )));
            }
            if let Value::Str(s) = val {
                self.dict.intern(s);
            }
        }
        self.pending.push(row.to_vec());
        if self.pending.len() >= CHUNK_ROWS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flushes any buffered rows and the underlying file buffer.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if !self.pending.is_empty() {
            self.flush_chunk()?;
        }
        self.out.flush()?;
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        let delta = self.dict.pending();
        if !delta.is_empty() {
            self.out.write_all(&[FRAME_DICT])?;
            write_u32(&mut self.out, delta.len() as u32)?;
            for s in delta {
                write_u32(&mut self.out, s.len() as u32)?;
                self.out.write_all(s.as_bytes())?;
            }
            self.dict.mark_flushed();
        }
        self.out.write_all(&[FRAME_CHUNK])?;
        write_u32(&mut self.out, self.pending.len() as u32)?;
        // Columnar layout: all cells of column 0, then column 1, ...
        for (col, (_, ty)) in self.schema.columns().iter().enumerate() {
            for row in &self.pending {
                match (ty, &row[col]) {
                    (ColumnType::U64, Value::U64(v)) => {
                        self.out.write_all(&v.to_le_bytes())?;
                    }
                    (ColumnType::F64, Value::F64(v)) => {
                        self.out.write_all(&v.to_bits().to_le_bytes())?;
                    }
                    (ColumnType::Bool, Value::Bool(v)) => {
                        self.out.write_all(&[u8::from(*v)])?;
                    }
                    (ColumnType::Str, Value::Str(s)) => {
                        let code = self.dict.code(s).expect("interned on push");
                        write_u32(&mut self.out, code)?;
                    }
                    _ => unreachable!("types validated on push"),
                }
            }
        }
        self.pending.clear();
        Ok(())
    }
}

/// Reads a whole store file into an in-memory [`Table`] with a single
/// sequential pass (no seeking, no mmap). A torn tail is left out.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StoreError> {
    replay(path.as_ref()).map(|(table, _)| table)
}

/// [`read_table`], plus how many trailing bytes it left out: the torn
/// tail of an append that never finished (0 for an intact file).
pub fn read_table_torn(path: impl AsRef<Path>) -> Result<(Table, u64), StoreError> {
    let path = path.as_ref();
    let (table, end) = replay(path)?;
    Ok((table, std::fs::metadata(path)?.len().saturating_sub(end)))
}

/// Replays a store file, returning its table and the byte offset where its
/// last whole chunk frame ends.
fn replay(path: &Path) -> Result<(Table, u64), StoreError> {
    let mut r = Counted {
        inner: BufReader::new(File::open(path)?),
        pos: 0,
    };
    let header = |e: Short| match e {
        Short::Eof => StoreError::Corrupt("truncated header".into()),
        Short::Err(e) => e,
    };

    let mut magic = [0u8; 8];
    fill(&mut r, &mut magic)
        .map_err(|_| StoreError::Corrupt("file shorter than the magic".into()))?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic: not a cutelock store".into(),
        ));
    }

    let ncols = read_u32(&mut r).map_err(header)?;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let name = read_string(&mut r).map_err(header)?;
        let mut tag = [0u8; 1];
        fill(&mut r, &mut tag).map_err(header)?;
        let ty = ColumnType::from_tag(tag[0])
            .ok_or_else(|| StoreError::Corrupt(format!("unknown column type tag {}", tag[0])))?;
        columns.push((name, ty));
    }
    let schema = Schema::from_columns(columns);

    // Re-pushing every row through a fresh Table re-interns strings in the
    // same first-seen order, reproducing the on-disk codes and
    // canonicalizing chunk sizes regardless of how the file was flushed.
    let mut table = Table::new(schema.clone());
    let mut dict = Dictionary::new();
    let mut whole = r.pos;
    loop {
        let mut tag = [0u8; 1];
        if r.read(&mut tag)? == 0 {
            break; // clean EOF between frames
        }
        let rows = match tag[0] {
            FRAME_DICT => read_dict_frame(&mut r, &mut dict).map(|()| None),
            FRAME_CHUNK => read_chunk_frame(&mut r, &schema, &dict).map(Some),
            t => return Err(StoreError::Corrupt(format!("unknown frame tag {t}"))),
        };
        match rows {
            // A dictionary delta is whole only with the chunk after it.
            Ok(None) => {}
            Ok(Some(rows)) => {
                for row in &rows {
                    table
                        .push(row)
                        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                }
                whole = r.pos;
            }
            Err(Short::Eof) => break, // torn tail
            Err(Short::Err(e)) => return Err(e),
        }
    }
    Ok((table, whole))
}

/// Reads a dictionary-delta frame body into `dict`.
fn read_dict_frame(r: &mut impl Read, dict: &mut Dictionary) -> Result<(), Short> {
    let count = read_u32(r)?;
    for _ in 0..count {
        let s = read_string(r)?;
        dict.intern(&s);
    }
    Ok(())
}

/// Reads a chunk frame body, returning its rows once all of them are whole.
fn read_chunk_frame(
    r: &mut impl Read,
    schema: &Schema,
    dict: &Dictionary,
) -> Result<Vec<Vec<Value>>, Short> {
    let nrows = read_u32(r)? as usize;
    if nrows > CHUNK_ROWS {
        return Err(Short::Err(StoreError::Corrupt(format!(
            "chunk frame claims {nrows} rows (max {CHUNK_ROWS})"
        ))));
    }
    // Cells arrive column-major; gather them row-major so they can be
    // re-pushed through Table::push.
    let mut rows: Vec<Vec<Value>> = vec![Vec::with_capacity(schema.len()); nrows];
    for (_, ty) in schema.columns() {
        for row in rows.iter_mut() {
            let val = match ty {
                ColumnType::U64 => Value::U64(read_u64(r)?),
                ColumnType::F64 => Value::F64(f64::from_bits(read_u64(r)?)),
                ColumnType::Bool => {
                    let mut b = [0u8; 1];
                    fill(r, &mut b)?;
                    Value::Bool(b[0] != 0)
                }
                ColumnType::Str => {
                    let code = read_u32(r)?;
                    let s = dict.resolve(code).ok_or_else(|| {
                        Short::Err(StoreError::Corrupt(format!(
                            "chunk references dictionary code {code} before its delta frame"
                        )))
                    })?;
                    Value::str(s)
                }
            };
            row.push(val);
        }
    }
    Ok(rows)
}

/// Why a read stopped short.
enum Short {
    /// The file ended mid-record: a torn write.
    Eof,
    /// The bytes are malformed, or the read failed.
    Err(StoreError),
}

/// Counts the bytes read through it, so the reader knows where each frame
/// ends.
struct Counted<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

fn write_u32(out: &mut impl Write, v: u32) -> std::io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<(), Short> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => Short::Eof,
        _ => Short::Err(e.into()),
    })
}

fn read_u32(r: &mut impl Read) -> Result<u32, Short> {
    let mut b = [0u8; 4];
    fill(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, Short> {
    let mut b = [0u8; 8];
    fill(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_string(r: &mut impl Read) -> Result<String, Short> {
    let len = read_u32(r)? as usize;
    // Read through `take` rather than preallocating `len` bytes: a length
    // field is untrusted input.
    let mut b = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut b)
        .map_err(|e| Short::Err(e.into()))?;
    if b.len() < len {
        return Err(Short::Eof);
    }
    String::from_utf8(b).map_err(|_| Short::Err(StoreError::Corrupt("non-utf8 string".into())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cutelock-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn schema() -> Schema {
        Schema::new(&[
            ("circuit", ColumnType::Str),
            ("conflicts", ColumnType::U64),
            ("rate", ColumnType::F64),
            ("decisive", ColumnType::Bool),
        ])
    }

    fn row(c: &str, n: u64) -> Vec<Value> {
        vec![
            Value::str(c),
            Value::U64(n),
            Value::F64(n as f64 / 2.0),
            Value::Bool(n % 2 == 0),
        ]
    }

    #[test]
    fn write_read_round_trip_across_chunk_boundary() {
        let path = tmp("roundtrip.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        let total = CHUNK_ROWS + 17;
        for i in 0..total {
            w.push(&row(&format!("c{}", i % 5), i as u64)).unwrap();
        }
        w.finish().unwrap();

        let t = read_table(&path).unwrap();
        assert_eq!(t.rows(), total);
        for i in 0..total {
            assert_eq!(t.row(i), row(&format!("c{}", i % 5), i as u64));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_equals_one_session() {
        let once = tmp("append-once.clk");
        let twice = tmp("append-twice.clk");
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();

        let mut w = Writer::open(&once, schema()).unwrap();
        for i in 0..10u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();

        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 0..4u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();
        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 4..10u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();

        // Same rows, same dictionary codes; only the chunk framing differs,
        // and read_table canonicalizes that away.
        let a = read_table(&once).unwrap();
        let b = read_table(&twice).unwrap();
        assert_eq!(a.rows(), b.rows());
        for i in 0..a.rows() {
            assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();
    }

    #[test]
    fn reopening_with_a_different_schema_is_refused() {
        let path = tmp("schema-clash.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        w.push(&row("s27", 1)).unwrap();
        w.finish().unwrap();
        let other = Schema::new(&[("x", ColumnType::U64)]);
        let err = match Writer::open(&path, other) {
            Err(e) => e,
            Ok(_) => panic!("schema clash accepted"),
        };
        assert!(matches!(err, StoreError::Schema(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_corrupt_not_panics() {
        let path = tmp("bad-magic.clk");
        std::fs::write(&path, b"NOTASTOR").unwrap();
        assert!(matches!(
            read_table(&path).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        std::fs::write(&path, b"CLK").unwrap();
        assert!(matches!(
            read_table(&path).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_finished_sessions_and_appends_after_them() {
        let path = tmp("torn-source.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        for i in 0..3u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();
        let first_end = std::fs::metadata(&path).unwrap().len();
        // The second session interns a new string, so it writes a
        // dictionary delta before its chunk.
        let mut w = Writer::open(&path, schema()).unwrap();
        for i in 3..6u64 {
            w.push(&row("b01", i)).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let cut_path = tmp("torn-cut.clk");
        for cut in first_end..bytes.len() as u64 {
            std::fs::write(&cut_path, &bytes[..cut as usize]).unwrap();
            let (t, ignored) = read_table_torn(&cut_path).unwrap();
            assert_eq!(t.rows(), 3, "cut at {cut}");
            for i in 0..3 {
                assert_eq!(t.row(i), row("s27", i as u64), "cut at {cut}");
            }
            assert_eq!(ignored, cut - first_end, "cut at {cut}");

            let mut w = Writer::open(&cut_path, schema()).unwrap();
            w.push(&row("c17", 99)).unwrap();
            w.finish().unwrap();
            let t = read_table(&cut_path).unwrap();
            assert_eq!(t.rows(), 4, "cut at {cut}");
            assert_eq!(t.row(3), row("c17", 99), "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn type_checked_push_refuses_mismatches() {
        let path = tmp("push-type.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        assert!(w.push(&[Value::U64(1)]).is_err(), "arity");
        let bad = vec![
            Value::U64(1),
            Value::U64(2),
            Value::F64(0.0),
            Value::Bool(true),
        ];
        assert!(w.push(&bad).is_err(), "type");
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
