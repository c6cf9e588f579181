//! The append-only on-disk format: a streaming [`Writer`] and a one-pass
//! [`read_table`] reader over plain text, one line per row.
//!
//! ```text
//! CLKSTOR2<TAB>circuit:str<TAB>conflicts:u64    header: magic, then name:type per column
//! s27<TAB>41                                     one line per row, cells tab-separated
//! b01<TAB>97
//! \end<TAB>2                                     closes a session that wrote 2 rows
//! ```
//!
//! A cell is its value's [`Display`](std::fmt::Display) text, read back by
//! [`Value::parse`]. In `str` cells (and column names) a backslash, tab,
//! CR and newline are escaped as `\\`, `\t`, `\r` and `\n`, so every raw
//! tab separates cells, every raw newline ends a line, and a row line can
//! start with a backslash only as `\\` — a line starting `\end<TAB>` is
//! always a session end. The bytes of a file are therefore a pure function
//! of its row sequence and how it was split into sessions.
//!
//! Each [`Writer`] session appends its rows and, in [`Writer::finish`],
//! one `\end<TAB>N` line if it wrote N ≥ 1 rows. A crash mid-append leaves
//! an *unfinished session*: rows with no `\end` after them, or a last line
//! with no newline. The reader keeps rows only up to the last whole `\end`
//! line, and reopening for append cuts everything after it first, so every
//! row of an earlier, finished session survives. A crash before the first
//! header reached the disk leaves an empty file, which reopening for
//! append treats as absent (readers still refuse it). Whole lines that are
//! malformed — a bad magic, an unknown column type, a cell that does not
//! parse, an `\end` count that does not match its session — are
//! [`StoreError::Corrupt`], never silently dropped.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::table::{Schema, Table};
use crate::{ColumnType, StoreError, Value};

/// The first cell of the header line: identifies a cutelock store, version 2.
const MAGIC: &str = "CLKSTOR2";
/// What a session-end line starts with; the session's row count follows.
const END: &str = "\\end\t";

/// A streaming, append-only writer: one session.
///
/// Dropping a writer without calling [`Writer::finish`] leaves its rows as
/// an unfinished session, which readers skip; the file stays readable.
pub struct Writer {
    out: BufWriter<File>,
    schema: Schema,
    rows: usize,
}

impl Writer {
    /// Opens `path` for appending, creating it (and writing the header) if
    /// absent or empty. An existing file must carry exactly this schema; an
    /// unfinished session at its end is cut off before anything is
    /// appended.
    pub fn open(path: impl AsRef<Path>, schema: Schema) -> Result<Writer, StoreError> {
        let path = path.as_ref();
        // Reading the file validates it and finds where its last finished
        // session ends. A zero-byte file is a first session that crashed
        // before its header reached the disk: it counts as absent.
        let mut finished = None;
        if path.exists() && std::fs::metadata(path)?.len() > 0 {
            let (existing, end) = replay(path)?;
            if existing.schema() != &schema {
                return Err(StoreError::Schema(format!(
                    "store {} has a different schema than the one being opened",
                    path.display()
                )));
            }
            finished = Some(end);
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if let Some(end) = finished {
            if file.metadata()?.len() > end {
                file.set_len(end)?;
            }
        }
        let mut out = BufWriter::new(file);
        if finished.is_none() {
            let columns = schema.columns().iter().map(|(n, t)| format!("{n}:{t}"));
            write_line(&mut out, std::iter::once(MAGIC.to_string()).chain(columns))?;
        }
        Ok(Writer {
            out,
            schema,
            rows: 0,
        })
    }

    /// Appends one row. Errors on arity or per-cell type mismatches.
    pub fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        self.schema.check(row)?;
        write_line(&mut self.out, row.iter().map(Value::to_string))?;
        self.rows += 1;
        Ok(())
    }

    /// Ends the session with its `\end` line (if it wrote any rows) and
    /// flushes the file.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if self.rows > 0 {
            writeln!(self.out, "{END}{}", self.rows)?;
        }
        self.out.flush()?;
        Ok(())
    }
}

/// Reads a whole store file into an in-memory [`Table`] in one forward
/// pass. An unfinished session at the end is left out.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StoreError> {
    replay(path.as_ref()).map(|(table, _)| table)
}

/// [`read_table`], plus how many trailing bytes it left out: the
/// unfinished session of an append that never finished (0 for an intact
/// file).
pub fn read_table_torn(path: impl AsRef<Path>) -> Result<(Table, u64), StoreError> {
    let path = path.as_ref();
    let (table, end) = replay(path)?;
    Ok((table, std::fs::metadata(path)?.len().saturating_sub(end)))
}

/// Reads a store file, returning its table and the byte offset where its
/// last finished session ends.
fn replay(path: &Path) -> Result<(Table, u64), StoreError> {
    // The magic is checked before the rest is read, so any other file is
    // refused after eight bytes.
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    (&mut file)
        .take(MAGIC.len() as u64)
        .read_to_end(&mut bytes)?;
    if bytes != MAGIC.as_bytes() {
        return Err(corrupt("bad magic: not a CLKSTOR2 store"));
    }
    file.read_to_end(&mut bytes)?;
    // Whole lines only, each with the offset just past its newline: a last
    // line without one is a torn write.
    let mut pos = 0;
    let mut lines = std::iter::from_fn(|| {
        let len = bytes[pos..].iter().position(|&b| b == b'\n')?;
        let line =
            std::str::from_utf8(&bytes[pos..pos + len]).map_err(|_| corrupt("a line is not UTF-8"));
        pos += len + 1;
        Some((line, pos as u64))
    });

    let (header, mut finished) = lines.next().ok_or_else(|| corrupt("truncated header"))?;
    let mut cells = split_cells(header?)?.into_iter();
    if cells.next().as_deref() != Some(MAGIC) {
        return Err(corrupt("bad magic: not a CLKSTOR2 store"));
    }
    let columns = cells
        .map(|cell| {
            let (name, ty) = cell
                .rsplit_once(':')
                .and_then(|(n, t)| Some((n, ColumnType::from_name(t)?)))
                .ok_or_else(|| corrupt(format!("bad column declaration `{cell}`")))?;
            Ok((name.to_string(), ty))
        })
        .collect::<Result<_, StoreError>>()?;

    let mut table = Table::new(Schema::from_columns(columns));
    let mut session: Vec<Vec<Value>> = Vec::new();
    for (line, end) in lines {
        let line = line?;
        if let Some(count) = line.strip_prefix(END) {
            if count.parse() != Ok(session.len()) {
                return Err(corrupt(format!(
                    "a session end claims {count} rows after {} row lines",
                    session.len()
                )));
            }
            for row in session.drain(..) {
                table.push(&row)?;
            }
            finished = end;
        } else {
            session.push(parse_row(table.schema(), line)?);
        }
    }
    Ok((table, finished))
}

/// Parses one row line against `schema`.
fn parse_row(schema: &Schema, line: &str) -> Result<Vec<Value>, StoreError> {
    let cells = split_cells(line)?;
    if cells.len() != schema.len() {
        return Err(corrupt(format!(
            "a row has {} cells but the schema has {} columns",
            cells.len(),
            schema.len()
        )));
    }
    cells
        .iter()
        .zip(schema.columns())
        .map(|(cell, (name, ty))| {
            Value::parse(*ty, cell)
                .ok_or_else(|| corrupt(format!("`{cell}` is not a {ty} for column '{name}'")))
        })
        .collect()
}

/// Writes `cells` as one line: escaped, tab-separated, newline-terminated.
fn write_line(
    out: &mut impl Write,
    cells: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    let mut line = String::new();
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            line.push('\t');
        }
        for c in cell.chars() {
            match c {
                '\\' => line.push_str("\\\\"),
                '\t' => line.push_str("\\t"),
                '\r' => line.push_str("\\r"),
                '\n' => line.push_str("\\n"),
                c => line.push(c),
            }
        }
    }
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Splits a line at its raw tabs and unescapes each cell: the inverse of
/// [`write_line`].
fn split_cells(line: &str) -> Result<Vec<String>, StoreError> {
    let mut cells = vec![String::new()];
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        let c = match c {
            '\t' => {
                cells.push(String::new());
                continue;
            }
            '\\' => match chars.next() {
                Some('\\') => '\\',
                Some('t') => '\t',
                Some('r') => '\r',
                Some('n') => '\n',
                _ => return Err(corrupt(format!("bad escape in line `{line}`"))),
            },
            c => c,
        };
        cells.last_mut().expect("starts with one cell").push(c);
    }
    Ok(cells)
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
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
        let total = 273;
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

        // Same rows; only the session-end lines differ, and read_table
        // reads through them.
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
    fn an_empty_file_is_opened_as_a_new_store() {
        let path = tmp("empty.clk");
        std::fs::write(&path, b"").unwrap();
        let mut w = Writer::open(&path, schema()).unwrap();
        w.push(&row("s27", 1)).unwrap();
        w.push(&row("b01", 2)).unwrap();
        w.finish().unwrap();
        let t = read_table(&path).unwrap();
        assert_eq!(
            (t.rows(), t.row(0), t.row(1)),
            (2, row("s27", 1), row("b01", 2))
        );
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

    #[test]
    fn str_cells_with_separators_and_escapes_round_trip() {
        // `attack --store` on an external netlist records its file path as
        // the circuit name, and a path can hold any of these.
        let path = tmp("escapes.clk");
        std::fs::remove_file(&path).ok();
        let names = [
            "dir\twith\ttabs/s27.bench",
            "line\nbreak\r\n",
            "back\\slash\\t\\n\\",
            "\\end\t1",
            "",
        ];
        let mut w = Writer::open(&path, schema()).unwrap();
        for (i, name) in names.iter().enumerate() {
            w.push(&row(name, i as u64)).unwrap();
        }
        w.finish().unwrap();
        // One line per row, and no raw CR for a text tool to eat.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), names.len() + 2);
        assert!(!text.contains('\r'));
        let t = read_table(&path).unwrap();
        assert_eq!(t.rows(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.row(i), row(name, i as u64));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_session_end_with_the_wrong_count_is_corrupt() {
        let path = tmp("bad-count.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        for i in 0..3u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for bad in ["\\end\t2\n", "\\end\t4\n", "\\end\tthree\n"] {
            std::fs::write(&path, text.replace("\\end\t3\n", bad)).unwrap();
            assert!(
                matches!(read_table(&path).unwrap_err(), StoreError::Corrupt(_)),
                "{bad:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
