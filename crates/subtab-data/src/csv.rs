//! CSV reader/writer with type inference.
//!
//! # Grammar
//!
//! * Records end at `\n` and fields at `,`, both outside quotes. `\r`
//!   outside quotes is dropped, so CRLF and LF files read the same.
//! * Blank and whitespace-only lines are skipped. The first other record
//!   is the header; every later record must have as many fields.
//! * A field whose first character is `"` is quoted: it runs to the next
//!   lone `"`, may hold `,`, `\n` and `\r`, and writes a literal quote as
//!   `""`. Text after the closing quote joins the field. Any other `"`
//!   outside quotes is an error, and so is a quote still open at the end.
//! * Cells are trimmed of whitespace; an empty cell, `NaN` or `null` (any
//!   ASCII case) is missing. Header names are kept as written.
//! * A column's type is the first that fits every present cell: `Bool`
//!   (`true`/`false`, any ASCII case), then `Int` (`i64`), then `Float`
//!   (`f64`), else `Str`. A column with no present cell is `Str`.
//!
//! # Errors
//!
//! A [`DataError::CsvParse`] names the 1-based physical line on which the
//! offending record starts; blank lines and newlines inside quoted fields
//! count. The first offending record in the file is the one reported.
//! [`read_csv_file`] reports invalid UTF-8 at the line and byte offset of
//! the first invalid byte.
//!
//! # Memory
//!
//! [`parse_csv`] makes one pass over the text. Fields borrow from it; only
//! a field with a `""` escape, a dropped `\r` or text after its closing
//! quote is copied. Transient memory is the file text plus one slice per
//! field, kept in one `Vec` per column, next to the table being built.

use crate::column::Column;
use crate::error::DataError;
use crate::table::Table;
use crate::Result;
use std::borrow::Cow;
use std::path::Path;
use std::str::FromStr;

/// Parses CSV text into a [`Table`] (see the [module docs](self) for the
/// grammar).
pub fn parse_csv(text: &str) -> Result<Table> {
    let mut fields = Fields {
        text,
        pos: 0,
        line: 1,
    };
    // One record's fields, then one `Vec` per column: a column's cells
    // stay contiguous for inference, and no block spans the whole table.
    let (mut record, mut header, mut columns) = (Vec::new(), None, Vec::new());
    while fields.pos < text.len() {
        let (start, line) = (fields.pos, fields.line);
        record.clear();
        while fields.push_next(&mut record, line)? {}
        if record.len() == 1 && text[start..fields.pos].trim().is_empty() {
            continue;
        }
        let Some(names) = &header else {
            columns = vec![Vec::new(); record.len()];
            header = Some(std::mem::take(&mut record));
            continue;
        };
        if record.len() != names.len() {
            let (expected, found) = (names.len(), record.len());
            let message = format!("expected {expected} fields, found {found}");
            return Err(csv_error(line, message));
        }
        // While the record is in cache: trim each cell, and empty a missing one.
        for (column, cell) in columns.iter_mut().zip(record.drain(..)) {
            column.push(match cell {
                Cow::Borrowed(s) => Cow::Borrowed(trim_cell(s)),
                Cow::Owned(s) => Cow::Owned(trim_cell(&s).to_owned()),
            });
        }
    }
    let header = header.ok_or_else(|| DataError::EmptyTable("CSV input has no header".into()))?;
    let columns = header.iter().zip(&columns).map(|(name, cells)| {
        let values = cells.iter().map(|v| (!v.is_empty()).then_some(&**v));
        infer_column(name, values.collect())
    });
    Table::from_columns(columns.collect())
}

/// Reads a CSV file from disk into a [`Table`].
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| csv_error(0, format!("io error reading {}: {e}", path.display())))?;
    let text = String::from_utf8(bytes).map_err(|e| {
        let at = e.utf8_error().valid_up_to();
        let line = 1 + e.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count();
        csv_error(
            line,
            format!("invalid UTF-8 at byte {at} of {}", path.display()),
        )
    })?;
    parse_csv(&text)
}

/// Serialises a [`Table`] to CSV text (header + rows).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names = table.column_names();
    out.push_str(
        &names
            .iter()
            .map(|n| quote_field(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in 0..table.num_rows() {
        let row: Vec<String> = table
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(r);
                if v.is_null() {
                    String::new()
                } else {
                    quote_field(&v.render())
                }
            })
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Writes a [`Table`] to a CSV file.
pub fn write_csv_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path.as_ref(), to_csv(table)).map_err(|e| DataError::CsvParse {
        line: 0,
        message: format!("io error writing {}: {e}", path.as_ref().display()),
    })
}

fn quote_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_error(line: usize, message: impl Into<String>) -> DataError {
    DataError::CsvParse {
        line,
        message: message.into(),
    }
}

/// A cursor over CSV text that yields one field at a time.
struct Fields<'a> {
    text: &'a str,
    pos: usize,
    /// Physical line of `pos`.
    line: usize,
}

impl<'a> Fields<'a> {
    /// Pushes the field at the cursor and steps past its terminator;
    /// returns whether the record goes on. `record` is the line the record
    /// starts on, for errors.
    fn push_next(&mut self, cells: &mut Vec<Cow<'a, str>>, record: usize) -> Result<bool> {
        let (text, start) = (self.text, self.pos);
        let bytes = text.as_bytes();
        // Borrow `text[from..to]` for a plain field or a quoted one without
        // escapes (a `\r` before the terminator is dropped); anything else
        // takes the copying path.
        let quoted = bytes.get(start) == Some(&b'"');
        let from = start + usize::from(quoted);
        let stop = |b: &u8| *b == b'"' || !quoted && matches!(b, b',' | b'\n' | b'\r');
        let to = bytes[from..].iter().position(stop);
        let to = to.map_or(bytes.len(), |n| from + n);
        let mut end = to + usize::from(quoted);
        end += usize::from(bytes.get(end) == Some(&b'\r'));
        if end > bytes.len() || !matches!(bytes.get(end), None | Some(b',' | b'\n')) {
            return self.copy_next(cells, record);
        }
        if quoted {
            self.line += bytes[from..to].iter().filter(|&&b| b == b'\n').count();
        }
        self.line += usize::from(bytes.get(end) == Some(&b'\n'));
        self.pos = (end + 1).min(bytes.len());
        cells.push(Cow::Borrowed(&text[from..to]));
        Ok(bytes.get(end) == Some(&b','))
    }

    /// [`Self::push_next`] by the full grammar, copying the field: `""`
    /// escapes, `\r` dropped outside quotes, text after the closing quote.
    fn copy_next(&mut self, cells: &mut Vec<Cow<'a, str>>, record: usize) -> Result<bool> {
        let bytes = self.text.as_bytes();
        let (mut field, mut quoted, mut i) = (Vec::new(), false, self.pos);
        let more = loop {
            let Some(&b) = bytes.get(i) else { break false };
            i += 1;
            self.line += usize::from(b == b'\n');
            if quoted && b == b'"' {
                // A dropped `\r` between two quotes leaves them an escape.
                while bytes.get(i) == Some(&b'\r') {
                    i += 1;
                }
                quoted = bytes.get(i) == Some(&b'"');
                if quoted {
                    field.push(b'"');
                    i += 1;
                }
                continue;
            }
            match b {
                _ if quoted => field.push(b),
                b'"' if field.is_empty() => quoted = true,
                b'"' => return Err(csv_error(record, "unexpected quote inside unquoted field")),
                b'\r' => {}
                b',' => break true,
                b'\n' => break false,
                _ => field.push(b),
            }
        };
        if quoted {
            return Err(csv_error(record, "unterminated quoted field"));
        }
        self.pos = i;
        let field = String::from_utf8(field).expect("dropping ASCII bytes keeps UTF-8 valid");
        cells.push(Cow::Owned(field));
        Ok(more)
    }
}

/// The trimmed cell, or `""` for a missing value (empty, `NaN`, `null`).
fn trim_cell(cell: &str) -> &str {
    let t = cell.trim();
    let missing = t.eq_ignore_ascii_case("nan") || t.eq_ignore_ascii_case("null");
    if missing {
        ""
    } else {
        t
    }
}

/// Builds a column of the first type every present value fits.
fn infer_column(name: &str, values: Vec<Option<&str>>) -> Column {
    let is_bool = |v: &&str| v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("false");
    if values.iter().flatten().next().is_some() && values.iter().flatten().all(is_bool) {
        let bools = values
            .iter()
            .map(|v| v.map(|s| s.eq_ignore_ascii_case("true")));
        return Column::from_bool(name, bools.collect());
    }
    if let Some(ints) = parse_all(&values) {
        return Column::from_i64(name, ints);
    }
    if let Some(floats) = parse_all(&values) {
        return Column::from_f64(name, floats);
    }
    Column::from_str_values(name, values)
}

/// Parses every present value as `T`, stopping at the first that fails;
/// `None` when one fails or none is present.
fn parse_all<T: FromStr>(values: &[Option<&str>]) -> Option<Vec<Option<T>>> {
    values.iter().flatten().next()?;
    let parse = |v: &Option<&str>| v.map_or(Some(None), |s| s.parse().ok().map(Some));
    values.iter().map(parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Value;

    #[test]
    fn parse_with_type_inference() {
        let csv =
            "airline,distance,cancelled,ontime\nAA,100.5,0,true\nDL,,1,false\nUA,300,0,true\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().field("airline").unwrap().ty, ColumnType::Str);
        assert_eq!(t.schema().field("distance").unwrap().ty, ColumnType::Float);
        assert_eq!(t.schema().field("cancelled").unwrap().ty, ColumnType::Int);
        assert_eq!(t.schema().field("ontime").unwrap().ty, ColumnType::Bool);
        assert!(t.value(1, "distance").unwrap().is_null());
        assert_eq!(t.value(2, "distance").unwrap(), Value::Float(300.0));
    }

    #[test]
    fn nan_and_null_are_missing() {
        let csv = "x\nNaN\nnull\n5\n";
        let t = parse_csv(csv).unwrap();
        assert!(t.value(0, "x").unwrap().is_null());
        assert!(t.value(1, "x").unwrap().is_null());
        assert_eq!(t.value(2, "x").unwrap(), Value::Int(5));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "name,note\n\"Smith, John\",\"said \"\"hi\"\"\"\nPlain,ok\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.value(0, "name").unwrap(), Value::from("Smith, John"));
        assert_eq!(t.value(0, "note").unwrap(), Value::from("said \"hi\""));
    }

    #[test]
    fn quoted_newline_inside_field() {
        let csv = "a,b\n\"line1\nline2\",x\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "a").unwrap(), Value::from("line1\nline2"));
    }

    #[test]
    fn field_count_mismatch_is_error() {
        let csv = "a,b\n1,2\n3\n";
        let err = parse_csv(csv).unwrap_err();
        assert!(matches!(err, DataError::CsvParse { line: 3, .. }));
    }

    #[test]
    fn error_line_is_where_the_offending_record_starts() {
        let line = |csv: &str| match parse_csv(csv) {
            Err(DataError::CsvParse { line, .. }) => line,
            other => panic!("{csv:?} gave {other:?}"),
        };
        // Newlines inside quotes and blank lines count as physical lines.
        assert_eq!(line("a,b\n\"x\ny\",1\n3\n"), 4);
        assert_eq!(line("a,b\n\n1,\"p\nq\nr\"\n\n2,x\"y\n"), 7);
        // The first offending record in the file, whatever the fault.
        assert_eq!(line("a,b\n1\n\"oops\n"), 2);
        assert_eq!(line("a,b\n1,2\nx\"y,1\n3\n"), 3);
    }

    #[test]
    fn crlf_reads_like_lf() {
        let lf = parse_csv("a,b\n1,\"x\"\n2,y\n").unwrap();
        let crlf = parse_csv("a,b\r\n1,\"x\"\r\n2,y\r\n").unwrap();
        assert_eq!(to_csv(&crlf), to_csv(&lf));
        assert_eq!(crlf.schema(), lf.schema());
    }

    #[test]
    fn carriage_return_in_a_value_roundtrips() {
        let t = Table::builder()
            .column_str("s", vec![Some("a\rb"), Some("p\rq\rr")])
            .build()
            .unwrap();
        let back = parse_csv(&to_csv(&t)).unwrap();
        assert_eq!(back.value(0, "s").unwrap(), Value::from("a\rb"));
        assert_eq!(back.value(1, "s").unwrap(), Value::from("p\rq\rr"));
    }

    #[test]
    fn invalid_utf8_is_located() {
        let path = std::env::temp_dir().join(format!("subtab_csv_utf8_{}.csv", std::process::id()));
        for (bytes, line, at) in [
            (&b"a\xff,b\n1,2\n"[..], 1, 1),
            (&b"a,b\n1,2\n3,\"x\ny\xc3\"\n"[..], 4, 14),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match read_csv_file(&path) {
                Err(DataError::CsvParse { line: l, message }) => {
                    assert_eq!(l, line);
                    assert!(message.contains(&format!("byte {at}")), "{message}");
                }
                other => panic!("expected a located UTF-8 error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unterminated_quote_is_error() {
        let csv = "a\n\"oops\n";
        assert!(parse_csv(csv).is_err());
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("\n\n").is_err());
    }

    #[test]
    fn roundtrip_through_csv() {
        let csv = "airline,distance,cancelled\nAA,100.5,0\nDL,,1\n\"X,Y\",3.25,0\n";
        let t = parse_csv(csv).unwrap();
        let serialized = to_csv(&t);
        let t2 = parse_csv(&serialized).unwrap();
        assert_eq!(t2.num_rows(), t.num_rows());
        assert_eq!(t2.num_columns(), t.num_columns());
        for r in 0..t.num_rows() {
            for c in t.column_names() {
                assert_eq!(t.value(r, c).unwrap(), t2.value(r, c).unwrap());
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("subtab_data_csv_test.csv");
        let csv = "a,b\n1,x\n2,y\n";
        let t = parse_csv(csv).unwrap();
        write_csv_file(&t, &path).unwrap();
        let t2 = read_csv_file(&path).unwrap();
        assert_eq!(t2.num_rows(), 2);
        std::fs::remove_file(&path).ok();
        assert!(read_csv_file(dir.join("does_not_exist_subtab.csv")).is_err());
    }

    #[test]
    fn all_null_column_becomes_string() {
        let csv = "x,y\n,1\n,2\n";
        let t = parse_csv(csv).unwrap();
        assert_eq!(t.schema().field("x").unwrap().ty, ColumnType::Str);
        assert_eq!(t.column("x").unwrap().null_count(), 2);
    }
}
