//! The line-at-a-time CSV reader that `subtab_data::csv` used before its
//! one-pass rewrite, kept unchanged as a reference: it splits the text into
//! owned records, then owned fields, then copies every cell for missing-value
//! normalisation and parses every number twice. Tests compare the shipped
//! reader against it.

use subtab_data::{Column, DataError, Result, Table};

/// Parses CSV text (first line = header) into a [`Table`].
pub fn parse_csv(text: &str) -> Result<Table> {
    let mut records = Vec::new();
    let mut line_no = 0usize;
    for line in split_records(text) {
        line_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        records.push((line_no, parse_record(&line, line_no)?));
    }
    if records.is_empty() {
        return Err(DataError::EmptyTable("CSV input has no header".into()));
    }
    let (_, header) = records.remove(0);
    let ncols = header.len();
    let mut cells: Vec<Vec<Option<String>>> = vec![Vec::with_capacity(records.len()); ncols];
    for (line, rec) in &records {
        if rec.len() != ncols {
            return Err(DataError::CsvParse {
                line: *line,
                message: format!("expected {ncols} fields, found {}", rec.len()),
            });
        }
        for (i, field) in rec.iter().enumerate() {
            cells[i].push(normalize_missing(field));
        }
    }

    let mut columns = Vec::with_capacity(ncols);
    for (name, values) in header.iter().zip(cells) {
        columns.push(infer_column(name, values));
    }
    Table::from_columns(columns)
}

fn normalize_missing(field: &str) -> Option<String> {
    let t = field.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("nan") || t.eq_ignore_ascii_case("null") {
        None
    } else {
        Some(t.to_string())
    }
}

/// Splits CSV text into logical records, respecting quoted newlines.
fn split_records(text: &str) -> Vec<String> {
    let mut records = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for ch in text.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            '\n' if !in_quotes => {
                records.push(std::mem::take(&mut current));
            }
            '\r' if !in_quotes => {}
            _ => current.push(ch),
        }
    }
    if !current.is_empty() {
        records.push(current);
    }
    records
}

/// Parses one CSV record into fields.
fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        field.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(ch),
            }
        } else {
            match ch {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(DataError::CsvParse {
                            line: line_no,
                            message: "unexpected quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => fields.push(std::mem::take(&mut field)),
                _ => field.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(DataError::CsvParse {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}

fn infer_column(name: &str, values: Vec<Option<String>>) -> Column {
    let non_null: Vec<&String> = values.iter().flatten().collect();
    let all_bool = !non_null.is_empty()
        && non_null
            .iter()
            .all(|v| v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("false"));
    if all_bool {
        return Column::from_bool(
            name,
            values
                .iter()
                .map(|v| v.as_ref().map(|s| s.eq_ignore_ascii_case("true")))
                .collect(),
        );
    }
    let all_int = !non_null.is_empty() && non_null.iter().all(|v| v.parse::<i64>().is_ok());
    if all_int {
        return Column::from_i64(
            name,
            values
                .iter()
                .map(|v| v.as_ref().and_then(|s| s.parse::<i64>().ok()))
                .collect(),
        );
    }
    let all_float = !non_null.is_empty() && non_null.iter().all(|v| v.parse::<f64>().is_ok());
    if all_float {
        return Column::from_f64(
            name,
            values
                .iter()
                .map(|v| v.as_ref().and_then(|s| s.parse::<f64>().ok()))
                .collect(),
        );
    }
    Column::from_str_values(name, values.iter().map(|v| v.as_deref()).collect())
}
