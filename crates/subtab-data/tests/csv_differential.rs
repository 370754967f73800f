//! Differential tests of the CSV reader against the reference reader in
//! `csv_oracle`: seeded random CSV text, and the benchmark's own inputs.

mod csv_oracle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subtab_data::csv::{parse_csv, read_csv_file, write_csv_file};
use subtab_data::Table;
use subtab_datasets::{generate, scale_spec, DatasetKind, DatasetSize, ScaleShape};

/// Asserts two tables are identical: names, types, validity, values and
/// dictionary order.
fn assert_same_table(got: &Table, want: &Table, input: &str) {
    assert_eq!(got.column_names(), want.column_names(), "input {input:?}");
    assert_eq!(got.num_rows(), want.num_rows(), "input {input:?}");
    for (g, w) in got.columns().iter().zip(want.columns()) {
        let name = w.name();
        assert_eq!(g.column_type(), w.column_type(), "{name} in {input:?}");
        assert_eq!(g.validity(), w.validity(), "{name} in {input:?}");
        assert_eq!(g.dictionary(), w.dictionary(), "{name} in {input:?}");
        let floats = |c: &subtab_data::Column| {
            c.float_view()
                .map(|v| v.values.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(floats(g), floats(w), "{name} in {input:?}");
        let ints = |c: &subtab_data::Column| c.int_view().map(|v| v.values.to_vec());
        assert_eq!(ints(g), ints(w), "{name} in {input:?}");
        let bools = |c: &subtab_data::Column| c.bool_view().map(|v| v.values.to_vec());
        assert_eq!(bools(g), bools(w), "{name} in {input:?}");
        let codes = |c: &subtab_data::Column| c.code_view().map(|v| v.codes.to_vec());
        assert_eq!(codes(g), codes(w), "{name} in {input:?}");
    }
}

/// What a column's generated cells look like.
#[derive(Clone, Copy)]
enum Kind {
    Bool,
    Int,
    Float,
    Text,
    /// Mostly one type with an occasional cell of another, so inference
    /// falls through.
    Mixed,
    Missing,
}

const KINDS: [Kind; 6] = [
    Kind::Bool,
    Kind::Int,
    Kind::Float,
    Kind::Text,
    Kind::Mixed,
    Kind::Missing,
];
const MISSING: [&str; 8] = ["", "NaN", "nan", "null", "NULL", " ", "\t", " nUlL "];
const BOOLS: [&str; 5] = ["true", "false", "TRUE", " False", "tRuE "];
const INTS: [&str; 7] = ["0", "-7", "+3", "42", " 12 ", "9223372036854775807", "007"];
const FLOATS: [&str; 8] = ["1.5", "-0.0", "1e3", "inf", "-Infinity", ".5", "3.", "1_0"];
const TEXTS: [&str; 14] = [
    "a",
    "b c",
    "x,y",
    "say \"hi\"",
    "two\nlines",
    "cr\rhere",
    "é",
    "\u{a0}nbsp\u{a0}",
    "99999999999999999999",
    "Null pointer",
    "\"",
    ",",
    "tab\t",
    "😀",
];

/// Seeded CSV text: typed columns with quoting, escapes, CRLF, blank lines
/// and missing markers, and at most one injected fault.
struct CsvGen {
    rng: StdRng,
    text: String,
    /// Whether a quoted field spans a newline, so logical and physical
    /// line numbers differ.
    quoted_newline: bool,
}

impl CsvGen {
    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.rng.gen_range(0..pool.len())]
    }

    fn cell(&mut self, kind: Kind) -> String {
        if self.rng.gen_bool(0.15) {
            return self.pick(&MISSING).to_string();
        }
        let kind = match kind {
            Kind::Mixed => KINDS[self.rng.gen_range(0..4usize)],
            other => other,
        };
        match kind {
            Kind::Bool => self.pick(&BOOLS),
            Kind::Int => self.pick(&INTS),
            Kind::Float => self.pick(&FLOATS),
            Kind::Text => self.pick(&TEXTS),
            Kind::Mixed | Kind::Missing => self.pick(&MISSING),
        }
        .to_string()
    }

    /// Appends one field, quoted when it must be and sometimes when not,
    /// in any of the spellings the grammar reads as the same value.
    fn field(&mut self, value: &str) {
        let must_quote = value.contains([',', '"', '\n', '\r']);
        if !must_quote && !self.rng.gen_bool(0.15) {
            if !value.is_empty() && self.rng.gen_bool(0.05) {
                // `\r` outside quotes is dropped.
                let at = value.char_indices().last().map_or(0, |(i, _)| i);
                self.text.push_str(&value[..at]);
                self.text.push('\r');
                self.text.push_str(&value[at..]);
            } else {
                self.text.push_str(value);
            }
            return;
        }
        self.quoted_newline |= value.contains('\n');
        if self.rng.gen_bool(0.05) {
            self.text.push('\r');
        }
        // A `\r` between the two quotes of an escape is dropped as well.
        let escape = if self.rng.gen_bool(0.1) {
            "\"\r\""
        } else {
            "\"\""
        };
        let plain_tail = value.len() > 1
            && value.is_char_boundary(1)
            && !value[1..].contains([',', '"', '\n', '\r']);
        if plain_tail && self.rng.gen_bool(0.1) {
            // Text after the closing quote joins the field.
            self.text.push('"');
            self.text.push_str(&value[..1].replace('"', escape));
            self.text.push('"');
            self.text.push_str(&value[1..]);
        } else {
            self.text.push('"');
            self.text.push_str(&value.replace('"', escape));
            self.text.push('"');
        }
    }

    fn input(seed: u64) -> (String, bool) {
        let mut g = CsvGen {
            rng: StdRng::seed_from_u64(seed),
            text: String::new(),
            quoted_newline: false,
        };
        let ncols = g.rng.gen_range(1..=5usize);
        let nrows = g.rng.gen_range(0..=10usize);
        let kinds: Vec<Kind> = (0..ncols)
            .map(|_| KINDS[g.rng.gen_range(0..6usize)])
            .collect();
        let crlf = g.rng.gen_bool(0.3);
        let fault = g.rng.gen_bool(0.4).then(|| {
            let record = g.rng.gen_range(0..=nrows);
            (record, g.rng.gen_range(0..5u8))
        });
        for record in 0..=nrows {
            if g.rng.gen_bool(0.1) {
                let blank = g.pick(&["", "  ", "\t", "\r", "\u{a0}", " \u{3000} "]);
                g.text.push_str(blank);
                g.text.push('\n');
            }
            let fault = fault.and_then(|(at, kind)| (at == record).then_some(kind));
            let width = match fault {
                Some(0) => ncols + 1,
                Some(1) if ncols > 1 => ncols - 1,
                _ => ncols,
            };
            for c in 0..width {
                if c > 0 {
                    g.text.push(',');
                }
                if c + 1 == width {
                    match fault {
                        Some(2) => {
                            g.text.push_str("x\"y");
                            continue;
                        }
                        Some(3) => {
                            // Last in the text, so no newline is quoted.
                            g.text.push_str("\"never closed");
                            return (g.text, g.quoted_newline);
                        }
                        Some(4) => {
                            g.text.push_str("\"ab\"c\"");
                            continue;
                        }
                        _ => {}
                    }
                }
                let value = if record == 0 {
                    if g.rng.gen_bool(0.05) {
                        "dup".to_string()
                    } else {
                        format!("c{c}")
                    }
                } else {
                    g.cell(kinds[c.min(ncols - 1)])
                };
                g.field(&value);
            }
            if record < nrows || g.rng.gen_bool(0.7) {
                g.text.push_str(if crlf { "\r\n" } else { "\n" });
            }
        }
        (g.text, g.quoted_newline)
    }
}

/// Unstructured text from the grammar's alphabet: several faults at once.
fn soup(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 10] = ["a", "1", ",", ",", "\"", "\n", "\n", "\r", " ", "é"];
    let len = rng.gen_range(0..40);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// Checks one input: where the reference accepts it, the reader returns
/// the identical table; where it rejects it, the reader rejects it too,
/// with the same error when `same_error` (the reference numbers logical
/// records and reports parse errors before field counts, so its line
/// matches only without quoted newlines and with a single fault).
fn check(text: &str, same_error: bool) {
    match (parse_csv(text), csv_oracle::parse_csv(text)) {
        (Ok(got), Ok(want)) => assert_same_table(&got, &want, text),
        (Err(got), Err(want)) if same_error => assert_eq!(got, want, "input {text:?}"),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("input {text:?}: reader {got:?}, reference {want:?}"),
    }
}

#[test]
fn reader_matches_reference_on_generated_csv() {
    for seed in 0..4_000 {
        let (text, quoted_newline) = CsvGen::input(seed);
        check(&text, !quoted_newline);
    }
}

#[test]
fn reader_matches_reference_on_unstructured_text() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20_000 {
        let text = soup(&mut rng);
        // Without quotes the only fault is a field count, which both
        // readers report at the first offending line.
        check(&text, !text.contains('"'));
    }
}

/// The benchmark writes each dataset to CSV and reads it back; that text
/// must read as the reference reads it.
#[test]
fn benchmark_inputs_read_as_the_reference_reads_them() {
    let kinds = [
        DatasetKind::Flights,
        DatasetKind::Cyber,
        DatasetKind::Spotify,
        DatasetKind::CreditCard,
        DatasetKind::UsFunds,
        DatasetKind::BankLoans,
    ];
    let mut datasets: Vec<_> = kinds
        .iter()
        .map(|k| k.build(DatasetSize::Small, 2023))
        .collect();
    datasets.push(generate(&scale_spec(ScaleShape::Wide, 8_000), 2023));
    for dataset in datasets {
        let path = std::env::temp_dir().join(format!(
            "subtab_csv_differential_{}_{}.csv",
            dataset.name,
            std::process::id()
        ));
        write_csv_file(&dataset.table, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let got = read_csv_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let want = csv_oracle::parse_csv(&text).unwrap();
        assert_same_table(&got, &want, &dataset.name);
    }
}
