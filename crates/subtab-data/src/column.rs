//! Typed, null-aware columnar storage.
//!
//! ## Storage layout
//!
//! Every column is a pair of planes: a flat, contiguous *value plane*
//! (`Vec<i64>` / `Vec<f64>` / `Vec<u32>` codes / `Vec<bool>`) and a
//! *validity plane* ([`Bitmap`], bit `i` set iff row `i` is non-null).
//! Null slots hold a defined sentinel (`0`, `0.0`, code `0`, `false`) so the
//! value plane is always fully initialised and scan kernels never branch on
//! an `Option`. Downstream crates read columns through the zero-copy view
//! structs ([`FloatView`], [`IntView`], [`CodeView`], [`BoolView`],
//! [`NumericView`]); the row-wise accessors ([`Column::get`] and friends)
//! are kept as cold compatibility shims.
//!
//! Strings are dictionary-encoded: the `codes` plane stores indices into a
//! deduplicated `dict` of distinct strings, which keeps memory proportional
//! to the number of *distinct* categorical values — important for wide
//! categorical datasets like the paper's US-Funds table (298 columns).

use crate::bitmap::Bitmap;
use crate::error::DataError;
use crate::schema::ColumnType;
use crate::value::Value;
use crate::Result;
use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Reverse lookup from dictionary value to code, keyed by the string's hash
/// so interning a new entry allocates the `String` exactly once (in the
/// dictionary). 64-bit hash collisions spill into a tiny linear `overflow`
/// chain; both probes confirm against the dictionary before answering. The
/// key already is a SipHash, so the map uses it as its own hash
/// ([`PassThrough`]) instead of hashing it a second time.
#[derive(Debug, Clone, Default)]
struct DictLookup {
    map: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    overflow: Vec<(u64, u32)>,
}

/// Hasher for keys that already are a well-mixed 64-bit hash: a `u64` key
/// is its own hash. Other writes fold their bytes in, so the hasher stays
/// total, but [`DictLookup`] only ever writes one `u64`.
#[derive(Debug, Clone, Copy, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

impl DictLookup {
    fn hash_of(s: &str) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// The code of `s` if it is already interned in `dict`.
    fn get(&self, s: &str, dict: &[String]) -> Option<u32> {
        let h = Self::hash_of(s);
        if let Some(&c) = self.map.get(&h) {
            if dict[c as usize] == s {
                return Some(c);
            }
        }
        self.overflow
            .iter()
            .find(|&&(oh, oc)| oh == h && dict[oc as usize] == s)
            .map(|&(_, c)| c)
    }

    /// Records `s → code`; the caller has already pushed (or is about to
    /// push) `s` at `dict[code]` and verified it was absent.
    fn insert(&mut self, s: &str, code: u32) {
        match self.map.entry(Self::hash_of(s)) {
            Entry::Vacant(e) => {
                e.insert(code);
            }
            // A different string owns this hash slot: chain into overflow.
            Entry::Occupied(e) => self.overflow.push((*e.key(), code)),
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }
}

/// Rows inspected before the dictionary-lookup sizing heuristics trust the
/// observed distinct ratio of a string column.
const DICT_RATIO_SAMPLE: usize = 1024;

/// Expected number of *new* distinct values among `additional` upcoming rows
/// of a column that showed `distinct` distinct values over `observed` rows,
/// clamped to a small floor (rehash slack) and to `additional` itself.
fn projected_distinct(distinct: usize, observed: usize, additional: usize) -> usize {
    let ratio = distinct as f64 / observed.max(1) as f64;
    ((additional as f64 * ratio).ceil() as usize).clamp(additional.min(64), additional.max(1))
}

/// Typed backing storage of a column: one value plane + one validity plane
/// (see the [module docs](self) for the layout contract).
#[derive(Debug, Clone)]
enum ColumnData {
    /// Integer storage (sentinel `0` in null slots).
    Int { values: Vec<i64>, validity: Bitmap },
    /// Float storage (sentinel `0.0` in null slots).
    Float { values: Vec<f64>, validity: Bitmap },
    /// Dictionary-encoded string storage (sentinel code `0` in null slots).
    Str {
        codes: Vec<u32>,
        validity: Bitmap,
        dict: Vec<String>,
        lookup: DictLookup,
    },
    /// Boolean storage (sentinel `false` in null slots).
    Bool { values: Vec<bool>, validity: Bitmap },
}

/// Zero-copy view of a float column: contiguous value plane + validity.
///
/// `values[i]` is meaningful only where `validity.get(i)`; null slots hold
/// the `0.0` sentinel.
#[derive(Debug, Clone, Copy)]
pub struct FloatView<'a> {
    /// The value plane (sentinel `0.0` where invalid).
    pub values: &'a [f64],
    /// Bit `i` set iff row `i` is non-null.
    pub validity: &'a Bitmap,
}

/// Zero-copy view of an integer column (see [`FloatView`] for the contract).
#[derive(Debug, Clone, Copy)]
pub struct IntView<'a> {
    /// The value plane (sentinel `0` where invalid).
    pub values: &'a [i64],
    /// Bit `i` set iff row `i` is non-null.
    pub validity: &'a Bitmap,
}

/// Zero-copy view of a boolean column (see [`FloatView`] for the contract).
#[derive(Debug, Clone, Copy)]
pub struct BoolView<'a> {
    /// The value plane (sentinel `false` where invalid).
    pub values: &'a [bool],
    /// Bit `i` set iff row `i` is non-null.
    pub validity: &'a Bitmap,
}

/// Zero-copy view of a dictionary-encoded string column.
#[derive(Debug, Clone, Copy)]
pub struct CodeView<'a> {
    /// Per-row dictionary codes (sentinel `0` where invalid — always check
    /// `validity` before trusting a code).
    pub codes: &'a [u32],
    /// Bit `i` set iff row `i` is non-null.
    pub validity: &'a Bitmap,
    /// The dictionary of distinct values the codes index into.
    pub dict: &'a [String],
}

/// Numeric view of any numeric column (`Int`, `Float`, `Bool`) as `f64`.
///
/// Zero-copy (`Cow::Borrowed`) for float columns; integer and boolean
/// columns are widened into one owned buffer per call — still a single
/// contiguous pass, amortised across whole-column consumers like binning.
#[derive(Debug)]
pub struct NumericView<'a> {
    /// The widened value plane (sentinel `0.0` where invalid).
    pub values: Cow<'a, [f64]>,
    /// Bit `i` set iff row `i` is non-null.
    pub validity: &'a Bitmap,
}

/// A single named column of a [`crate::Table`].
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
}

/// Splits a `Vec<Option<T>>` into a sentinel-filled value plane and its
/// validity bitmap.
fn split_options<T: Copy + Default>(values: Vec<Option<T>>) -> (Vec<T>, Bitmap) {
    let mut validity = Bitmap::with_capacity(values.len());
    let plane = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            validity.push_bit(i, v.is_some());
            v.unwrap_or_default()
        })
        .collect();
    (plane, validity)
}

impl Column {
    /// Creates an integer column.
    pub fn from_i64(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        let (values, validity) = split_options(values);
        Column {
            name: name.into(),
            data: ColumnData::Int { values, validity },
        }
    }

    /// Creates a float column.
    pub fn from_f64(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        let (values, validity) = split_options(values);
        Column {
            name: name.into(),
            data: ColumnData::Float { values, validity },
        }
    }

    /// Creates a boolean column.
    pub fn from_bool(name: impl Into<String>, values: Vec<Option<bool>>) -> Self {
        let (values, validity) = split_options(values);
        Column {
            name: name.into(),
            data: ColumnData::Bool { values, validity },
        }
    }

    /// Creates a dictionary-encoded string column.
    pub fn from_str_values<S: AsRef<str>>(name: impl Into<String>, values: Vec<Option<S>>) -> Self {
        let len = values.len();
        let mut dict: Vec<String> = Vec::new();
        let mut lookup = DictLookup::default();
        // Reserve enough for the sampling prefix; once the prefix is
        // interned the observed distinct ratio sizes the rest of the load
        // (high-cardinality columns would otherwise rehash the lookup
        // dozens of times across a bulk ingest).
        lookup.reserve(len.min(DICT_RATIO_SAMPLE));
        let mut codes = Vec::with_capacity(len);
        let mut validity = Bitmap::with_capacity(len);
        for (i, v) in values.into_iter().enumerate() {
            if i == DICT_RATIO_SAMPLE {
                lookup.reserve(projected_distinct(dict.len(), i, len - i));
            }
            match v {
                None => {
                    codes.push(0);
                    validity.push_bit(i, false);
                }
                Some(s) => {
                    let s = s.as_ref();
                    let code = match lookup.get(s, &dict) {
                        Some(c) => c,
                        None => {
                            let c = dict.len() as u32;
                            lookup.insert(s, c);
                            dict.push(s.to_string());
                            c
                        }
                    };
                    codes.push(code);
                    validity.push_bit(i, true);
                }
            }
        }
        Column {
            name: name.into(),
            data: ColumnData::Str {
                codes,
                validity,
                dict,
                lookup,
            },
        }
    }

    /// Creates an empty column of the given type.
    pub fn empty(name: impl Into<String>, ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Column::from_i64(name, Vec::new()),
            ColumnType::Float => Column::from_f64(name, Vec::new()),
            ColumnType::Bool => Column::from_bool(name, Vec::new()),
            ColumnType::Str => Column::from_str_values::<&str>(name, Vec::new()),
        }
    }

    /// Reserves capacity for at least `additional` more rows on every plane
    /// (and, for string columns, on the dictionary lookup) — the bulk-append
    /// path for CSV loads and dataset generation.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Int { values, validity } => {
                validity.reserve(values.len() + additional);
                values.reserve(additional);
            }
            ColumnData::Float { values, validity } => {
                validity.reserve(values.len() + additional);
                values.reserve(additional);
            }
            ColumnData::Bool { values, validity } => {
                validity.reserve(values.len() + additional);
                values.reserve(additional);
            }
            ColumnData::Str {
                codes,
                validity,
                dict,
                lookup,
            } => {
                validity.reserve(codes.len() + additional);
                codes.reserve(additional);
                // Size the lookup from the column's observed distinct ratio
                // (sampled over at most the first `DICT_RATIO_SAMPLE` rows'
                // worth of data): a high-cardinality column pre-reserves
                // close to one slot per appended row, a low-cardinality one
                // keeps the small slab. A fixed small slab here caused
                // rehash churn on every reserved bulk append of a
                // high-cardinality column.
                lookup.reserve(if codes.is_empty() {
                    additional.min(64)
                } else {
                    projected_distinct(dict.len(), codes.len(), additional)
                });
            }
        }
    }

    /// The column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the column.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match &self.data {
            ColumnData::Int { .. } => ColumnType::Int,
            ColumnData::Float { .. } => ColumnType::Float,
            ColumnData::Str { .. } => ColumnType::Str,
            ColumnData::Bool { .. } => ColumnType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Bool { values, .. } => values.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity plane: bit `i` set iff row `i` is non-null.
    pub fn validity(&self) -> &Bitmap {
        match &self.data {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Str { validity, .. }
            | ColumnData::Bool { validity, .. } => validity,
        }
    }

    /// Zero-copy view of a float column (`None` for other types).
    pub fn float_view(&self) -> Option<FloatView<'_>> {
        match &self.data {
            ColumnData::Float { values, validity } => Some(FloatView { values, validity }),
            _ => None,
        }
    }

    /// Zero-copy view of an integer column (`None` for other types).
    pub fn int_view(&self) -> Option<IntView<'_>> {
        match &self.data {
            ColumnData::Int { values, validity } => Some(IntView { values, validity }),
            _ => None,
        }
    }

    /// Zero-copy view of a boolean column (`None` for other types).
    pub fn bool_view(&self) -> Option<BoolView<'_>> {
        match &self.data {
            ColumnData::Bool { values, validity } => Some(BoolView { values, validity }),
            _ => None,
        }
    }

    /// Zero-copy view of a dictionary-encoded string column (`None` for
    /// other types).
    pub fn code_view(&self) -> Option<CodeView<'_>> {
        match &self.data {
            ColumnData::Str {
                codes,
                validity,
                dict,
                ..
            } => Some(CodeView {
                codes,
                validity,
                dict,
            }),
            _ => None,
        }
    }

    /// `f64` view of any numeric column (`None` for string columns):
    /// zero-copy for floats, one widening pass for ints and bools. Matches
    /// [`Column::get_f64`] element-wise on valid rows.
    pub fn numeric_view(&self) -> Option<NumericView<'_>> {
        match &self.data {
            ColumnData::Float { values, validity } => Some(NumericView {
                values: Cow::Borrowed(values),
                validity,
            }),
            ColumnData::Int { values, validity } => Some(NumericView {
                values: Cow::Owned(values.iter().map(|&x| x as f64).collect()),
                validity,
            }),
            ColumnData::Bool { values, validity } => Some(NumericView {
                values: Cow::Owned(values.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()),
                validity,
            }),
            ColumnData::Str { .. } => None,
        }
    }

    /// Value at `row` (panics if out of bounds; use [`Column::try_get`] for a
    /// checked variant). Cold row-wise shim — scans should use the views.
    pub fn get(&self, row: usize) -> Value {
        match &self.data {
            ColumnData::Int { values, validity } => {
                // Indexing before the validity test preserves the panic on
                // out-of-bounds rows.
                let x = values[row];
                if validity.get(row) {
                    Value::Int(x)
                } else {
                    Value::Null
                }
            }
            ColumnData::Float { values, validity } => {
                let x = values[row];
                if validity.get(row) {
                    Value::Float(x)
                } else {
                    Value::Null
                }
            }
            ColumnData::Str {
                codes,
                validity,
                dict,
                ..
            } => {
                let c = codes[row];
                if validity.get(row) {
                    Value::Str(dict[c as usize].clone())
                } else {
                    Value::Null
                }
            }
            ColumnData::Bool { values, validity } => {
                let x = values[row];
                if validity.get(row) {
                    Value::Bool(x)
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Checked access to the value at `row`.
    pub fn try_get(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.len(),
            });
        }
        Ok(self.get(row))
    }

    /// Whether the value at `row` is null.
    pub fn is_null(&self, row: usize) -> bool {
        !self.validity().get(row)
    }

    /// Number of nulls in the column.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity().count()
    }

    /// Numeric view of the value at `row` (nulls and strings yield `None`).
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Int { values, validity } => validity.get(row).then(|| values[row] as f64),
            ColumnData::Float { values, validity } => validity.get(row).then(|| values[row]),
            ColumnData::Bool { values, validity } => {
                validity
                    .get(row)
                    .then(|| if values[row] { 1.0 } else { 0.0 })
            }
            ColumnData::Str { .. } => None,
        }
    }

    /// Dictionary code at `row` for string columns (`None` for nulls or
    /// non-string columns).
    pub fn get_code(&self, row: usize) -> Option<u32> {
        match &self.data {
            ColumnData::Str {
                codes, validity, ..
            } => validity.get(row).then(|| codes[row]),
            _ => None,
        }
    }

    /// The dictionary of a string column (empty slice otherwise).
    pub fn dictionary(&self) -> &[String] {
        match &self.data {
            ColumnData::Str { dict, .. } => dict,
            _ => &[],
        }
    }

    /// Appends a value, checking its type against the column type.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let type_err = |expected: &str, v: &Value| DataError::TypeMismatch {
            column: self.name.clone(),
            expected: expected.to_string(),
            value: v.render(),
        };
        match (&mut self.data, value) {
            (ColumnData::Int { values, validity }, Value::Null) => {
                validity.push_bit(values.len(), false);
                values.push(0);
            }
            (ColumnData::Int { values, validity }, Value::Int(x)) => {
                validity.push_bit(values.len(), true);
                values.push(x);
            }
            (ColumnData::Float { values, validity }, Value::Null) => {
                validity.push_bit(values.len(), false);
                values.push(0.0);
            }
            (ColumnData::Float { values, validity }, Value::Float(x)) => {
                validity.push_bit(values.len(), true);
                values.push(x);
            }
            (ColumnData::Float { values, validity }, Value::Int(x)) => {
                validity.push_bit(values.len(), true);
                values.push(x as f64);
            }
            (ColumnData::Bool { values, validity }, Value::Null) => {
                validity.push_bit(values.len(), false);
                values.push(false);
            }
            (ColumnData::Bool { values, validity }, Value::Bool(x)) => {
                validity.push_bit(values.len(), true);
                values.push(x);
            }
            (
                ColumnData::Str {
                    codes, validity, ..
                },
                Value::Null,
            ) => {
                validity.push_bit(codes.len(), false);
                codes.push(0);
            }
            (
                ColumnData::Str {
                    codes,
                    validity,
                    dict,
                    lookup,
                },
                Value::Str(s),
            ) => {
                let code = match lookup.get(&s, dict) {
                    Some(c) => c,
                    None => {
                        let c = dict.len() as u32;
                        lookup.insert(&s, c);
                        dict.push(s);
                        c
                    }
                };
                validity.push_bit(codes.len(), true);
                codes.push(code);
            }
            (ColumnData::Int { .. }, v) => return Err(type_err("int", &v)),
            (ColumnData::Float { .. }, v) => return Err(type_err("float", &v)),
            (ColumnData::Bool { .. }, v) => return Err(type_err("bool", &v)),
            (ColumnData::Str { .. }, v) => return Err(type_err("str", &v)),
        }
        Ok(())
    }

    /// Returns a new column containing only the rows at `indices`
    /// (in the given order; indices may repeat).
    pub fn take(&self, indices: &[usize]) -> Column {
        match &self.data {
            ColumnData::Int { values, validity } => {
                let mut nv = Vec::with_capacity(indices.len());
                let mut nvalid = Bitmap::with_capacity(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    nvalid.push_bit(j, validity.get(i));
                    nv.push(values[i]);
                }
                Column {
                    name: self.name.clone(),
                    data: ColumnData::Int {
                        values: nv,
                        validity: nvalid,
                    },
                }
            }
            ColumnData::Float { values, validity } => {
                let mut nv = Vec::with_capacity(indices.len());
                let mut nvalid = Bitmap::with_capacity(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    nvalid.push_bit(j, validity.get(i));
                    nv.push(values[i]);
                }
                Column {
                    name: self.name.clone(),
                    data: ColumnData::Float {
                        values: nv,
                        validity: nvalid,
                    },
                }
            }
            ColumnData::Bool { values, validity } => {
                let mut nv = Vec::with_capacity(indices.len());
                let mut nvalid = Bitmap::with_capacity(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    nvalid.push_bit(j, validity.get(i));
                    nv.push(values[i]);
                }
                Column {
                    name: self.name.clone(),
                    data: ColumnData::Bool {
                        values: nv,
                        validity: nvalid,
                    },
                }
            }
            ColumnData::Str {
                codes,
                validity,
                dict,
                ..
            } => {
                // Rebuild the dictionary from the surviving values only.
                let values: Vec<Option<&str>> = indices
                    .iter()
                    .map(|&i| validity.get(i).then(|| dict[codes[i] as usize].as_str()))
                    .collect();
                Column::from_str_values(self.name.clone(), values)
            }
        }
    }

    /// All distinct non-null values of the column.
    pub fn distinct(&self) -> Vec<Value> {
        match &self.data {
            ColumnData::Str { dict, .. } => dict.iter().map(|s| Value::Str(s.clone())).collect(),
            _ => {
                let mut seen: Vec<Value> = Vec::new();
                for i in 0..self.len() {
                    let v = self.get(i);
                    if v.is_null() {
                        continue;
                    }
                    if !seen.iter().any(|s| s.loose_eq(&v)) {
                        seen.push(v);
                    }
                }
                seen
            }
        }
    }

    /// Number of distinct non-null values if it does not exceed `limit`,
    /// `None` as soon as a `limit + 1`-th distinct value is seen.
    ///
    /// Equivalent to `self.distinct_count() <= limit` (same loose numeric
    /// equality: values that compare equal as `f64`, with all NaNs
    /// identified, count once) but O(rows) with a bounded hash set instead
    /// of the O(rows × distinct) pairwise scan of [`Column::distinct`] —
    /// the difference between milliseconds and tens of seconds when a
    /// binner probes a ~100k-distinct timestamp column against a
    /// single-digit categorical threshold.
    pub fn distinct_at_most(&self, limit: usize) -> Option<usize> {
        // Canonical key under loose equality: the f64 bit pattern with all
        // NaNs collapsed and -0.0 folded into +0.0.
        fn key(x: f64) -> u64 {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else if x == 0.0 {
                0.0f64.to_bits()
            } else {
                x.to_bits()
            }
        }
        match &self.data {
            ColumnData::Str { .. } => {
                let n = self.distinct_count();
                (n <= limit).then_some(n)
            }
            _ => {
                let view = self.numeric_view().expect("non-string column");
                let mut seen = std::collections::HashSet::with_capacity(limit.saturating_add(1));
                for (i, &x) in view.values.iter().enumerate() {
                    if view.validity.get(i) && seen.insert(key(x)) && seen.len() > limit {
                        return None;
                    }
                }
                Some(seen.len())
            }
        }
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        match &self.data {
            ColumnData::Str {
                codes,
                validity,
                dict,
                ..
            } => {
                // dict may contain values that were fully removed by `take`;
                // count codes actually in use (null slots hold a sentinel
                // code and must not count).
                let mut used = vec![false; dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    if validity.get(i) {
                        used[c as usize] = true;
                    }
                }
                used.into_iter().filter(|&u| u).count()
            }
            _ => self.distinct().len(),
        }
    }

    /// Iterator over all values (including nulls) as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Mean of the non-null numeric values (`None` for string columns or if
    /// all values are null).
    pub fn mean(&self) -> Option<f64> {
        if !self.column_type().is_numeric() {
            return None;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.len() {
            if let Some(x) = self.get_f64(i) {
                sum += x;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Minimum and maximum of the non-null numeric values.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut out: Option<(f64, f64)> = None;
        for i in 0..self.len() {
            if let Some(x) = self.get_f64(i) {
                out = Some(match out {
                    None => (x, x),
                    Some((lo, hi)) => (lo.min(x), hi.max(x)),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_dictionary_encoding_dedups() {
        let c = Column::from_str_values(
            "airline",
            vec![Some("AA"), Some("DL"), Some("AA"), None, Some("AA")],
        );
        assert_eq!(c.len(), 5);
        assert_eq!(c.dictionary().len(), 2);
        assert_eq!(c.get(0), Value::from("AA"));
        assert!(c.get(3).is_null());
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn push_type_checking() {
        let mut c = Column::from_i64("x", vec![Some(1)]);
        c.push(Value::Int(2)).unwrap();
        c.push(Value::Null).unwrap();
        assert!(c.push(Value::from("oops")).is_err());
        assert_eq!(c.len(), 3);

        // Ints are silently widened when pushed into float columns.
        let mut f = Column::from_f64("y", vec![]);
        f.push(Value::Int(3)).unwrap();
        assert_eq!(f.get_f64(0), Some(3.0));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_i64("x", vec![Some(10), Some(20), Some(30)]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.get(0), Value::Int(30));
        assert_eq!(t.get(1), Value::Int(10));
        assert_eq!(t.get(2), Value::Int(10));
    }

    #[test]
    fn take_string_column_rebuilds_dictionary() {
        let c = Column::from_str_values("s", vec![Some("a"), Some("b"), Some("c")]);
        let t = c.take(&[2]);
        assert_eq!(t.dictionary(), &["c".to_string()]);
        assert_eq!(t.get(0), Value::from("c"));
    }

    #[test]
    fn statistics() {
        let c = Column::from_f64("x", vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.mean(), Some(2.0));
        assert_eq!(c.min_max(), Some((1.0, 3.0)));
        let s = Column::from_str_values("s", vec![Some("a")]);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn distinct_numeric() {
        let c = Column::from_i64("x", vec![Some(1), Some(1), Some(2), None]);
        assert_eq!(c.distinct().len(), 2);
    }

    #[test]
    fn try_get_bounds() {
        let c = Column::from_i64("x", vec![Some(1)]);
        assert!(c.try_get(0).is_ok());
        assert!(c.try_get(1).is_err());
    }

    #[test]
    fn empty_columns() {
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
            ColumnType::Bool,
        ] {
            let c = Column::empty("e", ty);
            assert!(c.is_empty());
            assert_eq!(c.column_type(), ty);
        }
    }

    #[test]
    fn views_expose_planes_with_sentinels() {
        let c = Column::from_f64("x", vec![Some(1.5), None, Some(-2.0)]);
        let v = c.float_view().unwrap();
        assert_eq!(v.values, &[1.5, 0.0, -2.0], "null slot holds the sentinel");
        assert!(v.validity.get(0) && !v.validity.get(1) && v.validity.get(2));
        assert!(c.int_view().is_none() && c.code_view().is_none());

        let c = Column::from_i64("y", vec![None, Some(7)]);
        let v = c.int_view().unwrap();
        assert_eq!(v.values, &[0, 7]);
        assert!(!v.validity.get(0) && v.validity.get(1));

        let c = Column::from_bool("b", vec![Some(true), None]);
        let v = c.bool_view().unwrap();
        assert_eq!(v.values, &[true, false]);

        let c = Column::from_str_values("s", vec![None, Some("a"), Some("b"), Some("a")]);
        let v = c.code_view().unwrap();
        assert_eq!(v.codes, &[0, 0, 1, 0], "null sentinel code aliases code 0");
        assert!(!v.validity.get(0) && v.validity.get(1));
        assert_eq!(v.dict, &["a".to_string(), "b".to_string()]);
        // The alias never leaks: row-wise access and distinct counting
        // consult validity first.
        assert!(c.get(0).is_null());
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn numeric_view_matches_get_f64_for_every_numeric_type() {
        let cols = [
            Column::from_f64("f", vec![Some(1.0), None, Some(f64::NAN), Some(3.5)]),
            Column::from_i64("i", vec![Some(-4), None, Some(9)]),
            Column::from_bool("b", vec![Some(true), Some(false), None]),
        ];
        for c in &cols {
            let v = c.numeric_view().unwrap();
            assert_eq!(v.values.len(), c.len());
            for r in 0..c.len() {
                match c.get_f64(r) {
                    Some(x) => {
                        assert!(v.validity.get(r));
                        // NaN-safe comparison via bit pattern.
                        assert_eq!(v.values[r].to_bits(), x.to_bits(), "row {r}");
                    }
                    None => assert!(!v.validity.get(r)),
                }
            }
        }
        // Float view is zero-copy, int/bool are widened.
        assert!(matches!(
            cols[0].numeric_view().unwrap().values,
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            cols[1].numeric_view().unwrap().values,
            Cow::Owned(_)
        ));
        let s = Column::from_str_values("s", vec![Some("x")]);
        assert!(s.numeric_view().is_none());
    }

    #[test]
    fn validity_word_boundary_and_extreme_columns() {
        // 130 rows crosses the u64 word boundary; nulls placed at both
        // sides of bit 64 and at the trailing slack region.
        let values: Vec<Option<i64>> = (0..130)
            .map(|i| {
                if [0usize, 63, 64, 65, 128, 129].contains(&i) {
                    None
                } else {
                    Some(i as i64)
                }
            })
            .collect();
        let c = Column::from_i64("x", values);
        assert_eq!(c.null_count(), 6);
        assert_eq!(c.validity().count(), 130 - 6);
        for i in [0usize, 63, 64, 65, 128, 129] {
            assert!(c.is_null(i), "row {i}");
        }
        assert!(!c.is_null(62) && !c.is_null(66) && !c.is_null(127));

        // All-null and no-null columns at exactly one word.
        let all_null = Column::from_f64("n", vec![None; 64]);
        assert_eq!(all_null.null_count(), 64);
        assert_eq!(all_null.validity().count(), 0);
        assert_eq!(all_null.mean(), None);
        let no_null = Column::from_f64("v", (0..64).map(|i| Some(i as f64)).collect());
        assert_eq!(no_null.null_count(), 0);
        assert_eq!(no_null.validity().count(), 64);
    }

    #[test]
    fn random_appends_keep_validity_in_sync() {
        // Property test with a deterministic xorshift: after any append
        // sequence, validity.count() == number of non-null appends.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut c = Column::from_str_values::<&str>("s", Vec::new());
        let mut f = Column::from_f64("f", Vec::new());
        let mut non_null_c = 0usize;
        let mut non_null_f = 0usize;
        let words = ["a", "b", "c", "d", "e"];
        for i in 0..1000 {
            if rng() % 4 == 0 {
                c.push(Value::Null).unwrap();
                f.push(Value::Null).unwrap();
            } else {
                c.push(Value::from(words[(rng() % 5) as usize])).unwrap();
                f.push(Value::Float(i as f64)).unwrap();
                non_null_c += 1;
                non_null_f += 1;
            }
            assert_eq!(c.validity().count(), non_null_c, "after append {i}");
            assert_eq!(f.validity().count(), non_null_f, "after append {i}");
            assert_eq!(c.len(), i + 1);
        }
        assert_eq!(c.null_count(), 1000 - non_null_c);
        // Every interned word resolves back through the dictionary.
        assert_eq!(c.distinct_count(), 5);
    }

    #[test]
    fn dict_lookup_survives_hash_collisions() {
        // Real 64-bit collisions are unconstructable in a unit test, so
        // simulate one: occupy "x"'s hash slot with a different code, then
        // intern "x" — it must chain into overflow and still resolve.
        let mut dict = vec!["decoy".to_string()];
        let mut lookup = DictLookup::default();
        lookup.map.insert(DictLookup::hash_of("x"), 0);
        assert_eq!(lookup.get("x", &dict), None, "decoy does not match");
        let c = dict.len() as u32;
        lookup.insert("x", c);
        dict.push("x".to_string());
        assert!(!lookup.overflow.is_empty(), "collision chained to overflow");
        assert_eq!(lookup.get("x", &dict), Some(1));
        assert_eq!(lookup.get("decoy", &dict), None, "hash mismatch stays miss");
    }

    #[test]
    fn distinct_at_most_matches_distinct_count() {
        let cols = [
            Column::from_i64("i", vec![Some(1), Some(1), Some(2), None, Some(3)]),
            Column::from_f64(
                "f",
                vec![
                    Some(0.0),
                    Some(-0.0),
                    Some(f64::NAN),
                    Some(f64::NAN),
                    Some(2.5),
                    None,
                ],
            ),
            Column::from_bool("b", vec![Some(true), Some(false), Some(true)]),
            Column::from_str_values("s", vec![Some("a"), Some("b"), Some("a"), None]),
        ];
        for c in &cols {
            let n = c.distinct_count();
            assert_eq!(c.distinct_at_most(c.len()), Some(n), "{}", c.name());
            assert_eq!(c.distinct_at_most(n), Some(n), "{}", c.name());
            if n > 0 {
                assert_eq!(c.distinct_at_most(n - 1), None, "{}", c.name());
            }
        }
        // Empty column: zero distinct values fit under any limit.
        assert_eq!(Column::from_i64("e", vec![]).distinct_at_most(0), Some(0));
    }

    #[test]
    fn reserve_sizes_lookup_from_distinct_ratio() {
        // A high-cardinality column (every value distinct) must project
        // roughly one lookup slot per reserved row, not the old fixed slab.
        let values: Vec<Option<String>> = (0..2000).map(|i| Some(format!("v{i}"))).collect();
        let mut c = Column::from_str_values("s", values);
        c.reserve(10_000);
        let cap = match &c.data {
            ColumnData::Str { lookup, .. } => lookup.map.capacity(),
            _ => unreachable!(),
        };
        assert!(cap >= 12_000, "capacity {cap} ignores the distinct ratio");

        // A constant column keeps the small slab.
        let values: Vec<Option<&str>> = (0..2000).map(|_| Some("same")).collect();
        let mut c = Column::from_str_values("s", values);
        c.reserve(1_000_000);
        let cap = match &c.data {
            ColumnData::Str { lookup, .. } => lookup.map.capacity(),
            _ => unreachable!(),
        };
        assert!(
            cap < 10_000,
            "capacity {cap} over-reserves a constant column"
        );
    }

    #[test]
    fn reserve_is_transparent() {
        let mut c = Column::from_str_values("s", vec![Some("a")]);
        let snapshot = format!("{:?}", c.iter().collect::<Vec<_>>());
        c.reserve(10_000);
        assert_eq!(format!("{:?}", c.iter().collect::<Vec<_>>()), snapshot);
        c.push(Value::from("b")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.distinct_count(), 2);
    }
}
