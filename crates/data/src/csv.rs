//! Minimal CSV reading/writing for datasets.
//!
//! The paper's tool ingests tabular files (Cortana's ARFF-like format); this
//! reproduction supports plain CSV with a header row. Column typing is
//! inferred: a column whose every cell parses as `f64` becomes numeric,
//! anything else (an empty cell included) categorical. Which columns are
//! targets is chosen by name at load time.
//!
//! The writer exists so harness binaries can persist generated synthetic
//! datasets for inspection.

use crate::column::{Column, Interner};
use crate::table::Dataset;
use sisd_linalg::Matrix;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

/// Errors from CSV parsing/dataset assembly.
#[derive(Debug)]
pub enum CsvError {
    /// I/O failure.
    Io(std::io::Error),
    /// Structural problem (ragged rows, missing header, unknown target…).
    Malformed(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Malformed(m) => write!(f, "malformed csv: {m}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Splits one CSV line honouring double-quoted fields (with `""` escapes).
fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Calls `each(column, field)` for every field of `line`, in order, and
/// returns how many there were. A line without a `"` byte is split into
/// slices of the text itself; only a quoted line is unescaped into owned
/// fields.
fn each_field<'t>(line: &'t str, mut each: impl FnMut(usize, Cow<'t, str>)) -> usize {
    let mut count = 0;
    if line.as_bytes().contains(&b'"') {
        for field in split_line(line) {
            each(count, Cow::Owned(field));
            count += 1;
        }
    } else {
        for field in line.split(',') {
            each(count, Cow::Borrowed(field));
            count += 1;
        }
    }
    count
}

/// `field` without its leading and trailing whitespace.
fn trimmed(field: Cow<'_, str>) -> Cow<'_, str> {
    match field {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => Cow::Owned(s.trim().to_owned()),
    }
}

fn ragged(row: usize, fields: usize, width: usize) -> CsvError {
    CsvError::Malformed(format!(
        "row {} has {fields} fields, header has {width}",
        row + 2
    ))
}

/// What a header column becomes.
#[derive(Clone, Copy)]
enum Role {
    /// Target column `j` (the first of the requested names it matches).
    Target(usize),
    /// Description column `d`, in header order among the non-targets.
    Desc(usize),
}

/// A description column while it is read: its numbers, as long as every
/// cell so far parsed, or its labels.
enum Cells<'t> {
    Numeric(Vec<f64>),
    Categorical(Interner<'t>),
}

/// Loads a dataset from CSV text. Columns named in `target_names` become
/// targets (and must be fully numeric); the rest become description
/// attributes with inferred types.
///
/// The text is read in one streaming pass (after a count of its rows):
/// target cells are parsed straight into the target matrix, and each
/// description column is parsed into numbers for as long as all its cells
/// are numeric. Only the columns that turn out categorical are read again,
/// in one second pass that interns their labels. Errors are reported in a
/// fixed order whatever their position in the file: an empty file, then
/// the first row whose field count differs from the header's, then the
/// first unknown target name, then the first non-numeric target cell of
/// the first target (in `target_names` order) that has one.
pub fn dataset_from_csv_str(
    name: &str,
    text: &str,
    target_names: &[&str],
) -> Result<Dataset, CsvError> {
    let mut rows = text.lines().filter(|l| !l.trim().is_empty());
    let header = rows
        .next()
        .map(split_line)
        .ok_or_else(|| CsvError::Malformed("empty file".into()))?;
    let width = header.len();

    let target_idx: Result<Vec<usize>, CsvError> = target_names
        .iter()
        .map(|t| {
            header
                .iter()
                .position(|h| h == t)
                .ok_or_else(|| CsvError::Malformed(format!("target column '{t}' not found")))
        })
        .collect();
    let target_idx = match target_idx {
        Ok(idx) => idx,
        Err(unknown) => {
            // A ragged row outranks an unknown target.
            for (r, line) in rows.enumerate() {
                let fields = each_field(line, |_, _| {});
                if fields != width {
                    return Err(ragged(r, fields, width));
                }
            }
            return Err(unknown);
        }
    };

    let dy = target_idx.len();
    let mut roles = Vec::with_capacity(width);
    let mut desc_names = Vec::new();
    for (cidx, cname) in header.iter().enumerate() {
        match target_idx.iter().position(|&t| t == cidx) {
            Some(j) => roles.push(Role::Target(j)),
            None => {
                roles.push(Role::Desc(desc_names.len()));
                desc_names.push(cname.clone());
            }
        }
    }
    // A target name requested twice fills its later slots from its first.
    let repeats: Vec<(usize, usize)> = target_idx
        .iter()
        .enumerate()
        .filter_map(|(j, &cidx)| match roles[cidx] {
            Role::Target(first) if first != j => Some((j, first)),
            _ => None,
        })
        .collect();

    let n = rows.clone().count();
    let mut targets = Matrix::zeros(n, dy);
    let mut cols: Vec<Cells<'_>> = (0..desc_names.len())
        .map(|_| Cells::Numeric(Vec::with_capacity(n)))
        .collect();
    // Per target: the first row whose cell does not parse, and that cell.
    let mut bad: Vec<Option<(usize, String)>> = vec![None; dy];
    for (r, line) in rows.clone().enumerate() {
        let row = targets.row_mut(r);
        let fields = each_field(line, |c, field| match roles.get(c) {
            Some(&Role::Target(j)) => match field.trim().parse() {
                Ok(v) => row[j] = v,
                Err(_) => {
                    if bad[j].is_none() {
                        bad[j] = Some((r, field.into_owned()));
                    }
                }
            },
            Some(&Role::Desc(d)) => {
                if let Cells::Numeric(values) = &mut cols[d] {
                    // An empty cell does not parse either.
                    match field.trim().parse() {
                        Ok(v) => values.push(v),
                        Err(_) => cols[d] = Cells::Categorical(Interner::with_capacity(n)),
                    }
                }
            }
            None => {}
        });
        if fields != width {
            return Err(ragged(r, fields, width));
        }
        for &(j, first) in &repeats {
            row[j] = row[first];
        }
    }
    if let Some((j, (r, cell))) = bad
        .into_iter()
        .enumerate()
        .find_map(|(j, b)| b.map(|b| (j, b)))
    {
        return Err(CsvError::Malformed(format!(
            "target '{}' row {} is not numeric: '{cell}'",
            header[target_idx[j]],
            r + 2
        )));
    }

    // Second pass, only over the columns that met a non-numeric cell.
    if cols.iter().any(|col| matches!(col, Cells::Categorical(_))) {
        for line in rows {
            each_field(line, |c, field| {
                if let Role::Desc(d) = roles[c] {
                    if let Cells::Categorical(labels) = &mut cols[d] {
                        labels.push(trimmed(field));
                    }
                }
            });
        }
    }
    let desc_cols = cols
        .into_iter()
        .map(|col| match col {
            Cells::Numeric(values) => Column::Numeric(values),
            Cells::Categorical(labels) => labels.finish(),
        })
        .collect();

    Ok(Dataset::new(
        name,
        desc_names,
        desc_cols,
        target_names.iter().map(|s| s.to_string()).collect(),
        targets,
    ))
}

/// Loads a dataset from a CSV file on disk.
pub fn dataset_from_csv_path(
    name: &str,
    path: &Path,
    target_names: &[&str],
) -> Result<Dataset, CsvError> {
    let text = std::fs::read_to_string(path)?;
    dataset_from_csv_str(name, &text, target_names)
}

/// Quotes a CSV field when needed.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serializes a dataset to CSV text (descriptions first, then targets).
pub fn dataset_to_csv_string(d: &Dataset) -> String {
    let mut out = String::new();
    let header: Vec<String> = d
        .desc_names()
        .iter()
        .chain(d.target_names())
        .map(|s| quote(s))
        .collect();
    let _ = writeln!(out, "{}", header.join(","));
    for i in 0..d.n() {
        let mut fields: Vec<String> = Vec::with_capacity(d.dx() + d.dy());
        for col in d.desc_cols() {
            fields.push(quote(&col.display_value(i)));
        }
        for j in 0..d.dy() {
            fields.push(format!("{}", d.targets()[(i, j)]));
        }
        let _ = writeln!(out, "{}", fields.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
region,score,age,outcome
north,1.5,30,0.2
south,2.5,40,0.4
\"east, far\",3.5,50,0.6
";

    #[test]
    fn parse_with_quotes_and_commas() {
        let d = dataset_from_csv_str("s", SAMPLE, &["outcome"]).unwrap();
        assert_eq!(d.desc_names(), &["region", "score", "age"]);
        assert_eq!(d.n(), 3);
        let region = d.desc_col(d.desc_index("region").unwrap());
        assert_eq!(region.display_value(2), "east, far");
    }

    #[test]
    fn dataset_loading_and_type_inference() {
        let d = dataset_from_csv_str("s", SAMPLE, &["outcome"]).unwrap();
        assert_eq!(d.n(), 3);
        assert_eq!(d.dx(), 3);
        assert_eq!(d.dy(), 1);
        assert!(d.desc_col(d.desc_index("score").unwrap()).is_numeric());
        assert!(!d.desc_col(d.desc_index("region").unwrap()).is_numeric());
        assert_eq!(d.target_col(0), vec![0.2, 0.4, 0.6]);
    }

    #[test]
    fn multi_target_loading() {
        let d = dataset_from_csv_str("s", SAMPLE, &["score", "outcome"]).unwrap();
        assert_eq!(d.dy(), 2);
        assert_eq!(d.dx(), 2);
        assert_eq!(
            d.target_names(),
            &["score".to_string(), "outcome".to_string()]
        );
    }

    #[test]
    fn unknown_target_errors() {
        let err = dataset_from_csv_str("s", SAMPLE, &["nope"]).unwrap_err();
        assert!(err.to_string().contains("not found"));
    }

    #[test]
    fn non_numeric_target_errors() {
        let err = dataset_from_csv_str("s", SAMPLE, &["region"]).unwrap_err();
        assert!(err.to_string().contains("not numeric"));
    }

    #[test]
    fn ragged_row_errors() {
        let bad = "a,b\n1,2\n3\n";
        let err = dataset_from_csv_str("s", bad, &["b"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed csv: row 3 has 1 fields, header has 2"
        );
    }

    #[test]
    fn roundtrip_through_writer() {
        let d = dataset_from_csv_str("s", SAMPLE, &["outcome"]).unwrap();
        let text = dataset_to_csv_string(&d);
        let d2 = dataset_from_csv_str("s2", &text, &["outcome"]).unwrap();
        assert_eq!(d2.n(), d.n());
        assert_eq!(d2.dx(), d.dx());
        assert_eq!(d2.target_col(0), d.target_col(0));
        // The quoted label survives.
        let region = d2.desc_col(d2.desc_index("region").unwrap());
        assert_eq!(region.display_value(2), "east, far");
    }

    #[test]
    fn empty_file_errors() {
        for text in ["", "\n\n", " \r\n\t\n"] {
            let err = dataset_from_csv_str("s", text, &[]).unwrap_err();
            assert_eq!(err.to_string(), "malformed csv: empty file");
        }
    }
}
