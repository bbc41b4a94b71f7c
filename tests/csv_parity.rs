//! The streaming CSV loader against the reference loader it replaced.
//!
//! [`reference`] is the earlier loader, kept here verbatim: it splits every
//! line into owned `String`s, collects the whole table, then assembles the
//! columns, interning labels with a linear scan. The library's
//! [`dataset_from_csv_str`] must give the same dataset, bit for bit, or the
//! same error text on every input: generated texts full of CSV corner cases
//! and the paper's three simulacra as the writer prints them.

use proptest::prelude::*;
use sisd::data::csv::{dataset_from_csv_str, dataset_to_csv_string, CsvError};
use sisd::data::datasets::{crime_synthetic, mammals_synthetic, water_quality_synthetic};
use sisd::data::{Column, Dataset};

/// The earlier loader, verbatim but for the interning helper it called,
/// which is copied in as [`reference::categorical_from_strs`].
mod reference {
    use sisd::data::csv::CsvError;
    use sisd::data::{Column, Dataset};
    use sisd::linalg::Matrix;

    /// Builds a categorical column from string values, interning labels in
    /// first-appearance order.
    pub fn categorical_from_strs<S: AsRef<str>>(values: &[S]) -> Column {
        let mut labels: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let v = v.as_ref();
            let code = match labels.iter().position(|l| l == v) {
                Some(p) => p as u32,
                None => {
                    labels.push(v.to_string());
                    (labels.len() - 1) as u32
                }
            };
            codes.push(code);
        }
        Column::Categorical { codes, labels }
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

    /// Parses CSV text into `(header, rows)`.
    pub fn parse(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .map(split_line)
            .ok_or_else(|| CsvError::Malformed("empty file".into()))?;
        let mut rows = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let row = split_line(line);
            if row.len() != header.len() {
                return Err(CsvError::Malformed(format!(
                    "row {} has {} fields, header has {}",
                    lineno + 2,
                    row.len(),
                    header.len()
                )));
            }
            rows.push(row);
        }
        Ok((header, rows))
    }

    /// Loads a dataset from CSV text. Columns named in `target_names` become
    /// targets (and must be fully numeric); the rest become description
    /// attributes with inferred types.
    pub fn dataset_from_csv_str(
        name: &str,
        text: &str,
        target_names: &[&str],
    ) -> Result<Dataset, CsvError> {
        let (header, rows) = parse(text)?;
        let n = rows.len();
        let mut target_idx = Vec::with_capacity(target_names.len());
        for t in target_names {
            let idx = header
                .iter()
                .position(|h| h == t)
                .ok_or_else(|| CsvError::Malformed(format!("target column '{t}' not found")))?;
            target_idx.push(idx);
        }

        let mut targets = Matrix::zeros(n, target_idx.len());
        for (j, &cidx) in target_idx.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                let v: f64 = row[cidx].trim().parse().map_err(|_| {
                    CsvError::Malformed(format!(
                        "target '{}' row {} is not numeric: '{}'",
                        header[cidx],
                        i + 2,
                        row[cidx]
                    ))
                })?;
                targets[(i, j)] = v;
            }
        }

        let mut desc_names = Vec::new();
        let mut desc_cols = Vec::new();
        for (cidx, cname) in header.iter().enumerate() {
            if target_idx.contains(&cidx) {
                continue;
            }
            let raw: Vec<&str> = rows.iter().map(|r| r[cidx].trim()).collect();
            // Parse each cell at most once: a column is numeric iff every cell
            // is non-empty and parses, otherwise it falls back to categorical.
            let numeric: Option<Vec<f64>> = raw
                .iter()
                .map(|v| if v.is_empty() { None } else { v.parse().ok() })
                .collect();
            let col = match numeric {
                Some(values) => Column::Numeric(values),
                None => categorical_from_strs(&raw),
            };
            desc_names.push(cname.clone());
            desc_cols.push(col);
        }

        Ok(Dataset::new(
            name,
            desc_names,
            desc_cols,
            target_names.iter().map(|s| s.to_string()).collect(),
            targets,
        ))
    }
}

/// Why two datasets differ, or `None` when they are the same: equal names,
/// column kinds, numeric values by bits, codes, labels and target bits.
fn difference(a: &Dataset, b: &Dataset) -> Option<String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if a.name != b.name || a.desc_names() != b.desc_names() || a.target_names() != b.target_names()
    {
        return Some("names differ".into());
    }
    if (a.n(), a.dx(), a.dy()) != (b.n(), b.dx(), b.dy()) {
        return Some(format!(
            "shape {:?} vs {:?}",
            (a.n(), a.dx(), a.dy()),
            (b.n(), b.dx(), b.dy())
        ));
    }
    for (k, (x, y)) in a.desc_cols().iter().zip(b.desc_cols()).enumerate() {
        let same = match (x, y) {
            (Column::Numeric(x), Column::Numeric(y)) => bits(x) == bits(y),
            (Column::Categorical { .. }, Column::Categorical { .. }) => x == y,
            _ => false,
        };
        if !same {
            return Some(format!("column {k}: {x:?} vs {y:?}"));
        }
    }
    if bits(a.targets().as_slice()) != bits(b.targets().as_slice()) {
        return Some("target bits differ".into());
    }
    None
}

/// Why the two loaders disagree on `text`, or `None` when they agree.
fn disagreement(text: &str, targets: &[&str]) -> Option<String> {
    let got = dataset_from_csv_str("t", text, targets);
    let want = reference::dataset_from_csv_str("t", text, targets);
    match (&got, &want) {
        (Ok(g), Ok(w)) => difference(g, w),
        (Err(g), Err(w)) if g.to_string() == w.to_string() => None,
        _ => Some(format!(
            "loader {:?} vs reference {:?}",
            got.as_ref().map(|_| "dataset").map_err(CsvError::to_string),
            want.as_ref()
                .map(|_| "dataset")
                .map_err(CsvError::to_string)
        )),
    }
    .map(|why| format!("{why}\ntargets {targets:?}\ntext {text:?}"))
}

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

/// True with probability `1 / k`.
fn one_in(rng: &mut TestRng, k: u64) -> bool {
    rng.next_u64().is_multiple_of(k)
}

/// Cells a numeric column draws from: padded, signed, special and
/// malformed numbers.
const NUMBERS: &[&str] = &[
    "0", "1", "-2.5", "3.25", " 4 ", "\t5\t", "-0", "NaN", "nan", "inf", "-inf", "infinity",
    "1e300", "1e400", "-1e-320", ".5", "5.", "+7", "1e", "0x10", "\"6\"", "\" 7 \"", "",
];
/// Cells a label column draws from: quoted fields with commas and `""`,
/// a quote in the middle of a field, empty and padded cells.
const LABELS: &[&str] = &[
    "x",
    "y",
    " x ",
    "east",
    "\"east, far\"",
    "\"say \"\"hi\"\"\"",
    "ab\"c,d\"e",
    "\"\"",
    "",
    "  ",
    "é",
    "1",
];
/// Header names: repeated, padded, quoted and empty ones among them.
const NAMES: &[&str] = &["a", "b", "y", "y", " y", "\"y\"", "\"c,d\"", "", "z"];
/// Lines that carry no row.
const BLANKS: &[&str] = &["", "   ", "\t", " \t "];

/// A CSV text and the target names to load it with.
fn csv_case() -> impl Strategy<Value = (String, Vec<String>)> {
    proptest::from_fn(|rng: &mut TestRng| {
        let width = 1 + (rng.next_u64() % 5) as usize;
        let rows = (rng.next_u64() % 8) as usize;
        let header: Vec<&str> = (0..width).map(|_| pick(rng, NAMES)).collect();
        // Each column mostly draws numbers, mostly labels, or anything.
        let pools: Vec<u64> = (0..width).map(|_| rng.next_u64() % 3).collect();
        let mut lines = vec![header.join(",")];
        for _ in 0..rows {
            let mut cells: Vec<&str> = pools
                .iter()
                .map(|&pool| {
                    let numeric = match pool {
                        0 => !one_in(rng, 12),
                        1 => one_in(rng, 12),
                        _ => one_in(rng, 2),
                    };
                    pick(rng, if numeric { NUMBERS } else { LABELS })
                })
                .collect();
            // Now and then a ragged row, or an unclosed quote that takes
            // in the rest of the line.
            match rng.next_u64() % 64 {
                0 => {
                    cells.pop();
                }
                1 => cells.push("9"),
                2 => cells[0] = "\"open",
                _ => {}
            }
            lines.push(cells.join(","));
        }
        let mut text = String::new();
        for line in &lines {
            if one_in(rng, 5) {
                text.push_str(pick(rng, BLANKS));
                text.push('\n');
            }
            text.push_str(line);
            text.push_str(if one_in(rng, 3) { "\r\n" } else { "\n" });
        }
        if one_in(rng, 4) {
            text.pop();
        }
        let targets = (0..rng.next_u64() % 4)
            .map(|_| match rng.next_u64() % 8 {
                0 => "nope".to_string(),
                _ => {
                    let name = header[(rng.next_u64() % width as u64) as usize];
                    name.trim_matches('"').to_string()
                }
            })
            .collect();
        (text, targets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn streaming_loader_matches_the_reference(case in csv_case()) {
        let (text, targets) = case;
        let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
        let why = disagreement(&text, &targets);
        prop_assert!(why.is_none(), "{}", why.unwrap_or_default());
    }
}

#[test]
fn corner_cases_match_the_reference() {
    let cases: &[(&str, &[&str])] = &[
        ("", &[]),
        ("\n \n\t\n", &["y"]),
        ("y\n", &["y"]),
        ("y", &["y"]),
        ("a,y\r\n1,2\r\n\r\n 3 , 4 \r\n", &["y"]),
        ("a,y\n1,2\n3\n", &["nope"]),
        ("a,y\nx,2\n3\n", &["a"]),
        ("a,y\nx,2\n3,z\n", &["nope", "y"]),
        ("a,y\nx,2\n3,z\n", &["y", "a"]),
        ("a,y\nx,NaN\n3,-0\n", &["y", "y", "a"]),
        ("a,y\n1,2\n3,4\n", &["y", "a", "y"]),
        ("a,a,y\n1,x,2\n", &["a"]),
        ("\"a,b\",y\n\"1,5\",2\n\"x\"\"\",3\n", &["y"]),
        ("a,y\nab\"c,d\"e,1\n", &["y"]),
        ("a,y\n\"open,1\n", &["y"]),
        ("a,b,y\n,1,2\n , 2e1 ,3\n", &["y"]),
        ("a,y\n1e300,.5\ninf,-inf\n", &["y", "a"]),
    ];
    for &(text, targets) in cases {
        if let Some(why) = disagreement(text, targets) {
            panic!("{why}");
        }
    }
}

#[test]
fn simulacra_round_trip_to_the_reference_fingerprint() {
    for seed in [2018, 7919] {
        for data in [
            crime_synthetic(seed),
            mammals_synthetic(seed).0,
            water_quality_synthetic(seed),
        ] {
            let text = dataset_to_csv_string(&data);
            let targets: Vec<&str> = data.target_names().iter().map(String::as_str).collect();
            let got = dataset_from_csv_str(&data.name, &text, &targets).unwrap();
            let want = reference::dataset_from_csv_str(&data.name, &text, &targets).unwrap();
            assert_eq!(
                got.content_fingerprint(),
                want.content_fingerprint(),
                "{} at seed {seed}",
                data.name
            );
            assert_eq!(
                difference(&got, &want),
                None,
                "{} at seed {seed}",
                data.name
            );
        }
    }
}

#[test]
fn hashed_interning_matches_the_linear_scan() {
    // An ID-like column: 5,000 rows over 2,500 labels, each label first
    // seen in a scrambled order and then repeated.
    let values: Vec<String> = (0..5000u64)
        .map(|i| format!("station-{}", (i * 7919) % 2500))
        .collect();
    let got = Column::categorical_from_strs(&values);
    assert_eq!(got.cardinality(), 2500);
    assert_eq!(got, reference::categorical_from_strs(&values));
}
