//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index) and prints it as aligned text plus
//! machine-readable TSV blocks, so EXPERIMENTS.md can quote the output
//! directly.

use std::fmt::Write as _;

/// Prints a section header in the harness output.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Formats an aligned text table. `rows` are already-stringified cells.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "render_table: ragged row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Prints a TSV block (easy to paste into plotting tools), tagged with a
/// series name.
pub fn print_tsv(tag: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("#tsv {tag}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!("#end {tag}");
}

/// Prints the section `title`, then one `ok` or `FAIL` line per
/// `(claim, holds)` check, and exits with status 1 when any claim fails:
/// how the binaries that reproduce a figure assert its claims.
pub fn report_checks(title: &str, checks: &[(String, bool)]) {
    section(title);
    for (what, ok) in checks {
        println!("{} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let failed = checks.iter().filter(|(_, ok)| !ok).count();
    if failed > 0 {
        eprintln!(
            "{}: {failed} of {} checks failed",
            program_name(),
            checks.len()
        );
        std::process::exit(1);
    }
}

/// The running binary's file name, for messages.
fn program_name() -> String {
    std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "experiment".into())
}

/// Prints the parse error plus the shared flag synopsis to stderr and
/// exits with status 2 — bad command-line input is an operator mistake,
/// not a bug, so the experiment binaries must not panic (and must not
/// silently rewrite a requested count, which would misreport the
/// measurement).
fn die_usage(msg: &str) -> ! {
    let name = program_name();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: {name} [--threads N] [--trace-out PATH] \
         [--session-iters K] [--snapshot-out PATH] [--resume PATH] \
         [--kill-after-iter N]"
    );
    std::process::exit(2);
}

/// Parses the value of a `--<name> V` / `--<name>=V` flag from the
/// process arguments (last occurrence wins). Exits with status 2 via
/// [`die_usage`] when the flag is present without a value.
fn flag_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let args: Vec<String> = std::env::args().collect();
    let mut value = None;
    let mut i = 1;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => value = Some(v.clone()),
                None => die_usage(&format!("--{name} needs a value")),
            }
            i += 2;
            continue;
        }
        if let Some(v) = args[i].strip_prefix(&prefix) {
            value = Some(v.to_string());
        }
        i += 1;
    }
    value
}

/// Parses a `--<name> N` flag from the process arguments (also accepts
/// `--<name>=N`), defaulting to `default`. Exits with status 2 and a
/// usage message when the value is missing, non-numeric, or zero.
fn positive_flag_arg(name: &str, default: usize) -> usize {
    match flag_value(name) {
        None => default,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => die_usage(&format!("--{name} needs a positive integer, got '{v}'")),
        },
    }
}

/// Parses an *optional* positive-integer flag: `None` when absent, the
/// value when present and valid, exit 2 via [`die_usage`] otherwise.
fn optional_positive_flag_arg(name: &str) -> Option<usize> {
    flag_value(name).map(|v| match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => die_usage(&format!("--{name} needs a positive integer, got '{v}'")),
    })
}

/// Parses a `--session-iters K` flag. When present, `scalability` runs a
/// durable mining *session* of `K` iterations (printing one deterministic
/// line per iteration plus a final state digest) instead of the runtime
/// sweep — the harness behind the kill-and-resume recovery demo.
pub fn session_iters_arg() -> Option<usize> {
    optional_positive_flag_arg("session-iters")
}

/// Parses a `--snapshot-out PATH` flag: after every session iteration the
/// miner's full state is written to `PATH` crash-safely (temp file +
/// fsync + atomic rename), so a kill at any moment leaves a loadable
/// snapshot.
pub fn snapshot_out_arg() -> Option<String> {
    flag_value("snapshot-out")
}

/// Parses a `--resume PATH` flag: the session starts from the snapshot at
/// `PATH` instead of a fresh model, and continues to `--session-iters`.
pub fn resume_arg() -> Option<String> {
    flag_value("resume")
}

/// Parses a `--kill-after-iter N` flag: the session SIGKILLs its own
/// process immediately after iteration `N`'s snapshot is durable — a real
/// crash, not a clean exit — to demonstrate that `--resume` recovers
/// bit-identically.
pub fn kill_after_iter_arg() -> Option<usize> {
    optional_positive_flag_arg("kill-after-iter")
}

/// Parses a `--threads N` flag from the process arguments (also accepts
/// `--threads=N`), defaulting to `default`. The value is wired into the
/// search engine's `EvalConfig`; results are identical at any setting.
/// Exits with status 2 and a usage message when the value is missing,
/// non-numeric, or zero.
pub fn threads_arg(default: usize) -> usize {
    positive_flag_arg("threads", default)
}

/// Parses a `--trace-out PATH` flag from the process arguments (also
/// accepts `--trace-out=PATH`). When present, the binary writes a JSONL
/// trace of every metric event to `PATH` (see [`sisd_obs::JsonlSink`]) in
/// addition to printing the [`sisd_obs::SearchReport`]; tracing never
/// changes the experiment's numbers. Exits with status 2 and a usage
/// message when the flag is given without a path.
pub fn trace_out_arg() -> Option<String> {
    flag_value("trace-out")
}

/// Resolves the experiment's metrics handle: a JSONL-sink registry when
/// `--trace-out` was given, a counters-only registry otherwise — always
/// enabled, so every binary can print a [`sisd_obs::SearchReport`].
/// Exits with status 2 and a usage message when the trace file cannot be
/// created.
pub fn obs_from_args() -> sisd_obs::ObsHandle {
    match trace_out_arg() {
        Some(path) => {
            let sink = sisd_obs::JsonlSink::create(std::path::Path::new(&path))
                .unwrap_or_else(|e| die_usage(&format!("--trace-out {path}: {e}")));
            sisd_obs::Obs::leaked(Box::new(sink))
        }
        None => sisd_obs::Obs::leaked(Box::new(sisd_obs::NullSink)),
    }
}

/// Prints the search report: the human-readable block, then a
/// machine-readable `#tsv metrics` section with one `(metric, value)` row
/// per registry slot — the block `scripts/validate_trace.py` reconciles
/// against the JSONL trace.
pub fn print_search_report(report: &sisd_obs::SearchReport) {
    section("search report");
    println!("{report}");
    let rows: Vec<Vec<String>> = sisd_obs::Metric::ALL
        .iter()
        .map(|&m| vec![m.name().to_string(), report.get(m).to_string()])
        .collect();
    print_tsv("metrics", &["metric", "value"], &rows);
}

/// Two-decimal formatting shorthand.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Three-decimal formatting shorthand.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Four-decimal formatting shorthand.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// One-line assimilation report for the case-study binaries: what kind of
/// pattern entered the belief state, how long assimilate+refit took, and
/// how hard the refit worked (cycles and re-projections — the observable
/// cost of the warm-started incremental path).
pub fn report_assimilation(
    kind: &str,
    elapsed: std::time::Duration,
    stats: Option<sisd_model::RefitStats>,
) {
    match stats {
        Some(s) => println!("assimilated {kind} pattern in {elapsed:.2?} (refit: {s})"),
        None => println!("assimilated {kind} pattern in {elapsed:.2?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f4(1.23456), "1.2346");
    }
}
