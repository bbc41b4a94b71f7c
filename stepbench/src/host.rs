//! Provenance of a result, and the process's own peak memory. A number
//! from a small shared host means little without the machine and the
//! build that produced it.

use std::process::{Command, Stdio};

/// `(key, value)` pairs printed with every result.
pub fn provenance(seed: u64, engine_threads: usize) -> Vec<(&'static str, String)> {
    let unknown = || "unavailable".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "commit",
            output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        (
            "rustc",
            output_of("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model().unwrap_or_else(unknown)),
        ("l2_per_core", l2_size().unwrap_or_else(unknown)),
        ("seed", seed.to_string()),
        ("engine_threads", engine_threads.to_string()),
    ]
}

/// Runs a program to completion; its trimmed stdout when it succeeds.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Size of CPU 0's level-2 cache as the kernel reports it, e.g. `2048K`.
fn l2_size() -> Option<String> {
    (0..8).find_map(|index| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
        if level.trim() != "2" {
            return None;
        }
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        Some(size.trim().to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
