//! CPU time of the system's threads and peak resident set, read from
//! `/proc/self`.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100
/// on every architecture the kernel ABI exposes to user space.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the system under test: the live threads
/// of this process whose names start with `saccs-` (serve workers, the
/// kernel pool, the index compactor), leaving out the load generator.
pub fn system_cpu_seconds() -> Result<f64, String> {
    let mut total = 0.0;
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks {
        let dir = task.map_err(|e| format!("/proc/self/task: {e}"))?.path();
        // A thread may exit between listing and reading; skip it.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("saccs-") {
            continue;
        }
        if let Ok(stat) = fs::read_to_string(dir.join("stat")) {
            total += stat_cpu_seconds(&stat)?;
        }
    }
    Ok(total)
}

/// utime + stime of one `/proc/.../stat` line, in seconds.
fn stat_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc stat field {n} missing"))
    };
    Ok((field(14)? + field(15)?) / TICKS_PER_S)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0u64;
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
