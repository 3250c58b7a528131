//! Process accounting read from `/proc` (Linux).

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// fixed at 100 by the kernel's user-space ABI).
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU time of a process (all its threads); `None` for the
/// calling process.
///
/// # Errors
///
/// Returns a message when `/proc` is unreadable or malformed.
pub fn cpu_time(pid: Option<u32>) -> Result<Duration, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let ticks = |index: usize| -> Result<f64, String> {
        fields
            .get(index - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field {index}"))
    };
    Ok(Duration::from_secs_f64((ticks(14)? + ticks(15)?) / USER_HZ))
}

/// Peak resident set size of a process in MB (`VmHWM`); `None` for the
/// calling process.
///
/// # Errors
///
/// Returns a message when `/proc` is unreadable or malformed.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}
