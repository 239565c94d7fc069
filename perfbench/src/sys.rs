//! Process CPU time and peak resident memory, read from Linux's `/proc/self`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread included.
///
/// # Errors
///
/// Returns a description when `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may contain spaces; the fields after it start with the state.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15 of the full line, 11 and 12 after the name.
    Ok(field(11)? + field(12)?)
}

/// Resets the process's resident-memory high-water mark, so that [`peak_rss_mb`]
/// covers only what runs afterwards.  Returns `false` where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory (`VmHWM`) in MiB since start or the last [`reset_peak_rss`].
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is missing or malformed.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| {
            value
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
