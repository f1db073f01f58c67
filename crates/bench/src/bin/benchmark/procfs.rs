//! Process-wide resource readings from `/proc/self` (Linux only; every
//! reader returns 0 where the file is missing).

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// fixed USER_HZ at 100 on every architecture this repo builds for.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by all threads of this process.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // the closing parenthesis, where utime and stime are the 12th and
    // 13th entries.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_S,
        _ => 0.0,
    }
}

fn status_value(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Resident set size in MiB.
pub fn rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_value(&s, "VmRSS"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Voluntary + involuntary context switches, summed over live threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_value(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_value(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let text = "Name:\tx\nVmRSS:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_value(text, "VmRSS"), Some(2048));
        assert_eq!(status_value(text, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_value(text, "Missing"), None);
    }

    #[test]
    fn cpu_time_is_monotonic() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= a);
    }
}
