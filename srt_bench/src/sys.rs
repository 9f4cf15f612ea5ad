//! What the kernel reports about this process: CPU time, peak resident
//! memory, core count. Linux `/proc` only — the benchmark's reference
//! box; elsewhere the readings are absent and the run fails loudly
//! instead of printing zeros.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. Fixed
/// at 100 on every Linux ABI the workspace builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads, live and joined) in
/// seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    cpu_s_from_stat(&stat).expect("/proc/self/stat carries utime and stime")
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn cpu_s_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    hwm_mib_from_status(&status).expect("/proc/self/status carries VmHWM")
}

fn hwm_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "4242 (srt bench) x) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 3 0 100";
        assert_eq!(cpu_s_from_stat(line), Some(2.0));
    }

    #[test]
    fn status_hwm() {
        let s = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(hwm_mib_from_status(s), Some(20.0));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }
}
