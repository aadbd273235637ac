//! Resource readings of the measured process (Linux): CPU time and peak
//! resident set from `/proc` while it runs, and from `wait4` when it
//! exits (a batch process is gone before `/proc` could be read).

use std::time::Duration;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which the Linux
/// ABI fixes at 100 on every architecture the benchmark runs on.
const USER_HZ: u64 = 100;

/// User + system CPU time of a live process (all its threads, including
/// exited ones).
pub fn cpu_time(pid: u32) -> Result<Duration, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The command name may contain spaces; the fields after its closing
    // parenthesis start at field 3 (state), so utime/stime (fields 14
    // and 15) are at offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed {path}"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Logical CPUs this process may run on (what `nproc` prints).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// What an exited child used over its whole life.
#[derive(Clone, Copy, Debug)]
pub struct ExitUsage {
    pub cpu: Duration,
    pub peak_rss_mb: f64,
    pub success: bool,
}

/// Reap child `pid` and return its resource usage. The caller must not
/// wait on the child any other way afterwards.
pub fn wait_with_usage(pid: u32) -> Result<ExitUsage, String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers are live, aligned locals with the C layout
        // `wait4` writes (`int`, 64-bit `struct rusage`); `pid` is a child
        // of this process that nothing else reaps.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}) failed: {err}"));
        }
    }
    let tv = |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    // Exited normally (low 7 bits zero) with status 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ExitUsage {
        cpu: tv(&usage.utime) + tv(&usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        success,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time(me).unwrap() >= Duration::from_millis(20));
        assert!(nproc() >= 1);
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `wait_with_usage` reaps them
    fn wait4_reports_an_exited_child() {
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let usage = wait_with_usage(child.id()).expect("reap");
        assert!(usage.success);
        assert!(usage.peak_rss_mb > 0.0);
        let child = std::process::Command::new("false")
            .spawn()
            .expect("spawn false");
        assert!(!wait_with_usage(child.id()).expect("reap").success);
    }
}
