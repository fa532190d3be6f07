//! Host fingerprint and peak memory, read without extra crates.

/// Lanes the benchmark pins the thread pool to: two, or fewer on a
/// smaller host.
pub const MAX_LANES: usize = 2;

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread-pool lanes every replay runs on.
pub fn lanes() -> usize {
    nproc().min(MAX_LANES)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident memory of this process so far, in MiB, from
/// `VmHWM` in `/proc/self/status`; `None` where the kernel does not
/// report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU time this process has used so far, over all its threads, from
/// `CLOCK_PROCESS_CPUTIME_ID`; `None` where the clock is unavailable.
///
/// Unlike the wall clock, it does not run while the process waits for
/// a core: not while other processes hold the host's cores, and not
/// while the hypervisor gives the virtual CPU to another guest (the
/// kernel takes that steal time out of a task's run time).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time() -> Option<std::time::Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the 64-bit
    // Linux layout, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time this process has used so far; not available on this target.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_time() -> Option<std::time::Duration> {
    None
}

/// CPU seconds `f` used, over every thread of the process, with its
/// result; NaN seconds where the CPU clock is unavailable.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_time();
    let out = f();
    let secs = match (before, cpu_time()) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64(),
        _ => f64::NAN,
    };
    (out, secs)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tqesbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_clock_counts_work() {
        let (sum, secs) = cpu_timed(|| {
            (0..20_000_000u64).fold(0u64, |a, x| a ^ std::hint::black_box(x).wrapping_mul(x))
        });
        std::hint::black_box(sum);
        assert!(secs > 0.0 && secs.is_finite(), "{secs}");
    }

    #[test]
    fn lanes_never_exceed_cores() {
        assert!(lanes() >= 1 && lanes() <= nproc() && lanes() <= MAX_LANES);
    }
}
