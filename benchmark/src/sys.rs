//! Host-side measurement primitives: CPU pinning, `getrusage`, the
//! per-thread CPU clock and the `/proc` readers.
//!
//! No crates are available offline, so the four libc calls are declared
//! here. The struct layouts are the Linux LP64 ones.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and declares Linux LP64 libc layouts");

use std::fs;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage`: two timevals followed by fourteen longs, of which
/// only the last two (context switches) are read.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_other: [i64; 12],
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

/// Words of the affinity mask (1024 CPUs, the glibc `cpu_set_t`).
const MASK_WORDS: usize = 16;
const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// Pin the calling thread (and every thread it later spawns) to the
/// lowest CPU its affinity mask allows — CPU 0 unless a cpuset excludes
/// it. The serial kernel runs one simulated thread at a time, so a
/// second core only adds cross-core wake-ups. Returns the CPU.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or("empty affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity(cpu {cpu}) failed"));
    }
    Ok(cpu)
}

/// Process-wide CPU time and context switches so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Rusage {
    /// `getrusage(RUSAGE_SELF)`.
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the
        // layout the kernel fills.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Rusage {
            user_s: secs(raw.ru_utime),
            sys_s: secs(raw.ru_stime),
            ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as u64,
        }
    }

    /// What was consumed since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// CPU time the calling OS thread has consumed, ns. Many simulated
/// threads interleave inside one storage call, so the interposer spans
/// charge the caller's own CPU rather than wall time.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live OS threads of this process (`Threads:`).
pub fn os_threads() -> u64 {
    proc_status_kb("Threads:").unwrap_or(0)
}

/// Logical CPUs the host has (independent of this process's affinity)
/// and the model name of the first, from `/proc/cpuinfo`.
pub fn host_cpus() -> (u64, String) {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = info.lines().filter(|l| l.starts_with("processor")).count() as u64;
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    (cores, model)
}
