//! Core pinning, the process CPU clock and resident-set readers.
//!
//! CPU per datagram on the mux runtime is bimodal when its threads float
//! between cores and repeats within a few percent when they share one, so
//! every run pins the whole process to the first core it is allowed on
//! before anything is spawned (threads inherit the mask). The syscalls are
//! hand-declared in the style of `epidemic_net::batch`: the build
//! environment has no `libc` crate.

use std::fs;

/// Outcome of [`pin_to_first_core`], echoed into every result so an
/// unpinned run can never be mistaken for a pinned one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinning {
    /// The core the process was pinned to, or `None` when pinning is not
    /// available (non-Linux) or the kernel refused.
    pub core: Option<usize>,
}

impl Pinning {
    /// `true` when the process runs on exactly one core.
    pub fn pinned(&self) -> bool {
        self.core.is_some()
    }
}

#[cfg(target_os = "linux")]
mod ffi {
    /// 1024 CPUs, the glibc `cpu_set_t`.
    pub const CPU_SET_WORDS: usize = 16;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// Pins the calling process (and every thread it spawns afterwards) to
/// the lowest-numbered core in its current affinity mask.
#[cfg(target_os = "linux")]
pub fn pin_to_first_core() -> Pinning {
    let mut mask = [0u64; ffi::CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 names the calling thread.
    if unsafe { ffi::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Pinning { core: None };
    }
    let Some((word, bits)) = mask.iter().enumerate().find(|(_, w)| **w != 0) else {
        return Pinning { core: None };
    };
    let bit = bits.trailing_zeros() as usize;
    let mut single = [0u64; ffi::CPU_SET_WORDS];
    single[word] = 1 << bit;
    // SAFETY: `single` is a live buffer of `bytes` bytes, only read.
    if unsafe { ffi::sched_setaffinity(0, bytes, single.as_ptr()) } != 0 {
        return Pinning { core: None };
    }
    Pinning {
        core: Some(word * 64 + bit),
    }
}

/// Pinning is a Linux facility; elsewhere the run is flagged unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_first_core() -> Pinning {
    Pinning { core: None }
}

/// CPU time (user + system, all threads) this process has consumed, in
/// nanoseconds: `CLOCK_PROCESS_CPUTIME_ID`, or `/proc/self/stat` at clock
/// tick resolution where the syscall is unavailable.
///
/// # Panics
///
/// Panics when neither source exists: a benchmark whose denominator is
/// made up must not print a number.
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`.
        if unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    proc_stat_cpu_ns().expect("no process CPU clock: clock_gettime and /proc/self/stat both failed")
}

/// utime + stime from `/proc/self/stat` (fields 14 and 15, in clock ticks
/// of 1/100 s on every Linux this runs on).
fn proc_stat_cpu_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// One `kB` line of `/proc/self/status`, in bytes.
fn status_bytes(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Current resident set size in bytes (0 where `/proc` is absent).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:").unwrap_or(0)
}

/// Peak resident set size in bytes (0 where `/proc` is absent).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_fallback_and_rss_readers_parse() {
        assert!(proc_stat_cpu_ns().is_some());
        // The kernel refreshes the high-water mark lazily, so the two are
        // not ordered at any one instant.
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes() > 0);
    }
}
