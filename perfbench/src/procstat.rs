//! Process counters for the benchmark, standard library only.
//!
//! CPU time comes from `/proc/self/stat` (fields 14 and 15, `utime` and
//! `stime`, summed over every thread of the process including exited
//! ones) and the memory high-water mark from `VmHWM` in
//! `/proc/self/status`. Context switches come from `getrusage`, because
//! the `voluntary_ctxt_switches` lines of `/proc/self/status` count the
//! main thread only, and the simulator's work happens on other threads.
//! Set-up lasts a few milliseconds, below the 10 ms tick of
//! `/proc/self/stat`, so [`cpu_s_fine`] reads the same process CPU time
//! from `getrusage` in microseconds, and [`Sample::cpu_s`] gives the
//! timed phase the same resolution.
//!
//! [`pin_to_one_cpu`] binds the process to one CPU before it starts any
//! thread; the README says why.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times. Linux reports them
/// in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// One reading of the process counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// User plus system CPU seconds from `getrusage`, to the microsecond.
    pub cpu_s: f64,
    /// Voluntary context switches (blocked on a lock, futex or I/O).
    pub ctx_vol: u64,
    /// Involuntary context switches (preempted).
    pub ctx_invol: u64,
}

impl Sample {
    /// Read the counters now.
    pub fn now() -> Sample {
        let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        let (user_s, sys_s) = parse_stat_cpu(&stat).expect("parse /proc/self/stat");
        let ru = rusage();
        let (ctx_vol, ctx_invol) = (ru.counters[12] as u64, ru.counters[13] as u64);
        Sample {
            user_s,
            sys_s,
            cpu_s: fine_seconds(&ru),
            ctx_vol,
            ctx_invol,
        }
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_vol: self.ctx_vol.saturating_sub(earlier.ctx_vol),
            ctx_invol: self.ctx_invol.saturating_sub(earlier.ctx_invol),
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// `(utime, stime)` in seconds from the text of `/proc/<pid>/stat`. The
/// command name in field 2 may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime as f64 / USER_HZ, stime as f64 / USER_HZ))
}

/// The value of a `Key:   <n> kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

#[repr(C)]
struct Rusage {
    /// `ru_utime` and `ru_stime`, two `timeval`s (seconds, microseconds).
    times: [i64; 4],
    /// `ru_maxrss` through `ru_nivcsw`, fourteen `long`s.
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// User plus system CPU seconds of the whole process, to the microsecond.
pub fn cpu_s_fine() -> f64 {
    fine_seconds(&rusage())
}

fn fine_seconds(ru: &Rusage) -> f64 {
    let t = ru.times;
    (t[0] + t[2]) as f64 + (t[1] + t[3]) as f64 / 1e6
}

/// Bind the calling thread, and so every thread it starts later, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` when the
/// affinity could not be read or set (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls get the size in bytes of a live, properly aligned
    // 1024-bit CPU mask; the kernel writes at most `size` bytes into it.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = lowest_cpu(&mask)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the mask.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The lowest CPU set in an affinity mask.
fn lowest_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// `getrusage(RUSAGE_SELF)`: the whole process, exited threads included.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of `struct rusage` on 64-bit Linux
    // (two 16-byte timevals, then fourteen 8-byte longs), the pointer is to
    // a live, writable, properly aligned value, and getrusage writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194560 8127 0 0 0 \
                        1234 567 0 0 20 0 37 0 98765 123456789 4321 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 17610 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tsemplar-perfben\nUmask:\t0022\nState:\tS (sleeping)\n\
                          VmPeak:\t  812345 kB\nVmHWM:\t   52224 kB\nVmRSS:\t   40960 kB\n\
                          Threads:\t37\nvoluntary_ctxt_switches:\t1520\n\
                          nonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn stat_cpu_fields_are_counted_from_the_last_paren() {
        let (u, s) = parse_stat_cpu(STAT).expect("parses");
        assert_eq!(u, 12.34);
        assert_eq!(s, 5.67);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no paren at all"), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(52224));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(40960));
        assert_eq!(
            parse_status_kb(STATUS, "voluntary_ctxt_switches"),
            Some(1520)
        );
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
    }

    #[test]
    fn lowest_cpu_of_a_mask() {
        assert_eq!(lowest_cpu(&[0b1100, 0]), Some(2));
        assert_eq!(lowest_cpu(&[0, 1 << 5]), Some(69));
        assert_eq!(lowest_cpu(&[0, 0]), None);
    }

    #[test]
    fn live_counters_are_readable_and_monotone() {
        let a = Sample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let b = Sample::now();
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0 && d.cpu_s >= 0.0);
        let fine = cpu_s_fine();
        assert!(fine > 0.0 && (fine - (b.user_s + b.sys_s)).abs() < 0.05);
        assert!(peak_rss_mb() > 0.0);
    }
}
