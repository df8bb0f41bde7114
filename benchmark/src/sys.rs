//! What the run learns from the host: CPU time, peak memory, thread
//! counts, toolchain and commit.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Nanoseconds since a fixed base, the one clock every span uses.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            base: Instant::now(),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of this process so far, in microseconds.
pub fn cpu_time_us() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // 64-bit Linux defines (144 bytes); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    micros(usage.utime) + micros(usage.stime)
}

/// Peak resident set of this process (`VmHWM`), in MiB. `ru_maxrss`
/// is not used: it survives `exec`, so it can report the launcher's
/// peak instead of ours.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads every workload uses in total: `min(hardware, 4)`, and at
/// least the two a client/worker pair needs.
pub fn bench_threads() -> usize {
    hardware_threads().clamp(2, 4)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

/// The commit measured: `BENCH_COMMIT` if set (a checkout that is not a
/// git repository), else `git rev-parse HEAD`, else `unknown`.
pub fn commit() -> String {
    std::env::var("BENCH_COMMIT")
        .ok()
        .filter(|c| !c.is_empty())
        .or_else(|| first_line_of("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string())
}
