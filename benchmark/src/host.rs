//! Host facts and process accounting, read from `/proc` (no libc here).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second behind `/proc/self/stat`'s utime/stime.
/// `USER_HZ` has been 100 on every Linux ABI since 2.6.
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds of this process, all threads, including
/// threads that have already exited.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ")".
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// `(on-cpu, waiting-on-runqueue)` seconds of the calling thread, from the
/// scheduler's nanosecond accounting. A thread's wall time minus both is
/// the time it was blocked.
pub fn thread_sched_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut ns = stat
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / 1e9);
    (ns.next().unwrap_or(0.0), ns.next().unwrap_or(0.0))
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark package's directory: where `out/` lives. `cargo run`
/// exports it at run time; the compile-time value covers a binary started
/// by hand.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `out/` under the benchmark directory, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Host and build facts recorded with every result, as JSON object fields
/// (no surrounding braces).
pub fn provenance_fields(seed: u64, reps: usize, warmups: usize, threads: usize) -> String {
    let dir = bench_dir();
    let commit = command_line(
        "git",
        &["-C", &dir.to_string_lossy(), "rev-parse", "--short", "HEAD"],
    );
    format!(
        "\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": \"release: debug=true lto=thin codegen-units=1 panic=abort\", \"git_commit\": {}, \"seed\": {seed}, \"timed_reps\": {reps}, \"warmup_reps_discarded\": {warmups}, \"threads\": {threads}",
        nproc(),
        crate::json::quote(&cpu_model()),
        crate::json::quote(&command_line("rustc", &["-V"])),
        crate::json::quote(&commit),
    )
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory under `out/`, unique per `(pid, counter)` so
/// concurrent processes and repeated calls never share one, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()?.join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
