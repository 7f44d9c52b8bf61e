//! Host metadata stamped on every result, and the load-thread budget.

use std::path::Path;
use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` of this process.
    pub nproc: usize,
    /// `git rev-parse HEAD` of the checkout, or `none` outside git.
    pub commit: String,
    /// FNV-1a digest of the benchmarked sources (`crates/**`,
    /// `vendor/**`, the benchmark itself): identifies the code even
    /// when the checkout is not a git repository.
    pub source_digest: String,
    /// Cargo profile this binary was built with.
    pub profile: &'static str,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl Host {
    /// Probes the host. `root` is the checkout root.
    pub fn probe(root: &Path) -> Self {
        Self {
            nproc: available_parallelism(),
            commit: command_line("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(root)),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: command_line("rustc", &["--version"], root)
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One human-readable line.
    pub fn line(&self, load_threads: usize) -> String {
        format!(
            "host nproc={} load_threads={} commit={} source_digest={} profile={} rustc=\"{}\"",
            self.nproc, load_threads, self.commit, self.source_digest, self.profile, self.rustc
        )
    }
}

/// Cores this process may run on (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Checks a requested load-thread count against the host: load may not
/// use more threads than `available_parallelism`.
pub fn check_load_threads(requested: usize) -> Result<usize, String> {
    let nproc = available_parallelism();
    if requested == 0 || requested > nproc {
        Err(format!(
            "refusing {requested} load threads: this host has available_parallelism = {nproc}"
        ))
    } else {
        Ok(requested)
    }
}

/// User-mode CPU seconds this process has run so far, over all its
/// threads, exited ones included (`getrusage(RUSAGE_SELF)`). On a guest
/// kernel with paravirtual steal accounting, time the hypervisor gave to
/// other guests is not counted. Kernel time is left out as well: it is
/// where a multi-threaded process waits on a preempted vCPU (TLB
/// shootdowns, lock handoffs), so it grows with the neighbours' load.
/// `NaN` where the counter is not available (it is read on 64-bit Linux
/// only).
pub fn process_user_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        #[derive(Default)]
        struct Timeval {
            tv_sec: i64,
            tv_usec: i64,
        }
        #[repr(C)]
        #[derive(Default)]
        struct Rusage {
            ru_utime: Timeval,
            ru_stime: Timeval,
            ru_rest: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a valid, writable `struct rusage` (64-bit
        // Linux layout) for the duration of the call.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } == 0 {
            return usage.ru_utime.tv_sec as f64 + usage.ru_utime.tv_usec as f64 * 1e-6;
        }
    }
    f64::NAN
}

/// The host's cumulative CPU time counters (`/proc/stat`, Linux).
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Share of the CPU time since `earlier` that the hypervisor gave to
    /// other guests (steal). On a shared virtual machine it is what makes
    /// whole runs slower; a run with high steal measured the neighbours
    /// as much as the program.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The aggregate CPU counters, or `None` where `/proc/stat` is missing.
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTicks {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the relative paths and bytes of every source file under
/// the benchmarked directories, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        feed(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&bytes);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" {
                collect_files(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}
