//! Process-level measurements read from `/proc`, and the scratch
//! directory every run keeps its files in.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exposes to user space).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Restart the peak resident set size (`VmHWM`) from the current RSS,
/// so a later reading covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // provlint: allow(raw-write) -- a procfs control write that resets a kernel counter, not an artifact
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// This process's scratch directory: `provbench/work/run-<pid>`, inside
/// the checkout. It also becomes the process's temp directory, because
/// the benchmark reads and writes only inside its checkout and the OPUS
/// simulation puts its stores in the temp directory. The stores stay on
/// the filesystem that holds the checkout; where that is also the
/// filesystem of the default temp directory, they are timed as
/// `provmark-shard single --quick` times them.
pub struct Scratch {
    dir: PathBuf,
}

/// Prefix of the OPUS simulation's per-trial store directories.
const NEO4JSIM_PREFIX: &str = "provmark-neo4jsim-";

impl Scratch {
    /// Create the directory and point `TMPDIR` at it. Call before any
    /// thread is spawned.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = work_root().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch { dir })
    }

    /// A fresh, not yet existing path under the scratch directory.
    pub fn fresh(&self, stem: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.dir.join(format!("{stem}-{n}"))
    }

    /// Names of this process's simulated Neo4j store directories still
    /// present.
    pub fn leftover_stores(&self) -> Vec<String> {
        let own = format!("{NEO4JSIM_PREFIX}{}-", std::process::id());
        leftovers(&self.dir, &own)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `provbench/work`: where scratch directories and span files go.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn leftovers(dir: &Path, prefix: &str) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(prefix))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn peak_rss_restarts_from_the_current_rss() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb();
        drop(big);
        reset_peak_rss().unwrap();
        assert!(
            peak_rss_mb() < with_big - 32.0,
            "{} vs {with_big}",
            peak_rss_mb()
        );
    }

    #[test]
    fn leftovers_match_prefix_only() {
        let dir = work_root().join(format!("leftover-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("provmark-neo4jsim-1-0")).unwrap();
        std::fs::create_dir_all(dir.join("drive-0")).unwrap();
        assert_eq!(
            leftovers(&dir, NEO4JSIM_PREFIX),
            vec!["provmark-neo4jsim-1-0"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
