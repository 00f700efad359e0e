//! What the benchmark reads from its environment: CPU confinement, peak
//! memory, and the data directory of the durable workloads.

use std::path::{Path, PathBuf};

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `Cpus_allowed_list` of this process, e.g. `0` or `0-1,4`.
pub fn cpus_allowed_list() -> Option<String> {
    proc_status_field("Cpus_allowed_list")
}

/// Number of CPUs a `Cpus_allowed_list` value names.
pub fn count_cpus(list: &str) -> Option<usize> {
    let mut count = 0;
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        count += hi.checked_sub(lo)? + 1;
    }
    Some(count)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_status_field("VmHWM")?;
    let kb: f64 = field.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// A data directory keyed by pid under the benchmark's data root, removed
/// when the guard drops — on success, on failure and on unwinding.
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    pub fn create(root: &Path) -> std::io::Result<DataDir> {
        let path = root.join(format!("data-{}", std::process::id()));
        // A killed earlier process may have left the same pid's directory.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_are_counted() {
        assert_eq!(count_cpus("0"), Some(1));
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpus(""), None);
        assert_eq!(count_cpus("3-1"), None);
    }

    #[test]
    fn this_process_has_a_cpu_list_and_a_peak_rss() {
        let list = cpus_allowed_list().expect("linux exposes Cpus_allowed_list");
        assert!(count_cpus(&list).unwrap() >= 1);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn data_dir_is_removed_on_drop_and_on_unwind() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/env-test");
        let path = {
            let dir = DataDir::create(&root).unwrap();
            std::fs::write(dir.path().join("segment"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let unwound = std::panic::catch_unwind(|| {
            let _dir = DataDir::create(&root).unwrap();
            panic!("workload failed");
        });
        assert!(unwound.is_err());
        assert!(!path.exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
