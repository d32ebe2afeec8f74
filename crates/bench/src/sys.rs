//! Process-level measurements shared by the benchmark binaries.

/// Peak resident set size (high-water mark) of the current process, in
/// bytes.
///
/// Reads `VmHWM` from `/proc/self/status`, so it reflects the maximum
/// RSS over the whole process lifetime — exactly what a scale benchmark
/// wants to prove memory stayed sub-linear in the registered population.
/// Returns `None` off Linux or if the field cannot be parsed, so callers
/// can report "unavailable" instead of a bogus number.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// The commit checked out in the working directory, with a `-dirty`
/// suffix when tracked files differ from it, so a bench record names the
/// code it measured. `"unknown"` when `git` or the checkout is missing.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|changes| !changes.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Parses the `VmHWM:    1234 kB` line out of a `/proc/<pid>/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_or_malformed_field_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_reading_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("Linux exposes /proc/self/status");
        assert!(rss > 0);
    }
}
