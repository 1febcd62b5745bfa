//! The host a number was measured on: printed with every result so two
//! result files are only compared knowingly.

use prague_obs::json::escape;
use std::path::Path;

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_owned())
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The commit checked out in `repo`, read from `.git` directly (the
/// benchmark also runs in checkouts that are not repositories).
fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
}

/// The fingerprint as a JSON object.
pub fn fingerprint(seed: u64) -> String {
    let unknown = || "unknown".to_owned();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"git\":\"{}\",\"seed\":{seed}}}",
        escape(&cpu_model().unwrap_or_else(unknown)),
        escape(&first_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        escape(&rustc_version().unwrap_or_else(unknown)),
        escape(&git_rev(&repo).unwrap_or_else(unknown)),
    )
}
