//! The host fingerprint stamped on every result, so a later comparison
//! can tell a host change from a code change.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::stats::Digest;
use crate::trace::json_string;

/// Where a result was measured.
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or, outside a git checkout, a digest of
    /// the sources (`tree-fnv:…`).
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Folds every file under `dir` (sorted, build output skipped) into
/// `digest`.
fn digest_tree(dir: &Path, digest: &mut Digest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            digest_tree(&path, digest);
        } else if let Ok(bytes) = std::fs::read(&path) {
            digest
                .bytes(path.to_string_lossy().as_bytes())
                .bytes(&bytes);
        }
    }
}

/// HEAD, when `root` is itself the top of a git work tree (not merely
/// somewhere inside another repository).
fn git_head(root: &Path) -> Option<String> {
    let root_arg = root.to_string_lossy();
    let top = command_line("git", &["-C", &root_arg, "rev-parse", "--show-toplevel"])?;
    let same = std::fs::canonicalize(&top).ok()? == std::fs::canonicalize(root).ok()?;
    same.then(|| command_line("git", &["-C", &root_arg, "rev-parse", "HEAD"]))
        .flatten()
}

fn source_digest(root: &Path) -> String {
    let mut digest = Digest::default();
    for part in ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"] {
        let path = root.join(part);
        if path.is_dir() {
            digest_tree(&path, &mut digest);
        } else if let Ok(bytes) = std::fs::read(&path) {
            digest.bytes(part.as_bytes()).bytes(&bytes);
        }
    }
    format!("tree-fnv:{:016x}", digest.finish())
}

impl Host {
    /// Fingerprints this host and the checkout at `root`.
    pub fn detect(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            commit: git_head(root).unwrap_or_else(|| source_digest(root)),
        }
    }

    /// The fingerprint as the members of a JSON object (no braces).
    pub fn json_members(&self) -> String {
        format!(
            r#""nproc":{},"cpu":{},"rustc":{},"commit":{}"#,
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }
}
