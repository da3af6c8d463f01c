//! The environment record printed with every report.

use std::path::Path;

pub struct Env {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub state_fs: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
}

impl Env {
    /// Describe this machine and build; `state_root` must exist.
    pub fn collect(state_root: &Path) -> Env {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
            .map_or("unknown", |(_, m)| m.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            kernel,
            state_fs: fs_type(state_root).unwrap_or_else(|| "unknown".into()),
            rustc: env!("SERVEBENCH_RUSTC"),
            profile: env!("SERVEBENCH_PROFILE"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    /// One JSON object; `flush` is the flush policy the run observed.
    pub fn to_json(&self, flush: &str) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"kernel\":{},\"state_fs\":{},\"rustc\":{},\"profile\":{},\"commit\":{},\"flush_policy\":{}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.kernel),
            quote(&self.state_fs),
            quote(self.rustc),
            quote(self.profile),
            quote(&self.commit),
            quote(flush)
        )
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (the longest mount point that prefixes it).
fn fs_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fstype = post.split(' ').next()?;
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
