//! The `caam-ckpt v2` checkpoint container.
//!
//! v1 checkpoints are bare line-oriented payloads: any byte flip or
//! truncation that still parses as text can be *silently restored* into
//! a corrupted learner. v2 wraps the same payload lines in a verifiable
//! envelope:
//!
//! ```text
//! caam-ckpt v2
//! section <name> <line-count> <crc32:08x>
//! <payload lines…>
//! section <name> <line-count> <crc32:08x>
//! <payload lines…>
//! footer <crc32-of-everything-above:08x>
//! ```
//!
//! Each section checksums its own payload bytes (so corruption is
//! localised to a named section in the error), and the footer checksums
//! the whole file (so truncation — including a lost footer — is always
//! detected). The payload lines themselves are unchanged from v1,
//! which is what keeps v1 files loadable: a v2 reader strips the
//! envelope and hands the concatenated sections to the v1 parser.
//!
//! [`atomic_write`] is the companion write path: tmp file + `rename`,
//! so a crash mid-write leaves the previous checkpoint intact and at
//! worst a stale `.tmp` that readers ignore.

use crate::crc32::crc32;
use crate::vfs::{StdVfs, StorageError, Vfs};
use std::fmt;
use std::path::{Path, PathBuf};

/// Header line of the checksummed container.
pub const V2_HEADER: &str = "caam-ckpt v2";

/// Why a v2 container failed to parse or verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// First line is not the v2 header.
    Header { found: String },
    /// The file-level checksum disagrees — truncation or corruption
    /// somewhere the section walk cannot localise.
    Footer { expected: u32, found: u32 },
    /// The footer line is missing or malformed (classic truncation).
    MissingFooter,
    /// A named section's payload failed its checksum.
    SectionCorrupt { name: String, expected: u32, found: u32 },
    /// Structural damage: a line where a section header should be, a
    /// section whose declared line count runs past the footer, …
    Malformed(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Header { found } => {
                write!(f, "container header mismatch: found {found:?}, expected {V2_HEADER:?}")
            }
            ContainerError::Footer { expected, found } => {
                write!(f, "footer checksum mismatch: file says {expected:08x}, computed {found:08x}")
            }
            ContainerError::MissingFooter => write!(f, "missing or malformed footer (truncated?)"),
            ContainerError::SectionCorrupt { name, expected, found } => write!(
                f,
                "section {name:?} checksum mismatch: header says {expected:08x}, computed {found:08x}"
            ),
            ContainerError::Malformed(what) => write!(f, "malformed container: {what}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Serialise named payload sections into a v2 container. Each `body`
/// must be newline-terminated line text (an empty body is allowed).
pub fn write_v2(sections: &[(&str, &str)]) -> String {
    let mut out =
        String::with_capacity(sections.iter().map(|(_, b)| b.len() + 48).sum::<usize>() + 64);
    out.push_str(V2_HEADER);
    out.push('\n');
    for (name, body) in sections {
        debug_assert!(
            body.is_empty() || body.ends_with('\n'),
            "section bodies must be newline-terminated"
        );
        // `body.lines().count()`, as a byte scan.
        let newlines = body.bytes().filter(|&b| b == b'\n').count();
        let lines = newlines + usize::from(!body.is_empty() && !body.ends_with('\n'));
        let crc = crc32(body.as_bytes());
        out.push_str(&format!("section {name} {lines} {crc:08x}\n"));
        out.push_str(body);
    }
    let footer_crc = crc32(out.as_bytes());
    out.push_str(&format!("footer {footer_crc:08x}\n"));
    out
}

/// Parse and fully verify a v2 container, returning `(name, body)`
/// sections in file order. Every defect is a typed [`ContainerError`];
/// this function never panics on arbitrary input.
pub fn parse_v2(text: &str) -> Result<Vec<(String, String)>, ContainerError> {
    // Footer first: it must be the final line and must checksum
    // everything before it, so truncation anywhere is caught before the
    // section walk trusts any counts.
    let trimmed = text.strip_suffix('\n').ok_or(ContainerError::MissingFooter)?;
    let footer_start = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let footer_line = &trimmed[footer_start..];
    let expected = footer_line
        .strip_prefix("footer ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or(ContainerError::MissingFooter)?;
    let found = crc32(&text.as_bytes()[..footer_start]);
    if expected != found {
        return Err(ContainerError::Footer { expected, found });
    }

    let mut lines = text[..footer_start].lines();
    let header = lines.next().unwrap_or("");
    if header != V2_HEADER {
        return Err(ContainerError::Header { found: header.to_string() });
    }
    let mut sections = Vec::new();
    while let Some(line) = lines.next() {
        let rest = line.strip_prefix("section ").ok_or_else(|| {
            ContainerError::Malformed(format!("expected section header, got {line:?}"))
        })?;
        let mut toks = rest.split_whitespace();
        let (name, count, crc_hex) = match (toks.next(), toks.next(), toks.next(), toks.next()) {
            (Some(n), Some(c), Some(h), None) => (n, c, h),
            _ => return Err(ContainerError::Malformed(format!("bad section header {line:?}"))),
        };
        let count: usize = count
            .parse()
            .map_err(|_| ContainerError::Malformed(format!("bad line count in {line:?}")))?;
        let expected = u32::from_str_radix(crc_hex, 16)
            .map_err(|_| ContainerError::Malformed(format!("bad checksum in {line:?}")))?;
        let mut body = String::new();
        for i in 0..count {
            let l = lines.next().ok_or_else(|| {
                ContainerError::Malformed(format!("section {name:?} truncated at line {i}/{count}"))
            })?;
            body.push_str(l);
            body.push('\n');
        }
        let found = crc32(body.as_bytes());
        if found != expected {
            return Err(ContainerError::SectionCorrupt { name: name.to_string(), expected, found });
        }
        sections.push((name.to_string(), body));
    }
    Ok(sections)
}

/// Extract and verify a *single named section* from a v2 container
/// without requiring the rest of the file to be intact.
///
/// This is the selective-restore primitive behind per-broker state
/// repair: a quarantined broker's learned state is rebuilt from the
/// newest good checkpoint's `matcher` section alone, so damage to an
/// unrelated section (or even the footer) of that file does not block
/// the repair. Only the target section's own header and payload
/// checksum must verify; structural damage *before* the section is
/// found still fails typed, and nothing in this path panics on
/// arbitrary input.
pub fn parse_v2_section(text: &str, want: &str) -> Result<String, ContainerError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != V2_HEADER {
        return Err(ContainerError::Header { found: header.to_string() });
    }
    while let Some(line) = lines.next() {
        if line.strip_prefix("footer ").is_some() {
            break;
        }
        let rest = line.strip_prefix("section ").ok_or_else(|| {
            ContainerError::Malformed(format!("expected section header, got {line:?}"))
        })?;
        let mut toks = rest.split_whitespace();
        let (name, count, crc_hex) = match (toks.next(), toks.next(), toks.next(), toks.next()) {
            (Some(n), Some(c), Some(h), None) => (n, c, h),
            _ => return Err(ContainerError::Malformed(format!("bad section header {line:?}"))),
        };
        let count: usize = count
            .parse()
            .map_err(|_| ContainerError::Malformed(format!("bad line count in {line:?}")))?;
        let expected = u32::from_str_radix(crc_hex, 16)
            .map_err(|_| ContainerError::Malformed(format!("bad checksum in {line:?}")))?;
        let mut body = String::new();
        for i in 0..count {
            let l = lines.next().ok_or_else(|| {
                ContainerError::Malformed(format!("section {name:?} truncated at line {i}/{count}"))
            })?;
            body.push_str(l);
            body.push('\n');
        }
        if name != want {
            continue;
        }
        let found = crc32(body.as_bytes());
        if found != expected {
            return Err(ContainerError::SectionCorrupt { name: name.to_string(), expected, found });
        }
        return Ok(body);
    }
    Err(ContainerError::Malformed(format!("section {want:?} not found")))
}

/// Write `bytes` to `path` atomically: write + fsync a sibling
/// `<name>.tmp`, then `rename` over the target. A crash at any point
/// leaves either the old file or the new file, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_with(&StdVfs, path, bytes).map_err(|e| e.to_io())
}

/// [`atomic_write`] on an explicit filesystem, with the typed
/// [`StorageError`] preserved for fault-aware callers.
pub fn atomic_write_with(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = tmp_path(path);
    vfs.write(&tmp, bytes)?;
    vfs.fsync(&tmp)?;
    vfs.rename(&tmp, path)
}

/// The sibling tmp path `atomic_write` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        write_v2(&[
            ("progress", "next-day 2\nelapsed 1.5e0\n"),
            ("matcher", "lacb-days 2\nlacb-capacities 1e1 2e1\n"),
            ("empty", ""),
        ])
    }

    #[test]
    fn roundtrip() {
        let text = sample();
        let sections = parse_v2(&text).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].0, "progress");
        assert_eq!(sections[0].1, "next-day 2\nelapsed 1.5e0\n");
        assert_eq!(sections[2], ("empty".to_string(), String::new()));
    }

    #[test]
    fn every_truncation_is_detected() {
        let text = sample();
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            let t: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            assert!(parse_v2(&t).is_err(), "truncation at line {cut} accepted");
        }
        // Even losing just the final newline is a defect.
        assert!(parse_v2(text.trim_end()).is_err());
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let text = sample();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x01;
            // Non-UTF8 damage can't even reach the parser.
            if let Ok(s) = String::from_utf8(m) {
                assert!(parse_v2(&s).is_err(), "flip at byte {i} accepted");
            }
        }
    }

    #[test]
    fn section_errors_are_localised() {
        let text = sample();
        // Corrupt a payload byte inside the matcher section without
        // touching its header, then re-stamp the footer so the failure
        // is attributed to the section, not the file.
        let poisoned = text.replace("lacb-days 2", "lacb-days 3");
        let footer_start = poisoned.trim_end().rfind('\n').unwrap() + 1;
        let body = &poisoned[..footer_start];
        let restamped = format!("{body}footer {:08x}\n", crc32(body.as_bytes()));
        match parse_v2(&restamped) {
            Err(ContainerError::SectionCorrupt { name, .. }) => assert_eq!(name, "matcher"),
            other => panic!("expected SectionCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn single_section_parse_ignores_unrelated_damage() {
        let text = sample();
        // Vandalise the progress payload (which also invalidates the
        // footer); the matcher section must still extract and verify on
        // its own.
        let poisoned = text.replace("next-day 2", "next-day 9");
        assert!(parse_v2(&poisoned).is_err(), "whole-file parse must reject");
        let body = parse_v2_section(&poisoned, "matcher").unwrap();
        assert_eq!(body, "lacb-days 2\nlacb-capacities 1e1 2e1\n");
    }

    #[test]
    fn single_section_parse_rejects_damage_to_the_target() {
        let text = sample().replace("lacb-days 2", "lacb-days 3");
        match parse_v2_section(&text, "matcher") {
            Err(ContainerError::SectionCorrupt { name, .. }) => assert_eq!(name, "matcher"),
            other => panic!("expected SectionCorrupt, got {other:?}"),
        }
        assert!(matches!(
            parse_v2_section(&sample(), "no-such-section"),
            Err(ContainerError::Malformed(_))
        ));
        assert!(matches!(
            parse_v2_section("not a container\n", "matcher"),
            Err(ContainerError::Header { .. })
        ));
    }

    #[test]
    fn single_section_parse_never_panics_on_arbitrary_damage() {
        let text = sample();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x40;
            if let Ok(s) = String::from_utf8(m) {
                let _ = parse_v2_section(&s, "matcher"); // Ok or Err, never panic
            }
        }
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                let _ = parse_v2_section(&text[..cut], "matcher");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join("caam-container-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.txt");
        atomic_write(&path, b"first version").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "tmp file must not linger");
        std::fs::remove_file(&path).ok();
    }
}
