//! Helpers shared by the `repro` integration tests that rerun a finished
//! checkpoint directory and require it to write nothing.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The mtime every file of a finished directory is set back to before a
/// rerun that must write nothing: any rewrite moves it, even one that
/// writes the same bytes.
fn backdated() -> SystemTime {
    UNIX_EPOCH + Duration::from_secs(1_000_000_000)
}

/// Every entry under `dir`, sorted, with each file's bytes (`None` for
/// a directory).
fn entries_under(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut entries = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("read a directory") {
            let path = entry.expect("read a directory entry").path();
            if path.is_dir() {
                pending.push(path.clone());
                entries.push((path, None));
            } else {
                let bytes = std::fs::read(&path).expect("read a file");
                entries.push((path, Some(bytes)));
            }
        }
    }
    entries.sort();
    entries
}

/// Sets every file under `dir` back to [`backdated`] and returns the
/// tree as [`entries_under`] reads it.
pub fn backdate(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let entries = entries_under(dir);
    for (path, bytes) in &entries {
        if bytes.is_some() {
            File::options()
                .write(true)
                .open(path)
                .and_then(|file| file.set_modified(backdated()))
                .expect("backdate a file");
        }
    }
    entries
}

/// Asserts that nothing under `dir` changed since [`backdate`] returned
/// `before`: no entry added or removed, and no file rewritten.
pub fn assert_untouched(dir: &Path, before: &[(PathBuf, Option<Vec<u8>>)]) {
    let after = entries_under(dir);
    let paths = |entries: &[(PathBuf, Option<Vec<u8>>)]| -> Vec<PathBuf> {
        entries.iter().map(|(path, _)| path.clone()).collect()
    };
    assert_eq!(paths(&after), paths(before), "entries changed");
    for ((path, bytes), (_, old)) in after.iter().zip(before) {
        assert!(bytes == old, "{} has new bytes", path.display());
        if bytes.is_some() {
            let mtime = std::fs::metadata(path).and_then(|meta| meta.modified());
            assert_eq!(
                mtime.ok(),
                Some(backdated()),
                "{} was rewritten",
                path.display()
            );
        }
    }
}
