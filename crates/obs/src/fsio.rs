//! Atomic file writes for JSON sidecars (diagnostics, traces, benchmarks).

use std::io::Write;
use std::path::Path;

/// Write `contents` to `path` atomically: the bytes go to a uniquely named
/// temporary file in the same directory, which is then renamed over the
/// destination. Readers never observe a partially written file, and a crash
/// mid-write leaves the previous version intact.
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp_name = format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gsched-fsio-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = tmpdir("basic");
        let path = dir.join("out.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn bare_relative_filename_works() {
        let dir = tmpdir("cwd");
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let r = write_atomic("bare.json", b"ok");
        std::env::set_current_dir(prev).unwrap();
        r.unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("bare.json")).unwrap(),
            "ok"
        );
    }

    #[test]
    fn missing_directory_errors_cleanly() {
        let err = write_atomic("/nonexistent-dir-gsched/x.json", b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
