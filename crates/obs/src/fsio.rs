//! Durability helpers for atomic file writes.
//!
//! POSIX `rename(tmp, path)` makes the new name *visible* atomically,
//! but the rename itself is not durable until the parent directory's
//! entry block reaches disk. A crash between the rename and a directory
//! fsync can resurrect the old file — or leave no file at all — after
//! the writer already reported success. Every temp-file+rename (and the
//! first creation of an append-mode file) must therefore fsync the
//! parent directory as well, or the `sync_all` on the file contents
//! promises durability the filesystem never gave.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// fsync the directory containing `path`, making a just-completed
/// rename (or file creation) in it durable.
///
/// A relative path with no parent component syncs `"."`. On non-Unix
/// hosts this is a no-op: directories there cannot be opened for
/// syncing, and NTFS journals the namespace change itself.
pub fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    #[cfg(unix)]
    {
        std::fs::File::open(parent)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = parent;
        Ok(())
    }
}

/// Write `path` atomically and durably, streaming the contents through
/// `write_fn`: the bytes go to a `<name>.<pid>.tmp` sibling through a
/// buffered writer, are flushed and fsync'd, the temp file is renamed
/// over `path`, and the parent directory is fsync'd. A reader never
/// observes a partial file and a crash after return cannot lose the
/// write. On any error the temp file is removed, so a failed write
/// leaves the old file or nothing. The pid keeps concurrent writers in
/// different processes off each other's temp file.
pub fn atomic_write(
    path: &Path,
    write_fn: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no file name"))?;
    let tmp = path.with_file_name(format!(
        "{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_fn(&mut out)?;
        out.flush()?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_only_on_success() {
        let dir = std::env::temp_dir().join(format!("silentcert-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.csv");
        atomic_write(&path, |out| out.write_all(b"old")).unwrap();
        atomic_write(&path, |out| out.write_all(b"# header\n1,2,3\n")).unwrap();

        // Failing sink: half the payload is written, then the sink
        // errors. The previous contents must survive untouched.
        let err = atomic_write(&path, |out| {
            out.write_all(b"# header\ntruncated")?;
            Err(io::Error::other("sink failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "sink failed");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"# header\n1,2,3\n",
            "old file clobbered"
        );

        // Failing sink with no previous file: nothing is created at all.
        let fresh = dir.join("fresh.csv");
        atomic_write(&fresh, |_| Err(io::Error::other("boom"))).unwrap_err();
        assert!(!fresh.exists());
        let missing = dir.join("missing").join("x");
        assert!(atomic_write(&missing, |out| out.write_all(b"x")).is_err());

        // No temp file survives any of the above.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["table.csv"], "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn syncs_existing_parents_and_fails_on_missing_ones() {
        let dir = std::env::temp_dir().join(format!("silentcert-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.txt");
        std::fs::write(&file, "x").unwrap();
        fsync_parent_dir(&file).unwrap();
        // Bare file names sync the working directory.
        fsync_parent_dir(Path::new("bare.txt")).unwrap();
        assert!(fsync_parent_dir(&dir.join("missing").join("y.txt")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
