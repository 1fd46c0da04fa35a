//! The scratch directory journals live in.
//!
//! The journals fsync every record, so the directory must sit on a real
//! filesystem: on tmpfs `sync_data` is free and the benchmark would measure
//! a durability the container does not have. The filesystem type is read
//! from `/proc/mounts`, printed with the results, and tmpfs/ramfs refused.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// `bench/out`, next to this package: everything a run writes goes here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in bench/")
        .join("out")
}

/// A per-process scratch directory, removed on drop — also when the run
/// fails, since every failure path unwinds or returns through `main`.
pub struct Scratch {
    root: PathBuf,
    /// Filesystem type of the mount holding the directory.
    pub fs_type: String,
}

impl Scratch {
    /// Creates `bench/out/scratch-<pid>`.
    ///
    /// # Errors
    ///
    /// I/O errors, and `Unsupported` when the directory is memory-backed.
    pub fn create() -> io::Result<Scratch> {
        let out = out_dir();
        fs::create_dir_all(&out)?;
        let root = out
            .canonicalize()?
            .join(format!("scratch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir(&root)?;
        // Constructed before the check so a refused directory is removed.
        let mut scratch = Scratch {
            root,
            fs_type: String::new(),
        };
        let mounts = fs::read_to_string("/proc/mounts")?;
        scratch.fs_type = fs_type_of(&mounts, &scratch.root)
            .unwrap_or("unknown")
            .to_string();
        if matches!(scratch.fs_type.as_str(), "tmpfs" | "ramfs") {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "scratch dir {} is on {}: fsync costs nothing there, refusing to measure",
                    scratch.root.display(),
                    scratch.fs_type
                ),
            ));
        }
        Ok(scratch)
    }

    /// Creates (or empties) a named sub-directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Commit the deletion now: freed blocks are discarded when the
        // filesystem journal commits, and that should not land in the
        // timed part of whatever runs next.
        if let Some(parent) = self.root.parent() {
            let _ = fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
}

/// The filesystem type of the mount with the longest mount point that is a
/// path prefix of `path`, from `/proc/mounts` text. Later lines win ties:
/// a later mount on the same point shadows an earlier one.
pub fn fs_type_of<'a>(mounts: &'a str, path: &Path) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split(' ');
        let (Some(_dev), Some(point), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        // Spaces in mount points are written as \040.
        let point = point.replace("\\040", " ");
        if path.starts_with(&point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), fs));
        }
    }
    best.map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTS: &str = "\
/dev/vda / ext4 rw,relatime 0 0
proc /proc proc rw 0 0
tmpfs /dev/shm tmpfs rw 0 0
tmpfs /run tmpfs rw 0 0
/dev/vdb /run/data\\040disk xfs rw 0 0
overlay / overlay rw 0 0
";

    #[test]
    fn longest_mount_point_wins_and_later_lines_shadow() {
        assert_eq!(fs_type_of(MOUNTS, Path::new("/dev/shm/x")), Some("tmpfs"));
        assert_eq!(fs_type_of(MOUNTS, Path::new("/root/repo")), Some("overlay"));
        assert_eq!(
            fs_type_of(MOUNTS, Path::new("/run/data disk/j")),
            Some("xfs")
        );
        // `/runner` is not under the `/run` mount: prefixes are whole
        // path components.
        assert_eq!(fs_type_of(MOUNTS, Path::new("/runner")), Some("overlay"));
        assert_eq!(fs_type_of("", Path::new("/x")), None);
    }
}
