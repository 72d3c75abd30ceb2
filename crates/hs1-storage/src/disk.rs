//! [`Disk`]: the one seam between a replica's storage and the files it
//! keeps. The journal, the checkpoints and recovery reach files only
//! through it.
//!
//! A disk is the host's file system (the default, what every node runs
//! on) or a disk in memory, which the simulator gives each replica it
//! crashes and restarts. The memory disk keeps every byte written, unsynced
//! ones included, as the host's page cache keeps them across a process
//! crash; an `fsync` on it is a no-op, and the simulator charges nothing
//! for one. It logs no operations, so it cannot lose the bytes a power
//! cut would lose.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A memory disk's files, by path.
type Files = BTreeMap<PathBuf, Vec<u8>>;

/// Where a replica's storage files live. `Disk::default()` is the host's
/// file system; [`Disk::memory`] is an empty disk in memory. A clone is
/// the same disk.
#[derive(Clone, Debug, Default)]
pub struct Disk {
    /// `None` on the host's file system.
    memory: Option<Arc<Mutex<Files>>>,
}

/// An open file, written at its end.
#[derive(Debug)]
pub(crate) enum DiskFile {
    Host(File),
    Memory(Arc<Mutex<Files>>, PathBuf),
}

fn lock(files: &Mutex<Files>) -> MutexGuard<'_, Files> {
    files.lock().expect("memory disk lock")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{} not on the memory disk", path.display()))
}

impl Disk {
    /// An empty disk in memory.
    pub fn memory() -> Disk {
        Disk { memory: Some(Arc::default()) }
    }

    /// A memory disk's files by path, for a fault injector or a test to
    /// list, read and damage; `None` on the host's file system.
    pub fn files(&self) -> Option<MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>>> {
        self.memory.as_deref().map(lock)
    }

    /// Make `dir` and its parents (a memory disk has no directories).
    pub(crate) fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match &self.memory {
            None => fs::create_dir_all(dir),
            Some(_) => Ok(()),
        }
    }

    /// Create `path` empty (truncating it if it exists), open for writing.
    pub(crate) fn create(&self, path: &Path) -> io::Result<DiskFile> {
        match &self.memory {
            None => File::create(path).map(DiskFile::Host),
            Some(m) => {
                lock(m).insert(path.to_path_buf(), Vec::new());
                Ok(DiskFile::Memory(m.clone(), path.to_path_buf()))
            }
        }
    }

    /// Open the existing file `path` for appending.
    pub(crate) fn append(&self, path: &Path) -> io::Result<DiskFile> {
        match &self.memory {
            None => OpenOptions::new().append(true).open(path).map(DiskFile::Host),
            Some(m) if lock(m).contains_key(path) => {
                Ok(DiskFile::Memory(m.clone(), path.to_path_buf()))
            }
            Some(_) => Err(not_found(path)),
        }
    }

    /// Cut `path` to its first `len` bytes, durably.
    pub(crate) fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match &self.memory {
            None => {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(len)?;
                f.sync_data()
            }
            Some(m) => {
                let mut files = lock(m);
                let bytes = files.get_mut(path).ok_or_else(|| not_found(path))?;
                bytes.resize(len as usize, 0);
                Ok(())
            }
        }
    }

    /// The whole of `path`.
    pub(crate) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match &self.memory {
            None => fs::read(path),
            Some(m) => lock(m).get(path).cloned().ok_or_else(|| not_found(path)),
        }
    }

    /// Move `from` to `to`, replacing `to`.
    pub(crate) fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match &self.memory {
            None => fs::rename(from, to),
            Some(m) => {
                let mut files = lock(m);
                let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
                files.insert(to.to_path_buf(), bytes);
                Ok(())
            }
        }
    }

    pub(crate) fn remove(&self, path: &Path) -> io::Result<()> {
        match &self.memory {
            None => fs::remove_file(path),
            Some(m) => lock(m).remove(path).map(drop).ok_or_else(|| not_found(path)),
        }
    }

    /// The files directly in `dir`, sorted by path.
    pub(crate) fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = match &self.memory {
            None => fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?,
            Some(m) => lock(m).keys().filter(|p| p.parent() == Some(dir)).cloned().collect(),
        };
        paths.sort_unstable();
        Ok(paths)
    }

    /// Make the creations and renames in `dir` durable.
    pub(crate) fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match &self.memory {
            None => File::open(dir)?.sync_all(),
            Some(_) => Ok(()),
        }
    }
}

/// A kind of file named by a sequence number:
/// `<prefix><seq, 12 digits><suffix>`. Journal segments and checkpoints
/// are two.
pub(crate) struct Numbered {
    pub(crate) prefix: &'static str,
    pub(crate) suffix: &'static str,
}

impl Numbered {
    /// The file numbered `seq` in `dir`.
    pub(crate) fn path(&self, dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("{}{seq:012}{}", self.prefix, self.suffix))
    }

    /// The files of this kind in `dir` on `disk`, by number, lowest first.
    pub(crate) fn list(&self, disk: &Disk, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for path in disk.list(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let number = name.strip_prefix(self.prefix).and_then(|s| s.strip_suffix(self.suffix));
            if let Some(Ok(seq)) = number.map(str::parse::<u64>) {
                out.push((seq, path));
            }
        }
        out.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(out)
    }
}

impl DiskFile {
    /// Make what was written durable.
    pub(crate) fn sync_data(&self) -> io::Result<()> {
        match self {
            DiskFile::Host(f) => f.sync_data(),
            DiskFile::Memory(..) => Ok(()),
        }
    }
}

impl Write for DiskFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            DiskFile::Host(f) => f.write(buf),
            DiskFile::Memory(m, path) => {
                let mut files = lock(m);
                files
                    .get_mut(path.as_path())
                    .ok_or_else(|| not_found(path))?
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            DiskFile::Host(f) => f.flush(),
            DiskFile::Memory(..) => Ok(()),
        }
    }
}
