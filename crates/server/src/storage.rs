//! The storage abstraction under the persistence layer.
//!
//! [`Storage`] is a tiny flat-namespace file API — append, fsync,
//! atomic replace, read, remove, list — which is everything the
//! journal/snapshot code in [`crate::persist`] needs. Two
//! implementations ship:
//!
//! * [`DirStorage`] — one real directory. Appends go through cached
//!   file handles, `sync` is `fsync` on the file *and* the directory
//!   (so newly created names survive power loss too), and
//!   `write_atomic` is the classic temp-file + `fsync` + `rename` +
//!   directory-`fsync` sequence.
//! * [`MemStorage`] — an in-memory directory for tests. Each file
//!   tracks a `synced` watermark: bytes past it were accepted but
//!   never fsynced, and [`MemStorage::lose_unsynced`] drops them —
//!   the power-loss model that distinguishes the fsync policies. A
//!   plain process crash (kill -9) loses nothing that was appended,
//!   which is exactly how the deterministic crash suite uses it.
//!
//! The seeded fault decorator over any `Storage` lives in
//! [`crate::fault::FaultedStorage`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use sit_obs::sync::lock_recover;

/// A flat namespace of byte files, with explicit durability points.
///
/// All methods take `&self`; implementations are internally
/// synchronized so the per-session persistence states can do I/O
/// concurrently.
pub trait Storage: Send + Sync {
    /// Append `data` to `name`, creating the file if missing. Appending
    /// an empty slice creates an empty file. Not durable until
    /// [`Storage::sync`].
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Make `name`'s current contents (and its directory entry)
    /// durable.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Atomically replace `name` with `data`: on success the new
    /// contents are durable and readers never observe a partial file.
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Read the whole file. `ErrorKind::NotFound` if it does not exist.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Remove the file; removing a missing file is not an error and
    /// makes nothing durable (there is nothing to sync).
    fn remove(&self, name: &str) -> io::Result<()>;

    /// All file names, sorted.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Drop any resource cached for `name` (an open append handle); the
    /// file itself stays. Called when the file's owner goes away.
    fn release(&self, _name: &str) {}
}

fn check_name(name: &str) -> io::Result<()> {
    if name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..")
        || name.starts_with(TMP_PREFIX)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid storage name `{name}`"),
        ));
    }
    Ok(())
}

const TMP_PREFIX: &str = ".tmp.";

/// [`Storage`] over one real directory.
pub struct DirStorage {
    root: PathBuf,
    /// Cached append handles; invalidated by `write_atomic`/`remove`
    /// (the rename swaps the inode out from under an open descriptor)
    /// and dropped by `release`. The lock is never held across I/O, so
    /// one session's fsync does not stall another's append.
    handles: Mutex<HashMap<String, Arc<File>>>,
}

impl DirStorage {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DirStorage> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DirStorage {
            root,
            handles: Mutex::new(HashMap::new()),
        })
    }

    fn sync_dir(&self) -> io::Result<()> {
        // fsync the directory so creates/renames/removes are durable.
        File::open(&self.root)?.sync_all()
    }
}

impl Storage for DirStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let cached = lock_recover(&self.handles).get(name).cloned();
        let file = match cached {
            Some(file) => file,
            None => {
                let path = self.root.join(name);
                let file = Arc::new(OpenOptions::new().append(true).create(true).open(path)?);
                lock_recover(&self.handles).insert(name.to_owned(), Arc::clone(&file));
                file
            }
        };
        (&*file).write_all(data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        let cached = lock_recover(&self.handles).get(name).cloned();
        match cached {
            Some(file) => file.sync_all()?,
            None => File::open(self.root.join(name))?.sync_all()?,
        }
        self.sync_dir()
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let tmp = self.root.join(format!("{TMP_PREFIX}{name}"));
        let mut file = File::create(&tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.root.join(name))?;
        // The rename replaced the inode; a cached append handle would
        // keep writing to the unlinked old file.
        lock_recover(&self.handles).remove(name);
        self.sync_dir()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        let mut out = Vec::new();
        File::open(self.root.join(name))?.read_to_end(&mut out)?;
        Ok(out)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        lock_recover(&self.handles).remove(name);
        match std::fs::remove_file(self.root.join(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.starts_with(TMP_PREFIX) {
                continue;
            }
            names.push(name);
        }
        names.sort();
        Ok(names)
    }

    fn release(&self, name: &str) {
        lock_recover(&self.handles).remove(name);
    }
}

struct MemFile {
    data: Vec<u8>,
    /// Bytes durable so far; appends grow `data` without moving this,
    /// `sync`/`write_atomic` advance it.
    synced: usize,
}

/// In-memory [`Storage`] with an explicit durability watermark per
/// file — the simulation substrate of the crash suite.
#[derive(Default)]
pub struct MemStorage {
    files: Mutex<HashMap<String, MemFile>>,
}

impl MemStorage {
    /// An empty in-memory directory.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Model power loss: every file keeps only its fsynced prefix.
    /// (A plain process crash keeps everything — do not call this.)
    pub fn lose_unsynced(&self) {
        let mut files = lock_recover(&self.files);
        for file in files.values_mut() {
            file.data.truncate(file.synced);
        }
    }
}

impl Storage for MemStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let mut files = lock_recover(&self.files);
        let file = files.entry(name.to_owned()).or_insert(MemFile {
            data: Vec::new(),
            synced: 0,
        });
        file.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        let mut files = lock_recover(&self.files);
        let file = files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()))?;
        file.synced = file.data.len();
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let mut files = lock_recover(&self.files);
        files.insert(
            name.to_owned(),
            MemFile {
                data: data.to_vec(),
                synced: data.len(),
            },
        );
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        lock_recover(&self.files)
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        lock_recover(&self.files).remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = lock_recover(&self.files).keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn Storage) {
        storage.append("a.journal", b"one").unwrap();
        storage.append("a.journal", b"two").unwrap();
        storage.sync("a.journal").unwrap();
        assert_eq!(storage.read("a.journal").unwrap(), b"onetwo");
        storage.write_atomic("a.snap.1", b"snapshot").unwrap();
        assert_eq!(storage.read("a.snap.1").unwrap(), b"snapshot");
        // Atomic replace of a file that has a live append handle: later
        // appends must land in the *new* file.
        storage.write_atomic("a.journal", b"compacted|").unwrap();
        storage.append("a.journal", b"tail").unwrap();
        assert_eq!(storage.read("a.journal").unwrap(), b"compacted|tail");
        assert_eq!(
            storage.list().unwrap(),
            vec!["a.journal".to_owned(), "a.snap.1".to_owned()]
        );
        storage.remove("a.snap.1").unwrap();
        storage.remove("a.snap.1").unwrap(); // idempotent
        assert!(matches!(
            storage.read("a.snap.1").map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::NotFound
        ));
        assert_eq!(storage.list().unwrap(), vec!["a.journal".to_owned()]);
    }

    #[test]
    fn mem_storage_basics() {
        exercise(&MemStorage::new());
    }

    #[test]
    fn dir_storage_basics() {
        let dir = std::env::temp_dir().join(format!("sit-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&DirStorage::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_storage_power_loss_drops_unsynced_bytes_only() {
        let m = MemStorage::new();
        m.append("j", b"durable").unwrap();
        m.sync("j").unwrap();
        m.append("j", b"-volatile").unwrap();
        m.write_atomic("s", b"atomic-is-durable").unwrap();
        m.lose_unsynced();
        assert_eq!(m.read("j").unwrap(), b"durable");
        assert_eq!(m.read("s").unwrap(), b"atomic-is-durable");
    }

    #[test]
    fn names_are_validated() {
        let m = MemStorage::new();
        for bad in ["", "../x", "a/b", ".tmp.j"] {
            assert!(m.append(bad, b"x").is_err(), "{bad}");
        }
    }
}
