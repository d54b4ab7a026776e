//! The storage abstraction under the persistence layer.
//!
//! [`Storage`] is a tiny flat-namespace file API — append, fsync,
//! directory sync, streaming read, remove, list — which is everything
//! the log in [`crate::wal`] needs: snapshots are log records too, so
//! nothing is ever written except by appending.
//! Two implementations ship:
//!
//! * [`DirStorage`] — one real directory. Appends go through one cached
//!   file handle (the log appends to its head segment only), `sync` is
//!   `fdatasync` on the file, and `sync_dir` is `fsync` on the directory
//!   (so created and removed names survive power loss too).
//! * [`MemStorage`] — an in-memory directory for tests. Each file
//!   tracks a `synced` watermark, and the directory tracks which names
//!   are durable: [`MemStorage::lose_unsynced`] drops bytes past each
//!   watermark and reverts every create and remove made since the last
//!   directory sync — the power-loss model that distinguishes the fsync
//!   policies. A plain process crash (kill -9) loses nothing that was
//!   appended, which is exactly how the deterministic crash suite uses
//!   it.
//!
//! The seeded fault decorator over any `Storage` lives in
//! [`crate::fault::FaultedStorage`].

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use sit_obs::sync::lock_recover;

/// A flat namespace of byte files, with explicit durability points.
///
/// All methods take `&self`; implementations are internally
/// synchronized so appends, commits and collection can do I/O
/// concurrently.
pub trait Storage: Send + Sync {
    /// Append `data` to `name`, creating the file if missing. Appending
    /// an empty slice creates an empty file. Not durable until
    /// [`Storage::sync`], and a created name not until
    /// [`Storage::sync_dir`].
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Make `name`'s current contents durable (not its directory entry).
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Make every create and remove so far durable.
    fn sync_dir(&self) -> io::Result<()>;

    /// Stream the file from its start. `ErrorKind::NotFound` if it does
    /// not exist.
    fn reader(&self, name: &str) -> io::Result<Box<dyn Read + Send>>;

    /// Remove the file; removing a missing file is not an error. Not
    /// durable until [`Storage::sync_dir`].
    fn remove(&self, name: &str) -> io::Result<()>;

    /// All file names, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
}

fn check_name(name: &str) -> io::Result<()> {
    if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid storage name `{name}`"),
        ));
    }
    Ok(())
}

/// Read buffer of [`DirStorage::reader`].
const READ_BUFFER: usize = 64 * 1024;

/// [`Storage`] over one real directory.
pub struct DirStorage {
    root: PathBuf,
    /// The append handle of the last file appended to; replaced when
    /// another name is appended to, dropped by `remove` of its name (a
    /// later append to that name must create a new file, not write to
    /// the unlinked one). The lock is never held across I/O, so one
    /// fsync does not stall an append.
    appender: Mutex<Option<(String, Arc<File>)>>,
}

impl DirStorage {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DirStorage> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DirStorage {
            root,
            appender: Mutex::new(None),
        })
    }

    /// The cached handle, if it is `name`'s.
    fn cached(&self, name: &str) -> Option<Arc<File>> {
        match &*lock_recover(&self.appender) {
            Some((cached, file)) if cached == name => Some(Arc::clone(file)),
            _ => None,
        }
    }
}

impl Storage for DirStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let file = match self.cached(name) {
            Some(file) => file,
            None => {
                let path = self.root.join(name);
                let file = Arc::new(OpenOptions::new().append(true).create(true).open(path)?);
                *lock_recover(&self.appender) = Some((name.to_owned(), Arc::clone(&file)));
                file
            }
        };
        (&*file).write_all(data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        match self.cached(name) {
            Some(file) => file.sync_data(),
            None => File::open(self.root.join(name))?.sync_data(),
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.root)?.sync_all()
    }

    fn reader(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        check_name(name)?;
        let file = File::open(self.root.join(name))?;
        Ok(Box::new(BufReader::with_capacity(READ_BUFFER, file)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        let mut appender = lock_recover(&self.appender);
        if appender.as_ref().is_some_and(|(cached, _)| cached == name) {
            *appender = None;
        }
        drop(appender);
        match std::fs::remove_file(self.root.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }
}

struct MemFile {
    data: Vec<u8>,
    /// Bytes durable so far; appends grow `data` without moving this,
    /// `sync` advances it.
    synced: usize,
}

#[derive(Default)]
struct MemDir {
    files: HashMap<String, MemFile>,
    /// Names whose directory entry is durable.
    durable: HashSet<String>,
    /// Durable files removed since the last directory sync: power loss
    /// brings them back.
    removed: HashMap<String, MemFile>,
}

/// In-memory [`Storage`] with an explicit durability watermark per
/// file and per directory entry — the simulation substrate of the crash
/// suite.
#[derive(Default)]
pub struct MemStorage {
    dir: Mutex<MemDir>,
}

impl MemStorage {
    /// An empty in-memory directory.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Model power loss: every create and remove since the last
    /// directory sync is undone, and every file keeps only its fsynced
    /// prefix. (A plain process crash keeps everything — do not call
    /// this.)
    pub fn lose_unsynced(&self) {
        let mut dir = lock_recover(&self.dir);
        let dir = &mut *dir;
        for (name, file) in dir.removed.drain() {
            dir.files.insert(name, file);
        }
        let durable = &dir.durable;
        dir.files.retain(|name, _| durable.contains(name));
        for file in dir.files.values_mut() {
            file.data.truncate(file.synced);
        }
    }

    /// The whole file. `ErrorKind::NotFound` if it does not exist.
    pub fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        lock_recover(&self.dir)
            .files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()))
    }
}

impl Storage for MemStorage {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let mut dir = lock_recover(&self.dir);
        let file = dir.files.entry(name.to_owned()).or_insert(MemFile {
            data: Vec::new(),
            synced: 0,
        });
        file.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        let mut dir = lock_recover(&self.dir);
        let file = dir
            .files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()))?;
        file.synced = file.data.len();
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        let mut dir = lock_recover(&self.dir);
        dir.durable = dir.files.keys().cloned().collect();
        dir.removed.clear();
        Ok(())
    }

    fn reader(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(io::Cursor::new(self.read(name)?)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        let mut dir = lock_recover(&self.dir);
        if let Some(file) = dir.files.remove(name) {
            if dir.durable.contains(name) && !dir.removed.contains_key(name) {
                dir.removed.insert(name.to_owned(), file);
            }
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = lock_recover(&self.dir).files.keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(storage: &dyn Storage, name: &str) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        storage.reader(name)?.read_to_end(&mut out)?;
        Ok(out)
    }

    fn exercise(storage: &dyn Storage) {
        storage.append("a.log", b"one").unwrap();
        storage.append("a.log", b"two").unwrap();
        storage.sync("a.log").unwrap();
        assert_eq!(read(storage, "a.log").unwrap(), b"onetwo");
        storage.append("b.log", b"other").unwrap();
        storage.sync_dir().unwrap();
        assert_eq!(
            storage.list().unwrap(),
            vec!["a.log".to_owned(), "b.log".to_owned()]
        );
        // Removing the file behind the cached append handle: a later
        // append to the same name must create a new file.
        storage.remove("b.log").unwrap();
        storage.remove("b.log").unwrap(); // idempotent
        assert!(matches!(
            read(storage, "b.log").map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::NotFound
        ));
        assert_eq!(storage.list().unwrap(), vec!["a.log".to_owned()]);
        storage.append("b.log", b"fresh").unwrap();
        assert_eq!(read(storage, "b.log").unwrap(), b"fresh");
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
        m.sync_dir().unwrap();
        m.lose_unsynced();
        assert_eq!(m.read("j").unwrap(), b"durable");
    }

    #[test]
    fn mem_storage_power_loss_reverts_unsynced_creates_and_removes() {
        let m = MemStorage::new();
        m.append("kept", b"k").unwrap();
        m.sync("kept").unwrap();
        m.append("gone", b"g").unwrap();
        m.sync_dir().unwrap();
        // After the directory sync: a fully synced file that was never
        // named durably, and a durable one removed without a sync.
        m.append("fresh", b"f").unwrap();
        m.sync("fresh").unwrap();
        m.remove("gone").unwrap();
        m.lose_unsynced();
        assert_eq!(
            m.list().unwrap(),
            vec!["gone".to_owned(), "kept".to_owned()]
        );
        assert_eq!(m.read("kept").unwrap(), b"k");
        assert_eq!(m.read("gone").unwrap(), b"", "only its synced prefix");

        m.remove("gone").unwrap();
        m.sync_dir().unwrap();
        m.lose_unsynced();
        assert_eq!(m.list().unwrap(), vec!["kept".to_owned()]);
    }

    #[test]
    fn names_are_validated() {
        let m = MemStorage::new();
        for bad in ["", "../x", "a/b"] {
            assert!(m.append(bad, b"x").is_err(), "{bad}");
        }
    }
}
