//! The storage abstraction under the persistence layer.
//!
//! [`Storage`] is a tiny flat-namespace file API — append, fsync,
//! directory sync, atomic replace, read, remove, list — which is
//! everything the log and snapshot code in [`crate::persist`] needs.
//! Two implementations ship:
//!
//! * [`DirStorage`] — one real directory. Appends go through one cached
//!   file handle (the log appends to its head segment only), `sync` is
//!   `fdatasync` on the file, `sync_dir` is `fsync` on the directory
//!   (so created and removed names survive power loss too), and
//!   `write_atomic` is the classic temp-file + `fsync` + `rename` +
//!   directory-`fsync` sequence.
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
/// synchronized so appends, commits and snapshots can do I/O
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

    /// Atomically replace `name` with `data`: on success the new
    /// contents and every directory change so far are durable, and
    /// readers never observe a partial file.
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Read the whole file. `ErrorKind::NotFound` if it does not exist.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Stream the file from its start, for files too large to hold.
    fn reader(&self, name: &str) -> io::Result<Box<dyn Read + Send>>;

    /// Remove the file; removing a missing file is not an error. Not
    /// durable until [`Storage::sync_dir`].
    fn remove(&self, name: &str) -> io::Result<()>;

    /// All file names, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
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

/// Read buffer of [`DirStorage::reader`].
const READ_BUFFER: usize = 64 * 1024;

/// [`Storage`] over one real directory.
pub struct DirStorage {
    root: PathBuf,
    /// The append handle of the last file appended to; replaced when
    /// another name is appended to, dropped by `write_atomic`/`remove`
    /// of its name (the rename swaps the inode out from under an open
    /// descriptor). The lock is never held across I/O, so one fsync
    /// does not stall an append.
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

    fn forget(&self, name: &str) {
        let mut appender = lock_recover(&self.appender);
        if appender.as_ref().is_some_and(|(cached, _)| cached == name) {
            *appender = None;
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
        self.forget(name);
        self.sync_dir()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        let mut out = Vec::new();
        File::open(self.root.join(name))?.read_to_end(&mut out)?;
        Ok(out)
    }

    fn reader(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        check_name(name)?;
        let file = File::open(self.root.join(name))?;
        Ok(Box::new(BufReader::with_capacity(READ_BUFFER, file)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        self.forget(name);
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
}

struct MemFile {
    data: Vec<u8>,
    /// Bytes durable so far; appends grow `data` without moving this,
    /// `sync`/`write_atomic` advance it.
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

impl MemDir {
    fn sync_dir(&mut self) {
        self.durable = self.files.keys().cloned().collect();
        self.removed.clear();
    }
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
        lock_recover(&self.dir).sync_dir();
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        let mut dir = lock_recover(&self.dir);
        dir.files.insert(
            name.to_owned(),
            MemFile {
                data: data.to_vec(),
                synced: data.len(),
            },
        );
        dir.sync_dir();
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        lock_recover(&self.dir)
            .files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()))
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
        let mut streamed = Vec::new();
        storage
            .reader("a.journal")
            .unwrap()
            .read_to_end(&mut streamed)
            .unwrap();
        assert_eq!(streamed, b"compacted|tail");
        storage.sync_dir().unwrap();
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
        for bad in ["", "../x", "a/b", ".tmp.j"] {
            assert!(m.append(bad, b"x").is_err(), "{bad}");
        }
    }
}
