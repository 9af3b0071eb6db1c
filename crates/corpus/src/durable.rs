//! Durable state: the three write protocols behind every file a corpus,
//! a campaign and a fleet persist, each safe against a kill at any
//! instant (`docs/corpus.md` tables the files): a [`Journal`] of appended
//! lines, [`replace`] through a free name, and [`publish`] by
//! rename-over. Nothing is fsynced. Every mutation goes through one
//! [`Fs`] (reads use `std::fs`), which [`with_fs`] swaps so a test can
//! record them. Errors name the operation and the path.

use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The mutating file-system primitives the protocols are built from, each
/// defaulting to `std::fs` ([`StdFs`]); a test `Fs` overrides them.
pub trait Fs: Send + Sync {
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
    /// Writes `bytes` as the whole content of `path`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }
    /// Creates (or empties) `path` for a streamed write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(File::create(path)?))
    }
    /// Appends `bytes` to `path` in one write, creating the file if absent.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        file.write_all(bytes)
    }
    /// Cuts `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }
    /// Renames `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    /// Removes the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// The real file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Fs for StdFs {}

static INSTALLED: Mutex<Option<Arc<dyn Fs>>> = Mutex::new(None);

fn installed() -> MutexGuard<'static, Option<Arc<dyn Fs>>> {
    INSTALLED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with every durable write of the process going through `fs`,
/// then restores the file system installed before.
pub fn with_fs<R>(fs: Arc<dyn Fs>, f: impl FnOnce() -> R) -> R {
    let previous = installed().replace(fs);
    let result = f();
    *installed() = previous;
    result
}

/// Names what was done to `path` in an error.
fn context<'a>(what: &'a str, path: &'a Path) -> impl FnOnce(io::Error) -> io::Error + 'a {
    move |e| io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Runs one primitive on the installed [`Fs`].
fn step<R>(what: &str, path: &Path, op: impl FnOnce(&dyn Fs) -> io::Result<R>) -> io::Result<R> {
    let fs = installed().clone();
    op(fs.as_deref().unwrap_or(&StdFs)).map_err(context(what, path))
}

/// Removes `path`; a file that is already gone is not an error.
fn remove_if_present(path: &Path) -> io::Result<()> {
    match step("removing", path, |fs| fs.remove(path)) {
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        done => done,
    }
}

/// The name a file is written under before it moves onto `path`.
pub fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Creates a directory and any missing parents.
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    step("creating", path, |fs| fs.create_dir_all(path))
}

/// Publishes `bytes` as `path` by rename-over: write the temp, rename it
/// over `path`. A reader finds the old file or the new one, whole.
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    step("writing", &tmp, |fs| fs.write(&tmp, bytes))?;
    step("renaming onto", path, |fs| fs.rename(&tmp, path))
}

/// [`publish`] of the file that makes a directory a corpus, a campaign or
/// a matrix, refused with [`ErrorKind::AlreadyExists`] when it exists.
pub fn publish_new(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if path.exists() {
        return Err(context("creating", path)(ErrorKind::AlreadyExists.into()));
    }
    publish(path, bytes)
}

/// [`publish`] of what `fill` streams into the temp, buffering its own.
pub fn publish_with<T, E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> Result<T, E>,
) -> Result<T, E> {
    let tmp = temp_path(path);
    let mut file = step("creating", &tmp, |fs| fs.create(&tmp))?;
    let filled = fill(&mut file)?;
    file.flush().map_err(context("writing", &tmp))?;
    drop(file);
    step("renaming onto", path, |fs| fs.rename(&tmp, path))?;
    Ok(filled)
}

/// Replaces `path` with `bytes` through a free name: write the temp,
/// remove the live file, rename the temp onto the free name, which skips
/// the write-back stall of renaming over a live file. A reader can find
/// only the temp, so this suits progress and CRC-checked checkpoints.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    step("writing", &tmp, |fs| fs.write(&tmp, bytes))?;
    remove_if_present(path)?;
    step("renaming onto", path, |fs| fs.rename(&tmp, path))
}

/// Reads a [`replace`]d file: the live one, else the temp.
pub fn read_replaced(path: &Path) -> io::Result<Vec<u8>> {
    fs::read(path).or_else(|_| fs::read(temp_path(path)).map_err(context("reading", path)))
}

/// Removes a [`replace`]d file under both of its names, the temp first.
pub fn remove_replaced(path: &Path) -> io::Result<()> {
    remove_if_present(&temp_path(path))?;
    remove_if_present(path)
}

/// An append-only file of `\n`-terminated lines, shared by the threads
/// that append to it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Whether the torn tail is cut; held across each append.
    cut: Mutex<bool>,
}

impl Journal {
    /// A journal over `path`. Nothing is touched before the first append.
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        let (path, cut) = (path.into(), Mutex::new(false));
        Journal { path, cut }
    }

    /// Appends `line` and its `\n` in one write. The first append cuts
    /// the torn tail a kill mid-append left, so no line joins a fragment.
    pub fn append(&self, line: &str) -> io::Result<()> {
        let path = &self.path;
        let mut cut = self.cut.lock().unwrap_or_else(PoisonError::into_inner);
        if !*cut {
            match read_journal(path) {
                Ok((whole, true)) => {
                    step("cutting", path, |fs| fs.truncate(path, whole.len() as u64))?
                }
                Err(e) if e.kind() != ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            *cut = true;
        }
        let bytes = [line.as_bytes(), b"\n"].concat();
        step("appending to", path, |fs| fs.append(path, &bytes))
    }
}

/// The complete lines of the journal at `path`, through its last `\n`,
/// and whether the torn tail a kill mid-append leaves followed them.
pub fn read_journal(path: &Path) -> io::Result<(String, bool)> {
    let mut bytes = fs::read(path).map_err(context("reading", path))?;
    let whole = bytes.len() - bytes.iter().rev().take_while(|&&b| b != b'\n').count();
    let torn = whole < bytes.len();
    bytes.truncate(whole);
    let text = String::from_utf8(bytes).map_err(|e| io::Error::new(ErrorKind::InvalidData, e));
    Ok((text.map_err(context("reading", path))?, torn))
}
