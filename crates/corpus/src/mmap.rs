//! Read-only memory mapping of trace files.
//!
//! A paper-scale detection campaign reads the same 300,000-cycle traces
//! over and over (resume replays, shard reassignment, repeated serve
//! requests). The buffered [`TraceReader`](crate::TraceReader) pays a
//! copy from the page cache into userspace for every pass; a read-only
//! private mapping lets the fold kernels consume sample bytes straight
//! out of the page cache with no copy at all.
//!
//! [`Mmap`] is the std-only platform wrapper:
//!
//! - on unix it issues the raw `mmap(2)`/`munmap(2)` syscalls through
//!   `extern "C"` declarations (libc is already linked by std), mapping
//!   the whole file `PROT_READ` + `MAP_PRIVATE`;
//! - everywhere else it degrades to a buffered [`std::fs::read`], so
//!   callers never need platform `cfg`s — [`Mmap::is_zero_copy`] reports
//!   which path was taken.
//!
//! ## Safety contract
//!
//! All `unsafe` in the workspace sits behind three scoped `allow`s: the
//! `sys` module below, `clockmark-serve`'s `poll::sys` (the `poll(2)` /
//! `RLIMIT_NOFILE` prototypes of the readiness engine), and the one call
//! into the CRC's carry-less-multiply fold after run-time feature
//! detection (`crc32.rs`). The argument for soundness here:
//!
//! - the mapping is `PROT_READ` and `MAP_PRIVATE`: nothing can write
//!   through it, and writes by other processes to the underlying pages
//!   are not observable as tearing of *our* copy-on-write view;
//! - the pointer/length pair returned by a successful `mmap` call is
//!   valid for exactly `len` bytes until `munmap`, which only happens in
//!   `Drop`, so the `&[u8]` handed out by [`Mmap::as_bytes`] (tied to
//!   `&self`) can never outlive the mapping;
//! - `Send`/`Sync` are sound because the mapping is immutable for its
//!   whole lifetime.
//!
//! The one residual hazard of any file mapping — a concurrent in-place
//! truncation of the mapped file raises `SIGBUS` on access — is outside
//! the corpus contract: trace files are written through a temp name and
//! atomically renamed into place, and are never truncated or rewritten
//! in place afterwards (`docs/corpus.md`). Mapping a file some other
//! process shrinks underneath us is as fatal as it would be for any
//! mmap-using program; the corpus itself never does it.

use crate::CorpusError;
use std::fs::File;
use std::path::Path;

#[cfg(unix)]
mod sys {
    //! The raw `mmap`/`munmap` FFI.
    #![allow(unsafe_code)]

    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    // Prototypes from POSIX `<sys/mman.h>`; libc is linked by std. The
    // constants below are identical on every unix std supports.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An owned read-only private mapping of a whole file.
    #[derive(Debug)]
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    impl Map {
        /// Maps `len` bytes of `file` from offset 0.
        ///
        /// A zero-length file is represented without calling `mmap` at
        /// all (POSIX rejects `len == 0` mappings).
        pub(super) fn new(file: &File, len: usize) -> io::Result<Map> {
            if len == 0 {
                return Ok(Map {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: addr = NULL lets the kernel pick the placement; the
            // fd is a live borrowed file descriptor; a PROT_READ +
            // MAP_PRIVATE mapping grants us no mutable aliasing. The
            // result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub(super) fn as_bytes(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` came from a successful mmap of exactly `len`
            // bytes, is unmapped only in Drop, and the mapping is
            // read-only — so the slice is valid, immutable, and cannot
            // outlive the mapping (it borrows `self`).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: exactly the pointer/length pair the kernel
                // handed us; after this the struct is gone, so no slice
                // borrowed from it can be live (lifetimes tie them to
                // `&self`).
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }

    // SAFETY: the mapping is PROT_READ for its whole lifetime — shared
    // immutable state is safe to move between and reference from
    // multiple threads.
    unsafe impl Send for Map {}
    // SAFETY: as above; `&Map` only exposes `&[u8]` reads.
    unsafe impl Sync for Map {}
}

/// The file bytes, zero-copy where the platform allows it.
#[derive(Debug)]
enum Inner {
    /// A live `mmap(2)` mapping (unix only).
    #[cfg(unix)]
    Mapped(sys::Map),
    /// Buffered fallback: the whole file read into memory.
    Buffered(Vec<u8>),
}

/// A whole file as a byte slice — memory-mapped on unix, buffered
/// elsewhere (or when the mapping syscall fails).
///
/// ```no_run
/// # fn main() -> Result<(), clockmark_corpus::CorpusError> {
/// let map = clockmark_corpus::Mmap::open("corpus/traces/chip_i_s42.cmt")?;
/// let (header, watts) = clockmark_corpus::decode_trace(map.as_bytes())?;
/// # let _ = (header, watts);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

impl Mmap {
    /// Opens `path` and maps it read-only, falling back to a buffered
    /// read when mapping is unavailable (non-unix) or refused by the
    /// kernel (e.g. a pseudo-file that cannot be mapped).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] when the file cannot be opened,
    /// statted, or — on the fallback path — read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let file = File::open(path)
            .map_err(|e| CorpusError::io(format!("opening {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| CorpusError::io(format!("stat {}", path.display()), e))?
            .len();
        if len > usize::MAX as u64 {
            return Err(CorpusError::format(format!(
                "{} is {len} bytes; larger than the address space",
                path.display()
            )));
        }
        #[cfg(unix)]
        {
            // An unmappable file (procfs, some network mounts) is not an
            // error; the buffered path below serves it.
            if let Ok(map) = sys::Map::new(&file, len as usize) {
                clockmark_obs::counter_add("corpus.traces_mapped", 1);
                return Ok(Mmap {
                    inner: Inner::Mapped(map),
                });
            }
        }
        drop(file);
        Self::open_buffered(path)
    }

    /// Opens `path` with the buffered path unconditionally — used when
    /// the caller opts out of mapping (`CLOCKMARK_NO_MMAP`).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] when the file cannot be read.
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CorpusError::io(format!("reading {}", path.display()), e))?;
        Ok(Mmap {
            inner: Inner::Buffered(bytes),
        })
    }

    /// The mapped (or buffered) file contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(map) => map.as_bytes(),
            Inner::Buffered(bytes) => bytes,
        }
    }

    /// Length of the file in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// `true` when the bytes come straight from a page-cache mapping,
    /// `false` on the buffered fallback.
    pub fn is_zero_copy(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(_) => true,
            Inner::Buffered(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "cm_mmap_{tag}_{}_{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = File::create(&path).expect("creates");
        f.write_all(contents).expect("writes");
        path
    }

    #[test]
    fn mapped_bytes_match_the_file() {
        let contents: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("match", &contents);
        let map = Mmap::open(&path).expect("maps");
        assert_eq!(map.as_bytes(), &contents[..]);
        assert_eq!(map.len(), contents.len());
        #[cfg(unix)]
        assert!(map.is_zero_copy(), "unix should take the mmap path");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_fallback_matches_too() {
        let contents = b"not much of a trace".to_vec();
        let path = temp_file("buffered", &contents);
        let map = Mmap::open_buffered(&path).expect("reads");
        assert_eq!(map.as_bytes(), &contents[..]);
        assert!(!map.is_zero_copy());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_map_to_empty_slices() {
        let path = temp_file("empty", b"");
        let map = Mmap::open(&path).expect("maps");
        assert!(map.is_empty());
        assert_eq!(map.as_bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_error_cleanly() {
        let err = Mmap::open("/definitely/not/a/real/path.cmt").expect_err("must fail");
        assert!(matches!(err, CorpusError::Io { .. }), "{err}");
    }

    #[test]
    fn mappings_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mmap>();
    }
}
