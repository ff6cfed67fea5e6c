//! Memory-mapped document source.
//!
//! On 64-bit unix the file is mapped read-only with `mmap` and advised
//! `MADV_SEQUENTIAL`, so the prefilter reads pages straight from the page
//! cache — no copy into a user buffer ever happens, which is the whole
//! point of the Input-layer refactor: when matching is this cheap,
//! delivery of bytes is the bottleneck. Elsewhere (non-unix, or 32-bit
//! targets where `off_t` widths get platform-specific) the source
//! degrades to reading the file into a `Vec` once — same semantics, one
//! copy.
//!
//! # Constant residency
//!
//! A mapping keeps every page the scan has touched until it is unmapped,
//! so an unmanaged mapped run costs the whole document in RSS. The
//! runtime already tells every source what it is done with:
//! [`DocSource::set_guard`] rises behind the cursor (and behind the
//! unflushed start of an active copy range), and every loop that can
//! cross distance raises it at least once per
//! [`RELEASE_STEP`](crate::runtime::RELEASE_STEP). Once a step of whole
//! pages has accumulated below the guard the mapping hands them back
//! (`madvise(MADV_DONTNEED)`), so a mapped run holds about one step
//! behind the guard and one ahead of it, whatever the document length,
//! the skip distance or the size of a copied subtree:
//!
//! ```text
//! resident mapped bytes <= 2 * step + look-back + longest tag
//! ```
//!
//! The release is advice about *residency*, never about content: the
//! mapping is a read-only private file mapping, so a released page that is
//! read again re-faults the same bytes from the page cache. A guard that
//! is stale or wrong can cost RSS or a page fault; it cannot cost bytes.
//! The address range stays mapped (and [`MmapSource::bytes`] stays the
//! whole document) until the source is dropped.
//!
//! # Small files are read
//!
//! A regular file below one fault-around window of the kernel (64 KiB) is
//! read into a `Vec` instead: `open + read + close` is half of `mmap` +
//! two page faults + `munmap` for an 8 KiB document, and a map/unmap pair
//! per document serialises pool workers on the address space.

use super::{DocSource, SourceKind};
use crate::error::CoreError;
use crate::runtime::{DEFAULT_CHUNK, RELEASE_STEP};
use std::path::Path;

/// Regular files shorter than this are read, not mapped: one fault-around
/// window of the kernel (64 KiB), which is also the streaming window of
/// the reader routes (two chunks) — the owned buffer of this path never
/// exceeds theirs. Probed once at 8, 32, 64 and 128 KiB (CHANGES, PR 19):
/// the read is 2.0x the mapping at 8 KiB and 1.5x at 32; from 64 KiB on it
/// leads by a tenth or two, a gain that no longer pays for a buffer that
/// grows with the file.
const MAP_THRESHOLD: u64 = 2 * DEFAULT_CHUNK as u64;

/// A whole file delivered as one addressable region, memory-mapped when
/// the platform allows it and the file is worth a mapping, with the pages
/// behind the discard guard handed back a step at a time (see the module
/// docs).
///
/// # Caveat: the file must stay put
///
/// Like every `mmap` wrapper, the mapping assumes the underlying file is
/// not truncated while the source is alive (a truncation turns page reads
/// into `SIGBUS`) and treats concurrent writers as undefined content. The
/// CLI and benches map files they own for the duration of a run; callers
/// with adversarial writers should use [`ReaderSource`] instead.
///
/// [`ReaderSource`]: super::ReaderSource
// Without the shim nothing is ever released and the cursors stay put.
#[cfg_attr(not(all(unix, target_pointer_width = "64")), allow(dead_code))]
pub struct MmapSource {
    backing: Backing,
    /// Whole pages below the guard go back once this many have
    /// accumulated; a multiple of the page size.
    step: usize,
    /// Everything below this (page-aligned) offset has been handed back.
    released: usize,
    /// The guard that triggers the next release: `released + step` for a
    /// mapping, never for an owned buffer. The one thing the per-token
    /// `set_guard` looks at.
    release_at: usize,
    /// Largest distance from `released` to the guard, sampled whenever
    /// pages went back, and to the end of the document once the runtime
    /// has reached it.
    peak: usize,
}

enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Map(sys::Map),
    Owned(Vec<u8>),
}

impl MmapSource {
    /// Map `path` read-only (or read it into memory on platforms without
    /// the mmap shim). Non-regular files — FIFOs, process substitutions,
    /// whose metadata length is meaningless — and regular files below
    /// 64 KiB (empty ones included: `mmap(len = 0)` is invalid) are read
    /// into memory instead: same semantics, one copy.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<MmapSource, CoreError> {
        Self::open_inner(path.as_ref(), MAP_THRESHOLD, RELEASE_STEP, Vec::new())
    }

    /// Become [`open`](Self::open)`(path)`, reading a file that is not
    /// worth a mapping into the buffer the last such file left behind: a
    /// batch worker that runs its documents through `&mut` of one source
    /// allocates one buffer, not one per small document. The previous
    /// document's mapping, if it had one, is unmapped first. After an
    /// error the source is an empty document.
    pub fn reopen<P: AsRef<Path>>(&mut self, path: P) -> Result<(), CoreError> {
        let buf = match std::mem::replace(&mut self.backing, Backing::Owned(Vec::new())) {
            Backing::Owned(buf) => buf,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(_) => Vec::new(),
        };
        *self = Self::open_inner(path.as_ref(), MAP_THRESHOLD, RELEASE_STEP, buf)?;
        Ok(())
    }

    /// Map `path` whatever its length (empty and non-regular files still
    /// fall back to a read) and release behind the guard every `step`
    /// bytes, a power of two: what the step-boundary and residency tests
    /// shrink to one page. Not a tuning knob — [`open`](Self::open) is the
    /// one production constructor.
    #[doc(hidden)]
    pub fn map_with_step<P: AsRef<Path>>(path: P, step: usize) -> Result<MmapSource, CoreError> {
        assert!(step.is_power_of_two(), "the release step is a power of two");
        Self::open_inner(path.as_ref(), 1, step, Vec::new())
    }

    /// `buf` is what a file that is read is read into (its contents are
    /// dropped, its capacity kept).
    fn open_inner(
        path: &Path,
        map_from: u64,
        step: usize,
        buf: Vec<u8>,
    ) -> Result<MmapSource, CoreError> {
        let backing = Self::backing(path, map_from, buf)?;
        let (step, release_at) = match &backing {
            // Pages go back whole: a step is at least one of them.
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(map) => (step.max(map.page()), step.max(map.page())),
            Backing::Owned(_) => (step, usize::MAX),
        };
        let src = MmapSource { backing, step, released: 0, release_at, peak: 0 };
        crate::obs::add(crate::obs::CounterId::SourceMmapBytes, src.bytes().len() as u64);
        Ok(src)
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    fn backing(path: &Path, map_from: u64, mut buf: Vec<u8>) -> Result<Backing, CoreError> {
        use std::io::Read as _;
        let mut file = std::fs::File::open(path)?;
        let meta = file.metadata()?;
        buf.clear();
        if !meta.is_file() {
            file.read_to_end(&mut buf)?;
        } else if meta.len() < map_from {
            // One `read` into a buffer sized from the `fstat` above; the
            // `take` answers the end-of-file probe without a syscall.
            buf.reserve_exact(meta.len() as usize);
            file.take(meta.len()).read_to_end(&mut buf)?;
        } else {
            return Ok(Backing::Map(sys::Map::new(&file, meta.len() as usize)?));
        }
        Ok(Backing::Owned(buf))
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn backing(path: &Path, _map_from: u64, mut buf: Vec<u8>) -> Result<Backing, CoreError> {
        use std::io::Read as _;
        buf.clear();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(Backing::Owned(buf))
    }

    /// The full document bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(m) => m.bytes(),
            Backing::Owned(v) => v,
        }
    }

    /// `true` when the document is actually memory-mapped (as opposed to
    /// the read-to-`Vec` path small files and the fallback take).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(_) => true,
            Backing::Owned(_) => false,
        }
    }

    /// The most bytes that lay between the release cursor and the guard,
    /// sampled whenever pages went back and when the runtime ran off the
    /// end of the document ([`DocSource::grow`]): what a mapped run kept
    /// resident behind its guard. One search reaches ahead of the guard
    /// (at most a step, [`RELEASE_STEP`]), and the kernel reads ahead of
    /// that. The read path never releases, so there it is the document
    /// length.
    #[doc(hidden)]
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak
    }

    /// The guard has reached `release_at`: hand back the whole pages below
    /// it. Once per step, so out of line.
    #[cfg(all(unix, target_pointer_width = "64"))]
    #[cold]
    fn release(&mut self, guard: usize) {
        let Backing::Map(map) = &self.backing else { return };
        let guard = guard.min(map.bytes().len());
        self.peak = self.peak.max(guard - self.released);
        // `released` and `step` are page multiples, so a guard at or past
        // `release_at` has at least a step of whole pages below it.
        let floor = guard & !(map.page() - 1);
        if floor >= self.release_at {
            map.release(self.released, floor);
            self.released = floor;
            self.release_at = floor + self.step;
        }
    }
}

impl DocSource for MmapSource {
    fn base(&self) -> usize {
        0
    }

    fn resident(&self) -> &[u8] {
        self.bytes()
    }

    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
        Ok(pos < self.bytes().len())
    }

    /// Never more bytes; the runtime asks once it has searched to the end,
    /// which closes the residency account.
    fn grow(&mut self) -> Result<bool, CoreError> {
        self.peak = self.peak.max(self.bytes().len() - self.released);
        Ok(false)
    }

    /// Hand back the whole pages below `pos` once a step of them has
    /// accumulated. A real mapping only: the read path owns its buffer
    /// until drop (`release_at` is out of reach).
    #[inline]
    fn set_guard(&mut self, pos: usize) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if pos >= self.release_at {
            self.release(pos);
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let _ = pos;
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.bytes().len() as u64)
    }

    fn peak_io_bytes(&self) -> usize {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(_) => 0, // page cache, no owned buffer
            Backing::Owned(v) => v.len(),
        }
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Mmap
    }
}

/// The self-contained `extern "C"` mmap shim. `unsafe` is denied
/// crate-wide and allowed back only here; every call carries its argument
/// in a comment, in the style of `smpx_stringmatch::memscan`.
#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use crate::error::CoreError;
    use std::ffi::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    // Stable across the 64-bit unix targets this cfg admits (Linux and
    // the BSD family including macOS): PROT_READ = 1, MAP_PRIVATE = 2,
    // MADV_SEQUENTIAL = 2, MADV_DONTNEED = 4, MAP_FAILED = (void*)-1.
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MADV_SEQUENTIAL: c_int = 2;
    const MADV_DONTNEED: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            // `off_t` is 64-bit on every target_pointer_width = "64" unix,
            // which is exactly what the enclosing cfg admits.
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn getpagesize() -> c_int;
    }

    /// An owned read-only mapping of `len > 0` bytes.
    pub(super) struct Map {
        ptr: *const u8,
        len: usize,
        /// The system page size, a power of two.
        page: usize,
    }

    impl Map {
        pub(super) fn new(file: &std::fs::File, len: usize) -> Result<Map, CoreError> {
            assert!(len > 0, "zero-length mappings are invalid");
            // SAFETY: addr = null lets the kernel pick the placement; the
            // fd is open for reading and outlives the call (the mapping
            // itself survives the fd per POSIX); len > 0 was asserted.
            // The only failure channel is MAP_FAILED, checked below.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(CoreError::Io(std::io::Error::last_os_error()));
            }
            // SAFETY: [ptr, ptr + len) is exactly the region mmap just
            // returned. madvise is advisory; failure is ignored.
            unsafe {
                let _ = madvise(ptr, len, MADV_SEQUENTIAL);
            }
            // SAFETY: no arguments, no failure channel, no side effect.
            let page = unsafe { getpagesize() } as usize;
            debug_assert!(page.is_power_of_two());
            Ok(Map { ptr: ptr as *const u8, len, page })
        }

        pub(super) fn page(&self) -> usize {
            self.page
        }

        /// Hand the whole pages `[from, to)` of the mapping back to the
        /// kernel.
        pub(super) fn release(&self, from: usize, to: usize) {
            debug_assert!(from.is_multiple_of(self.page) && to.is_multiple_of(self.page));
            // Outside the mapping the advice would reach someone else's
            // pages (and zero them, were they anonymous): checked, once
            // per step.
            assert!(from <= to && to <= self.len, "release outside the mapping");
            // SAFETY: `mmap` returns a page-aligned `ptr` and `from` is a
            // multiple of the page size, so the address is page-aligned
            // (the kernel refuses one that is not); `to <= len`, asserted
            // above, keeps the range inside the mapping, and `to` is a
            // page multiple, so the kernel's rounding of the length up to
            // whole pages adds nothing. The mapping is a read-only
            // private file mapping nobody ever wrote to: MADV_DONTNEED
            // drops page-table entries, not content, and a later read of
            // the range re-faults the same bytes from the page cache —
            // `bytes()` stays valid over the whole mapping. madvise is
            // advisory; failure is ignored (it costs residency only).
            unsafe {
                let _ = madvise(self.ptr.add(from) as *mut c_void, to - from, MADV_DONTNEED);
            }
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: [ptr, ptr + len) stays mapped and readable until
            // Drop runs (munmap is the only unmapping site, and Drop
            // takes &mut self, so no `&[u8]` borrow can outlive it). The
            // bytes are plain file content; see the type-level caveat on
            // concurrent truncation.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: (ptr, len) is the exact pair mmap returned; the
            // region is unmapped exactly once.
            unsafe {
                let _ = munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }

    // SAFETY: the mapping is read-only and the struct owns it exclusively;
    // sending it to another thread moves that exclusive ownership.
    unsafe impl Send for Map {}
    // SAFETY: shared access only ever reads the immutable mapping.
    unsafe impl Sync for Map {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smpx-mmap-test-{}-{}.bin", std::process::id(), tag))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload = b"<a><b>mapped</b></a>".repeat(5000);
        assert!(payload.len() as u64 >= MAP_THRESHOLD);
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let mut src = MmapSource::open(&path).unwrap();
        assert_eq!(src.bytes(), &payload[..]);
        assert_eq!(src.len_hint(), Some(payload.len() as u64));
        assert_eq!(src.kind(), SourceKind::Mmap);
        assert!(src.ensure(payload.len() - 1).unwrap());
        assert!(!src.ensure(payload.len()).unwrap());
        assert!(!src.grow().unwrap());
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(src.is_mapped());
            assert_eq!(src.peak_io_bytes(), 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_file_is_read_not_mapped() {
        let path = temp_path("small");
        let payload = b"<a><b>read</b></a>".repeat(556);
        assert!(payload.len() > 10_000 && (payload.len() as u64) < MAP_THRESHOLD);
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let mut src = MmapSource::open(&path).unwrap();
        assert!(!src.is_mapped());
        assert_eq!(src.bytes(), &payload[..]);
        assert_eq!(src.len_hint(), Some(payload.len() as u64));
        assert_eq!(src.peak_io_bytes(), payload.len());
        assert!(src.ensure(payload.len() - 1).unwrap());
        assert!(!src.ensure(payload.len()).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_is_open_and_small_files_share_one_buffer() {
        let write = |tag: &str, payload: &[u8]| {
            let path = temp_path(tag);
            std::fs::File::create(&path).unwrap().write_all(payload).unwrap();
            path
        };
        let small_a = b"<a><b>first</b></a>".repeat(400);
        let small_b = b"<a><b>2nd</b></a>".repeat(100);
        let large = b"<a><b>mapped</b></a>".repeat(5000);
        let paths = [write("re-a", &small_a), write("re-b", &small_b), write("re-large", &large)];
        let mut src = MmapSource::open(&paths[0]).unwrap();
        let buffer = src.bytes().as_ptr();
        src.reopen(&paths[1]).unwrap();
        assert_eq!(src.bytes(), &small_b[..]);
        assert_eq!(src.bytes().as_ptr(), buffer, "the shorter file fits the kept buffer");
        assert_eq!(
            (src.len_hint(), src.peak_io_bytes()),
            (Some(small_b.len() as u64), small_b.len())
        );
        src.reopen(&paths[2]).unwrap();
        assert_eq!(src.bytes(), &large[..]);
        assert_eq!(src.is_mapped(), cfg!(all(unix, target_pointer_width = "64")));
        src.reopen(&paths[0]).unwrap();
        assert_eq!(src.bytes(), &small_a[..]);
        assert!(!src.is_mapped());
        assert!(matches!(src.reopen(temp_path("re-missing")), Err(CoreError::Io(_))));
        assert_eq!(src.bytes(), b"");
        paths.iter().for_each(|p| drop(std::fs::remove_file(p)));
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn released_pages_read_back_the_same_bytes() {
        // The guard runs to the end of a mapping of many one-page steps,
        // then the whole document is read again: a release costs a fault,
        // never content.
        let path = temp_path("released");
        let payload: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let mut src = MmapSource::map_with_step(&path, 4096).unwrap();
        assert!(src.is_mapped());
        for pos in (0..payload.len()).step_by(1000) {
            assert!(src.ensure(pos).unwrap());
            src.set_guard(pos);
        }
        // Loose enough for 64 KiB pages: the release is in whole pages.
        assert!(src.released > payload.len() - (128 << 10), "released {}", src.released);
        assert!(src.peak_resident_bytes() <= 128 << 10, "{}", src.peak_resident_bytes());
        // A stale guard (below the release cursor) is a no-op.
        src.set_guard(0);
        assert_eq!(src.bytes(), &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_empty_source() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let mut src = MmapSource::open(&path).unwrap();
        assert_eq!(src.bytes(), b"");
        assert!(!src.ensure(0).unwrap());
        assert!(!src.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match MmapSource::open(temp_path("does-not-exist")) {
            Err(CoreError::Io(_)) => {}
            Err(e) => panic!("expected an I/O error, got {e}"),
            Ok(_) => panic!("opening a missing file must fail"),
        }
    }
}
