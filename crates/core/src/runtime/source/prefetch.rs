//! Double-buffered prefetching window: overlap I/O with scanning.
//!
//! [`ReaderSource`] blocks the automaton on every window boundary — the
//! scan thread sits idle for the full latency of each `read`. This source
//! keeps the same residency contract but moves the reads to a dedicated
//! `smpx-io` thread that fills the *next* chunk into a spare buffer while
//! the automaton scans the current one, so refills become a buffer
//! handoff instead of a blocking syscall.
//!
//! # The two-buffer handoff
//!
//! Producer and consumer share a bounded channel of [`SLOTS`] (= 2)
//! recycled chunk buffers guarded by one mutex and two condvars — no
//! busy-wait, no allocation per chunk in steady state:
//!
//! * the `smpx-io` thread parks on `space` until a free buffer exists,
//!   fills it from the wrapped `Read` (retrying `EINTR`, like the sync
//!   path), pushes it onto the `filled` queue and signals `avail`;
//! * the consumer's refill parks on `avail` until a filled buffer exists,
//!   copies it into the free tail of the same [`Window`] the sync reader
//!   reads into, returns the buffer to the `free` list and signals `space`.
//!
//! Output is byte-identical to the sync reader at every chunk size
//! because the runtime is already chunk-invariant: the window contract
//! (ensure/grow/guard + overlap re-scan in `SourceInput::find`) never
//! depends on *where* delivery boundaries fall, only on bytes arriving in
//! order — and the handoff queue preserves order by construction.
//!
//! # Error and shutdown rules
//!
//! A read error is parked in the channel and re-raised by the consumer
//! only after every block read *before* the error has been delivered, so
//! the failure surfaces at the same byte offset — and with the same
//! [`CoreError::Io`] wording — as the sync path. Dropping the source
//! early (the prefilter stops at a final state, a batch is cancelled)
//! sets a `closed` flag, wakes both condvars and joins the thread; the
//! producer re-checks `closed` at every park and before every push, so
//! the join cannot deadlock. The one wait that cannot be interrupted is a
//! producer blocked *inside* `read` on a stalled pipe — drop then waits
//! for that read to return, the standard cost of owning a blocking
//! reader.
//!
//! [`ReaderSource`]: super::ReaderSource

use super::reader::read_full_io;
use super::window::Window;
use super::{DocSource, SourceKind};
use crate::error::CoreError;
use std::collections::VecDeque;
use std::io::Read;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// Buffers in flight between the I/O thread and the consumer. Two is the
/// classic double-buffer: one being scanned-from, one being filled.
const SLOTS: usize = 2;

/// Channel state shared between the consumer and the `smpx-io` thread.
struct Chan {
    /// Blocks read from the stream and their filled lengths, oldest first.
    filled: VecDeque<(Vec<u8>, usize)>,
    /// Recycled buffers the producer may fill; every slot buffer is
    /// `chunk` bytes long for its whole life (zeroed once, at spawn).
    free: Vec<Vec<u8>>,
    /// A read error, delivered after all `filled` blocks drain.
    err: Option<std::io::Error>,
    /// The producer reached end of stream (or stopped on `err`).
    eof: bool,
    /// The consumer is gone; the producer must exit.
    closed: bool,
}

struct Shared {
    chan: Mutex<Chan>,
    /// Signalled when `filled` gains a block (or `eof`/`err`/`closed`).
    avail: Condvar,
    /// Signalled when `free` gains a buffer (or `closed`).
    space: Condvar,
}

/// How the `smpx-io` thread pulls bytes from the underlying stream.
enum Feed<R> {
    /// Any `Read`: one buffer per wakeup with [`read_full_io`] semantics.
    /// Pipes and sockets deliver what they have; blocking for a second
    /// buffer would add latency instead of hiding it.
    Plain(R),
    /// Regular file on 64-bit unix: when both slot buffers are free, one
    /// `readv` fills them in a single syscall (half the syscall count of
    /// the sync reader at small `--chunk-kb`).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Vectored(std::fs::File),
}

impl<R: Read> Feed<R> {
    /// May this feed profitably fill two buffers per wakeup?
    fn wants_pair(&self) -> bool {
        match self {
            Feed::Plain(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Feed::Vectored(_) => true,
        }
    }

    /// Fill `bufs` in order; total bytes written (short only at EOF).
    /// Retries `EINTR` on every path.
    fn fill(&mut self, bufs: &mut [Vec<u8>]) -> std::io::Result<usize> {
        match self {
            Feed::Plain(r) => read_full_io(r, &mut bufs[0]),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Feed::Vectored(f) => match bufs {
                [a] => read_full_io(f, a),
                [a, b] => sys::readv_full(f, a, b),
                _ => unreachable!("SLOTS = 2 bounds the buffer take"),
            },
        }
    }
}

/// A [`DocSource`] window over any `Read` whose refills are prefetched by
/// a dedicated `smpx-io` thread (see the module docs for the handoff
/// protocol). Byte-identical to [`ReaderSource`] at every chunk size;
/// `grow()` is a buffer copy instead of a blocking read.
///
/// `R` is the wrapped reader type; the reader itself moves into the I/O
/// thread at construction.
///
/// [`ReaderSource`]: super::ReaderSource
pub struct PrefetchSource<R> {
    shared: Arc<Shared>,
    io_thread: Option<std::thread::JoinHandle<()>>,
    win: Window,
    _reader: PhantomData<fn() -> R>,
}

impl<R: Read + Send + 'static> PrefetchSource<R> {
    /// Stream `reader` through a prefetched window refilled `chunk` bytes
    /// at a time. Works on anything `Read` — pipes, sockets, stdin; use
    /// [`PrefetchSource::from_file`] for regular files to get the
    /// vectored-read path.
    ///
    /// Tiny chunks (down to a single byte) are honored, same as
    /// [`ReaderSource::new`](super::ReaderSource::new).
    pub fn new(reader: R, chunk: usize) -> Self {
        Self::spawn(Feed::Plain(reader), chunk)
    }
}

impl PrefetchSource<std::fs::File> {
    /// Prefetch a regular file. On 64-bit unix the `smpx-io` thread fills
    /// both slot buffers with one `readv` syscall whenever both are free;
    /// elsewhere this is identical to [`PrefetchSource::new`].
    pub fn from_file(file: std::fs::File, chunk: usize) -> Self {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            Self::spawn(Feed::Vectored(file), chunk)
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            Self::spawn(Feed::Plain(file), chunk)
        }
    }

    /// Open `path` and prefetch it (see [`PrefetchSource::from_file`]).
    pub fn open<P: AsRef<Path>>(path: P, chunk: usize) -> Result<Self, CoreError> {
        Ok(Self::from_file(std::fs::File::open(path.as_ref())?, chunk))
    }
}

impl<R> PrefetchSource<R> {
    fn spawn(feed: Feed<R>, chunk: usize) -> Self
    where
        R: Read + Send + 'static,
    {
        let win = Window::new(chunk);
        let chunk = win.chunk();
        let shared = Arc::new(Shared {
            chan: Mutex::new(Chan {
                filled: VecDeque::with_capacity(SLOTS),
                free: (0..SLOTS).map(|_| vec![0; chunk]).collect(),
                err: None,
                eof: false,
                closed: false,
            }),
            avail: Condvar::new(),
            space: Condvar::new(),
        });
        let io_shared = Arc::clone(&shared);
        let io_thread = std::thread::Builder::new()
            .name("smpx-io".into())
            .spawn(move || io_loop(feed, &io_shared, chunk))
            .expect("spawning the smpx-io thread");
        PrefetchSource { shared, io_thread: Some(io_thread), win, _reader: PhantomData }
    }
}

/// One refill: copy the next prefetched block into the window's free
/// `tail`, where the sync reader blocks in `read`; 0 at end of stream.
fn take_block(shared: &Shared, tail: &mut [u8]) -> Result<usize, CoreError> {
    let mut st = shared.chan.lock().expect("smpx-io thread panicked");
    loop {
        if let Some((block, n)) = st.filled.pop_front() {
            crate::obs::add(crate::obs::CounterId::PrefetchChunks, 1);
            crate::obs::add(crate::obs::CounterId::PrefetchBytes, n as u64);
            tail[..n].copy_from_slice(&block[..n]);
            st.free.push(block);
            shared.space.notify_one();
            return Ok(n);
        }
        // Blocks drain before the error: bytes read ahead of a failure
        // are valid data, so the failure surfaces at the same offset as
        // the sync path.
        if let Some(e) = st.err.take() {
            return Err(CoreError::Io(e));
        }
        if st.eof {
            return Ok(0);
        }
        // The producer has not caught up: this wait is exactly the I/O
        // latency the double buffer failed to hide.
        let wait = crate::obs::enabled().then(std::time::Instant::now);
        st = shared.avail.wait(st).expect("smpx-io thread panicked");
        if let Some(t0) = wait {
            crate::obs::add_nanos(
                crate::obs::CounterId::PrefetchConsumerWaitNanos,
                t0.elapsed().as_nanos(),
            );
        }
    }
}

/// The `smpx-io` producer: park for a free buffer, fill it (or both, on
/// the vectored path), hand it over, repeat until EOF, error or close.
fn io_loop<R: Read>(mut feed: Feed<R>, shared: &Shared, chunk: usize) {
    let pair = feed.wants_pair();
    loop {
        let mut bufs: Vec<Vec<u8>> = {
            let mut st = shared.chan.lock().expect("consumer panicked");
            loop {
                if st.closed {
                    return;
                }
                if !st.free.is_empty() {
                    break;
                }
                // Both buffers are full and unclaimed: the consumer is
                // the bottleneck and the I/O thread idles here.
                let stall = crate::obs::enabled().then(std::time::Instant::now);
                st = shared.space.wait(st).expect("consumer panicked");
                if let Some(t0) = stall {
                    crate::obs::add_nanos(
                        crate::obs::CounterId::PrefetchProducerStallNanos,
                        t0.elapsed().as_nanos(),
                    );
                }
            }
            let take = if pair { st.free.len() } else { 1 };
            st.free.drain(..take).collect()
        };
        let want = chunk * bufs.len();
        let res = feed.fill(&mut bufs);
        let mut st = shared.chan.lock().expect("consumer panicked");
        if st.closed {
            return;
        }
        st.eof = match res {
            Ok(n) => {
                let mut left = n;
                for b in bufs {
                    let len = left.min(chunk);
                    left -= len;
                    if len == 0 {
                        st.free.push(b);
                    } else {
                        st.filled.push_back((b, len));
                    }
                }
                n < want
            }
            Err(e) => {
                // Partial bytes before a failed fill are discarded, same
                // as the sync reader's refill.
                st.err = Some(e);
                true
            }
        };
        let done = st.eof;
        drop(st);
        shared.avail.notify_one();
        if done {
            return;
        }
    }
}

impl<R> Drop for PrefetchSource<R> {
    fn drop(&mut self) {
        {
            let mut st = match self.shared.chan.lock() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.closed = true;
        }
        // Wake the producer wherever it parks; it re-checks `closed` at
        // every park and before every push.
        self.shared.space.notify_all();
        self.shared.avail.notify_all();
        if let Some(h) = self.io_thread.take() {
            let _ = h.join();
        }
    }
}

impl<R> DocSource for PrefetchSource<R> {
    fn base(&self) -> usize {
        self.win.base()
    }

    fn resident(&self) -> &[u8] {
        self.win.resident()
    }

    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
        let shared = &*self.shared;
        self.win.ensure(pos, &mut |tail| take_block(shared, tail))
    }

    fn grow(&mut self) -> Result<bool, CoreError> {
        let shared = &*self.shared;
        self.win.grow(&mut |tail| take_block(shared, tail))
    }

    fn set_guard(&mut self, pos: usize) {
        self.win.set_guard(pos);
    }

    fn len_hint(&self) -> Option<u64> {
        // Like `ReaderSource`: hint-less, so stats initialize the same
        // way as the sync reader.
        None
    }

    fn peak_io_bytes(&self) -> usize {
        // Honest accounting: the window plus BOTH slot buffers — double
        // buffering costs real memory and `Mem` must not hide it.
        self.win.capacity() + SLOTS * self.win.chunk()
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Prefetch
    }
}

/// The self-contained `extern "C"` readv shim. `unsafe` is denied
/// crate-wide and allowed back only here and in the `mmap` shim; every
/// call carries its argument bounds in a comment, in the style of
/// `smpx_stringmatch::memscan`.
#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    /// Matches `struct iovec` on every 64-bit unix this cfg admits
    /// (Linux and the BSD family including macOS): a `void *iov_base`
    /// followed by a `size_t iov_len`.
    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    extern "C" {
        fn readv(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }

    /// Fill `a` then `b` from `f` with as few `readv` syscalls as the
    /// kernel allows — both buffers in one call on the fast path.
    /// Returns total bytes written; short only at EOF. Retries `EINTR`.
    pub(super) fn readv_full(
        f: &std::fs::File,
        a: &mut [u8],
        b: &mut [u8],
    ) -> std::io::Result<usize> {
        let fd = f.as_raw_fd();
        let want = a.len() + b.len();
        let mut total = 0;
        while total < want {
            // Remaining unfilled suffixes of the two buffers.
            let (ra, rb) = if total < a.len() {
                (&mut a[total..], &mut b[..])
            } else {
                (&mut b[total - a.len()..], &mut [][..])
            };
            let iov = [
                IoVec { base: ra.as_mut_ptr() as *mut c_void, len: ra.len() },
                IoVec { base: rb.as_mut_ptr() as *mut c_void, len: rb.len() },
            ];
            let cnt = if rb.is_empty() { 1 } else { 2 };
            // SAFETY: each iovec points into a live &mut [u8] of exactly
            // the stated length (an empty second slice is excluded via
            // `cnt`); the fd is open for reading and outlives the call.
            // The kernel writes at most `ra.len() + rb.len()` bytes.
            let n = unsafe { readv(fd, iov.as_ptr(), cnt) };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            if n == 0 {
                break;
            }
            total += n as usize;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_stays_bounded_by_guard() {
        let doc: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut s = PrefetchSource::new(std::io::Cursor::new(doc.clone()), 16);
        for (pos, &byte) in doc.iter().enumerate() {
            assert!(s.ensure(pos).unwrap());
            assert_eq!(s.resident()[pos - s.base()], byte);
            s.set_guard(pos.saturating_sub(8));
        }
        assert!(!s.ensure(doc.len()).unwrap());
        // Window plus the two slot buffers stays near the chunk size.
        assert!(s.peak_io_bytes() < 512, "peak {}", s.peak_io_bytes());
    }

    #[test]
    fn grow_reports_eof_once_exhausted() {
        let doc = b"abcdef";
        let mut s = PrefetchSource::new(std::io::Cursor::new(doc.to_vec()), 4);
        assert!(s.ensure(0).unwrap());
        while s.grow().unwrap() {}
        assert_eq!(s.resident(), doc);
        assert!(!s.grow().unwrap());
        assert_eq!(s.len_hint(), None);
        assert_eq!(s.kind(), SourceKind::Prefetch);
    }

    #[test]
    fn chunk_zero_is_clamped_like_the_sync_reader() {
        let doc = b"chunk zero must not underflow";
        let mut s = PrefetchSource::new(std::io::Cursor::new(doc.to_vec()), 0);
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            got.push(s.resident()[pos - s.base()]);
            pos += 1;
        }
        assert_eq!(got, doc);
    }

    #[test]
    fn file_path_uses_vectored_reads() {
        let path =
            std::env::temp_dir().join(format!("smpx-prefetch-test-{}.xml", std::process::id()));
        let payload = b"<a><b>vectored</b></a>".repeat(300);
        std::fs::write(&path, &payload).unwrap();
        let mut s = PrefetchSource::open(&path, 64).unwrap();
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            let rel = pos - s.base();
            let w = &s.resident()[rel..];
            got.extend_from_slice(w);
            pos += w.len();
            s.set_guard(pos);
        }
        assert_eq!(got, payload);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peak_reports_both_slot_buffers() {
        let doc = vec![b'x'; 1024];
        let mut s = PrefetchSource::new(std::io::Cursor::new(doc), 128);
        assert!(s.ensure(0).unwrap());
        // At least the window capacity plus 2 × chunk.
        assert!(s.peak_io_bytes() >= 2 * 128, "peak {}", s.peak_io_bytes());
    }

    #[test]
    fn early_drop_joins_without_deadlock() {
        // Consume only the first byte, then drop while the producer is
        // parked with both slots filled. Drop must return (join the
        // thread), not hang.
        let doc = vec![b'y'; 1 << 16];
        let mut s = PrefetchSource::new(std::io::Cursor::new(doc), 64);
        assert!(s.ensure(0).unwrap());
        drop(s);
    }

    #[test]
    fn drop_without_any_read_joins() {
        let doc = vec![b'z'; 4096];
        let s = PrefetchSource::new(std::io::Cursor::new(doc), 64);
        drop(s);
    }

    /// A reader that yields some bytes, then fails with a fixed message.
    struct FailAfter {
        left: usize,
        msg: &'static str,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other(self.msg));
            }
            let n = self.left.min(buf.len());
            buf[..n].fill(b'q');
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn mid_stream_error_surfaces_after_prefix() {
        // 96 = 3 full chunks: like the sync path, a partial fill that
        // ends in an error is discarded, so the readable prefix is the
        // last full chunk boundary before the failure.
        let mut s = PrefetchSource::new(FailAfter { left: 96, msg: "disk on fire" }, 32);
        assert!(s.ensure(95).unwrap());
        // ...then the parked error surfaces with the sync path's wording.
        let err = s.ensure(96).unwrap_err();
        assert!(matches!(&err, CoreError::Io(e) if e.to_string().contains("disk on fire")));
    }
}
