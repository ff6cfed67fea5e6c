//! Chunked streaming window over any `io::Read`.

use super::window::Window;
use super::{DocSource, SourceKind};
use crate::error::CoreError;
use std::io::Read;

/// The paper's single-pass streaming mode: a [`Window`] refilled by one
/// blocking `read` of a fixed-size chunk ("eight times the system page
/// size" in the prototype, Sec. V) straight into its free tail, so memory
/// stays bounded by the window size.
///
/// This is the one backend that pays a copy per byte — and the one that
/// works on pipes and sockets. Copy-range flushing is *not* its concern:
/// the runtime adapter flushes before it raises the guard, so a refill
/// can drop everything below the guard unconditionally.
pub struct ReaderSource<R: Read> {
    reader: R,
    win: Window,
}

impl<R: Read> ReaderSource<R> {
    /// Stream `reader` through a window refilled `chunk` bytes at a time
    /// (any size down to a single byte).
    pub fn new(reader: R, chunk: usize) -> Self {
        ReaderSource { reader, win: Window::new(chunk) }
    }

    /// Start over on `reader`, a new document, in the window this source
    /// already owns: a batch worker that runs its documents through
    /// `&mut` of one source allocates and zeroes one window, not one per
    /// document. [`peak_io_bytes`](DocSource::peak_io_bytes) stays the
    /// window's capacity, so it covers every document so far.
    pub fn reset(&mut self, reader: R) {
        self.reader = reader;
        self.win.reset();
    }
}

/// One refill: a full chunk, or less at the end of the stream.
fn read_chunk<R: Read>(r: &mut R, tail: &mut [u8]) -> Result<usize, CoreError> {
    let io_span = crate::obs::stage(crate::obs::StageId::IoWait);
    let n = read_full_io(r, tail)?;
    drop(io_span);
    crate::obs::add(crate::obs::CounterId::SourceReadBytes, n as u64);
    Ok(n)
}

/// Fill `buf` from `r`, looping over short reads; short only at EOF.
/// `ErrorKind::Interrupted` (EINTR — a signal landed mid-read) is retried,
/// never surfaced: both the sync refill here and the `smpx-io` prefetch
/// thread route every read through this one function so neither path can
/// regress to treating EINTR as a hard error.
pub(super) fn read_full_io<R: Read>(r: &mut R, mut buf: &mut [u8]) -> std::io::Result<usize> {
    let mut total = 0;
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                buf = &mut std::mem::take(&mut buf)[n..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

impl<R: Read> DocSource for ReaderSource<R> {
    fn base(&self) -> usize {
        self.win.base()
    }

    fn resident(&self) -> &[u8] {
        self.win.resident()
    }

    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
        let r = &mut self.reader;
        self.win.ensure(pos, &mut |tail| read_chunk(r, tail))
    }

    fn grow(&mut self) -> Result<bool, CoreError> {
        let r = &mut self.reader;
        self.win.grow(&mut |tail| read_chunk(r, tail))
    }

    fn set_guard(&mut self, pos: usize) {
        self.win.set_guard(pos);
    }

    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn peak_io_bytes(&self) -> usize {
        self.win.capacity()
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_stays_bounded_by_guard() {
        let doc: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut s = ReaderSource::new(&doc[..], 16);
        for (pos, &byte) in doc.iter().enumerate() {
            assert!(s.ensure(pos).unwrap());
            assert_eq!(s.resident()[pos - s.base()], byte);
            s.set_guard(pos.saturating_sub(8));
        }
        assert!(!s.ensure(doc.len()).unwrap());
        // Guarded discards kept the window near the chunk size, not the
        // document size.
        assert!(s.peak_io_bytes() < 256, "peak {}", s.peak_io_bytes());
    }

    #[test]
    fn reset_streams_the_next_document_through_the_same_window() {
        let docs: [&[u8]; 3] = [b"<a>first document, the long one</a>", b"", b"<b>third</b>"];
        let mut s = ReaderSource::new(docs[0], 8);
        for (i, doc) in docs.iter().enumerate() {
            if i > 0 {
                s.reset(doc);
            }
            let mut got = Vec::new();
            while s.ensure(got.len()).unwrap() {
                got.push(s.resident()[got.len() - s.base()]);
                s.set_guard(got.len().saturating_sub(3));
            }
            assert_eq!(&got, doc);
            assert!(!s.grow().unwrap());
            assert_eq!(s.peak_io_bytes(), 16);
        }
    }

    #[test]
    fn grow_reports_eof_once_exhausted() {
        let doc = b"abcdef";
        let mut s = ReaderSource::new(&doc[..], 4);
        assert!(s.ensure(0).unwrap());
        while s.grow().unwrap() {}
        assert_eq!(s.resident(), doc);
        assert!(!s.grow().unwrap());
        assert_eq!(s.len_hint(), None);
        assert_eq!(s.kind(), SourceKind::Reader);
    }

    /// Counts the `read` calls that reach the wrapped reader.
    struct Counting<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_short_fill_is_eof_and_costs_no_further_read() {
        // `read_full_io` comes back short only after a `read` of 0, so a
        // short fill already is the end of the stream: k full reads and
        // the one that returns 0 for k * chunk bytes; k full reads, the
        // partial one and its 0 for k * chunk + r. Never a refill after.
        for (len, reads) in [(0usize, 1usize), (5, 2), (16, 2), (64, 5), (70, 6)] {
            let doc = vec![b'x'; len];
            let mut s = ReaderSource::new(Counting { inner: &doc[..], reads: 0 }, 16);
            while s.grow().unwrap() {}
            assert!(!s.grow().unwrap());
            assert!(!s.ensure(len).unwrap());
            assert_eq!(s.resident().len(), len);
            assert_eq!(s.reader.reads, reads, "{len} bytes");
        }
    }

    /// A reader that injects `ErrorKind::Interrupted` before every
    /// successful read, the way a signal-heavy process sees EINTR.
    struct Interrupting<R> {
        inner: R,
        interrupt_next: bool,
    }

    impl<R: Read> Read for Interrupting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            self.interrupt_next = true;
            self.inner.read(buf)
        }
    }

    #[test]
    fn eintr_is_retried_not_fatal() {
        let doc = b"<a><b>interrupted but intact</b></a>";
        let interrupting = Interrupting { inner: &doc[..], interrupt_next: true };
        let mut s = ReaderSource::new(interrupting, 4);
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            got.push(s.resident()[pos - s.base()]);
            pos += 1;
        }
        assert_eq!(got, doc);
    }

    #[test]
    fn eintr_is_retried_by_read_full_io() {
        // The shared fill loop (also used by the prefetch I/O thread)
        // must absorb any number of interleaved EINTRs.
        let doc = b"0123456789";
        let mut r = Interrupting { inner: &doc[..], interrupt_next: true };
        let mut buf = [0u8; 10];
        assert_eq!(read_full_io(&mut r, &mut buf).unwrap(), 10);
        assert_eq!(&buf, doc);
    }

    #[test]
    fn chunk_zero_is_clamped_to_one() {
        // Regression: chunk == 0 must behave exactly like chunk == 1
        // (refill in 1-byte steps), not underflow or spin on empty reads.
        let doc = b"chunk zero";
        let mut s = ReaderSource::new(&doc[..], 0);
        let mut got = Vec::new();
        let mut pos = 0;
        while s.ensure(pos).unwrap() {
            got.push(s.resident()[pos - s.base()]);
            pos += 1;
        }
        assert_eq!(got, doc);
        assert!(!s.grow().unwrap());
    }
}
