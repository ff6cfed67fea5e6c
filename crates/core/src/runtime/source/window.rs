//! The streamed window shared by [`ReaderSource`](super::ReaderSource) and
//! [`PrefetchSource`](super::PrefetchSource).

use crate::error::CoreError;

/// What refills a [`Window`]: puts the next stream bytes at the front of
/// the `chunk`-byte slice it is given and returns how many; fewer than
/// `chunk` ends the stream.
pub(super) type Fill<'a> = dyn FnMut(&mut [u8]) -> Result<usize, CoreError> + 'a;

/// The paper's "pre-allocated buffer … in fixed-size chunks" (Sec. V): one
/// allocation, each byte zeroed once (when a fill first reaches it), whose
/// live bytes `buf[start..end]` are the stream's `[base, base + end - start)`.
///
/// A refill drops what lies below the discard guard by moving `start`,
/// compacts only when fewer than `chunk` bytes are free behind `end`, and
/// hands that free tail to the caller's `fill` (a `read`, or the copy of a
/// prefetched block): no refill zero-fills or shifts the buffer. It grows
/// only when one live span leaves no room for a chunk even when compacted,
/// and then to twice that span, so the capacity is at most twice the
/// longest span the runtime kept live across a refill.
pub(super) struct Window {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Absolute offset of `buf[start]`.
    base: usize,
    /// Bytes before `guard` may be discarded.
    guard: usize,
    chunk: usize,
    eof: bool,
}

impl Window {
    /// A window refilled `chunk` bytes at a time, down to a single byte
    /// (zero is clamped to one): the differential suites sweep 1/2/lane±1.
    pub fn new(chunk: usize) -> Self {
        let chunk = chunk.max(1);
        let buf = Vec::with_capacity(2 * chunk);
        Window { buf, start: 0, end: 0, base: 0, guard: 0, chunk, eof: false }
    }

    /// Back to the start of a new stream, keeping the allocation and how
    /// much of it has been zeroed: the next document's fills touch no
    /// fresh page and zero nothing again.
    pub fn reset(&mut self) {
        (self.start, self.end, self.base, self.guard, self.eof) = (0, 0, 0, 0, false);
    }

    pub fn chunk(&self) -> usize {
        self.chunk
    }

    pub fn base(&self) -> usize {
        self.base
    }

    pub fn resident(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    pub fn set_guard(&mut self, pos: usize) {
        self.guard = self.guard.max(pos);
    }

    /// Bytes allocated; the buffer never shrinks, so this is also the peak.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// [`DocSource::ensure`](super::DocSource::ensure): refill through
    /// `fill` until `pos` is resident or the stream ends.
    pub fn ensure(&mut self, pos: usize, fill: &mut Fill<'_>) -> Result<bool, CoreError> {
        while pos >= self.base + (self.end - self.start) {
            if !self.grow(fill)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// [`DocSource::grow`](super::DocSource::grow): one refill.
    pub fn grow(&mut self, fill: &mut Fill<'_>) -> Result<bool, CoreError> {
        if self.eof {
            return Ok(false);
        }
        let drop = self.guard.saturating_sub(self.base).min(self.end - self.start);
        self.start += drop;
        self.base += drop;
        if self.buf.capacity() - self.end < self.chunk {
            let live = self.end - self.start;
            if live + self.chunk > self.buf.capacity() {
                // The capacity is at least `2 * chunk`, so `live > chunk`
                // and twice the span has room for it and one more chunk.
                let mut grown = Vec::with_capacity(2 * live);
                grown.extend_from_slice(&self.buf[self.start..self.end]);
                self.buf = grown;
            } else {
                self.buf.copy_within(self.start..self.end, 0);
            }
            self.start = 0;
            self.end = live;
        }
        // Zero-fill only what no earlier fill has reached: a document
        // shorter than a chunk never touches the second half.
        if self.buf.len() < self.end + self.chunk {
            self.buf.resize(self.end + self.chunk, 0);
        }
        let n = fill(&mut self.buf[self.end..self.end + self.chunk])?;
        self.end += n;
        self.eof = n < self.chunk;
        Ok(n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serve `doc` in `chunk`-sized fills, as a reader would.
    fn feed<'a>(
        doc: &'a [u8],
        at: &'a mut usize,
    ) -> impl FnMut(&mut [u8]) -> Result<usize, CoreError> + 'a {
        move |tail| {
            let n = tail.len().min(doc.len() - *at);
            tail[..n].copy_from_slice(&doc[*at..*at + n]);
            *at += n;
            Ok(n)
        }
    }

    #[test]
    fn guarded_window_never_grows_and_delivers_every_byte() {
        let doc: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let (mut w, mut at) = (Window::new(16), 0);
        for (pos, &byte) in doc.iter().enumerate() {
            assert!(w.ensure(pos, &mut feed(&doc, &mut at)).unwrap());
            assert_eq!(w.resident()[pos - w.base()], byte);
            w.set_guard(pos.saturating_sub(8));
        }
        assert!(!w.ensure(doc.len(), &mut feed(&doc, &mut at)).unwrap());
        assert_eq!(w.capacity(), 32);
    }

    #[test]
    fn a_reset_window_serves_the_next_stream_from_the_same_buffer() {
        let docs: [Vec<u8>; 3] = [
            (0..=255u8).cycle().take(500).collect(),
            (7..=200u8).cycle().take(33).collect(),
            (0..=255u8).rev().cycle().take(900).collect(),
        ];
        let mut w = Window::new(16);
        for doc in &docs {
            let mut at = 0;
            for (pos, &byte) in doc.iter().enumerate() {
                assert!(w.ensure(pos, &mut feed(doc, &mut at)).unwrap());
                assert_eq!(w.base() + w.resident().len(), at);
                assert_eq!(w.resident()[pos - w.base()], byte);
                w.set_guard(pos.saturating_sub(8));
            }
            assert!(!w.ensure(doc.len(), &mut feed(doc, &mut at)).unwrap());
            assert_eq!(w.capacity(), 32);
            w.reset();
            assert_eq!((w.base(), w.resident().len()), (0, 0));
        }
    }

    #[test]
    fn a_live_span_longer_than_the_window_doubles_it_and_keeps_its_bytes() {
        let doc: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let (mut w, mut at) = (Window::new(16), 0);
        // Nothing is released: the whole prefix is one live span.
        assert!(w.ensure(399, &mut feed(&doc, &mut at)).unwrap());
        assert_eq!(w.base(), 0);
        assert_eq!(w.resident(), &doc[..w.resident().len()]);
        assert!(w.resident().len() >= 400 && w.capacity() <= 2 * 400);
        // Released again, the window keeps its size and the stream goes on.
        let cap = w.capacity();
        for pos in 400..1000 {
            w.set_guard(pos - 10);
            assert!(w.ensure(pos, &mut feed(&doc, &mut at)).unwrap());
            assert_eq!(w.resident()[pos - w.base()], doc[pos]);
        }
        assert_eq!(w.capacity(), cap);
    }
}
