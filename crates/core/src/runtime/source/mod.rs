//! Pluggable document sources: how bytes reach the prefilter.
//!
//! PR 2–3 made the scan path vector-fast; this module makes the *delivery*
//! of bytes pluggable so multi-GB corpora do not pay a memcpy before the
//! skip-scan ever runs. Four backends implement one trait:
//!
//! * [`SliceSource`] — a borrowed `&[u8]` already in memory (zero-copy),
//! * [`MmapSource`] — a file mapped with `mmap`/`madvise(SEQUENTIAL)` on
//!   64-bit unix (zero-copy, pages behind the guard handed back a step at
//!   a time; small files and other platforms take one read into a `Vec`),
//! * [`ReaderSource`] — the paper's chunked window over any `io::Read`
//!   (one bounded copy; works on pipes),
//! * [`PrefetchSource`] — the same window with refills prefetched by a
//!   dedicated `smpx-io` thread (double-buffered handoff; I/O latency
//!   hides behind scan time). Both hold one `Window` (`window.rs`).
//!
//! The runtime algorithm itself is written once against the private
//! [`SourceInput`] adapter, which pairs a [`DocSource`] with an output
//! `Write` sink and owns the copy-range bookkeeping.
//!
//! # The residency contract
//!
//! A source exposes a *resident* contiguous region `[base, base + len)` of
//! the document:
//!
//! * [`DocSource::ensure`] makes an absolute position resident (refilling
//!   or page-faulting as needed) or reports that it is at/past EOF.
//! * Resident bytes are read through [`DocSource::resident`]; any `&mut`
//!   call may refill and *compact* the region, moving [`DocSource::base`],
//!   so slices must be re-requested after such calls.
//! * [`DocSource::set_guard`] raises the discard guard: bytes below it may
//!   be dropped (at the next refill by the readers, as released pages by
//!   a mapping) and must never be requested again. Sources that own or
//!   borrow the whole document ignore it.
//! * [`DocSource::grow`] delivers more bytes if the stream has any left —
//!   a scan that exhausts the resident region calls it (directly or by
//!   probing one byte past the region) to distinguish "window ended" from
//!   EOF.

mod mmap;
mod prefetch;
mod reader;
mod slice;
mod window;

pub use mmap::MmapSource;
pub use prefetch::PrefetchSource;
pub use reader::ReaderSource;
pub use slice::SliceSource;

use super::matchers::StateMatcher;
use crate::error::CoreError;
use smpx_stringmatch::memscan::Blocks;
use smpx_stringmatch::Metrics;
use std::io::Write;

/// Which backend a [`DocSource`] is (for self-describing stats and bench
/// rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Borrowed in-memory slice.
    Slice,
    /// Memory-mapped file (or its read-to-`Vec` fallback).
    Mmap,
    /// Chunked streaming window over an `io::Read`.
    Reader,
    /// Chunked streaming window with refills prefetched by the `smpx-io`
    /// thread.
    Prefetch,
}

impl SourceKind {
    /// Stable lower-case tag (`"slice"` / `"mmap"` / `"reader"` /
    /// `"prefetch"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Slice => "slice",
            SourceKind::Mmap => "mmap",
            SourceKind::Reader => "reader",
            SourceKind::Prefetch => "prefetch",
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A pluggable document-byte delivery backend (see the module docs for the
/// residency contract).
///
/// The trait is object-safe: heterogeneous call sites can drive
/// `Box<dyn DocSource>` (the bench runners do; the CLI matches over an
/// enum of its backends instead, so the per-token calls inline).
pub trait DocSource {
    /// Absolute offset of the first resident byte.
    fn base(&self) -> usize;

    /// The resident bytes `[base(), base() + resident().len())`.
    fn resident(&self) -> &[u8];

    /// Make `pos` resident, refilling as needed. `Ok(false)` means `pos`
    /// is at or past EOF; earlier bytes (from the guard on) stay resident.
    fn ensure(&mut self, pos: usize) -> Result<bool, CoreError>;

    /// Deliver more bytes if the stream has any left (`Ok(false)` at EOF).
    /// Refill-only sources compact below the guard first; fully-resident
    /// sources always return `Ok(false)`.
    fn grow(&mut self) -> Result<bool, CoreError>;

    /// Raise the discard guard: bytes before `pos` may be dropped — at
    /// the next refill, or as pages a mapping hands back. Positions below
    /// the guard must never be requested again. No-op for slices and
    /// owned buffers.
    fn set_guard(&mut self, pos: usize);

    /// Total document length in bytes, when known up front (`None` for
    /// unbounded streams).
    fn len_hint(&self) -> Option<u64>;

    /// Peak bytes of *owned* I/O buffer the source allocated — the
    /// paper's `Mem` window share. The window capacity for
    /// [`ReaderSource`], the whole document for [`MmapSource`]'s
    /// read-to-`Vec` fallback, and zero for borrowed slices and real
    /// mappings (delivering without a copy is the point).
    fn peak_io_bytes(&self) -> usize;

    /// Which backend this is.
    fn kind(&self) -> SourceKind;
}

/// `Box<S>` and `&mut S` deliver what `S` does: the first for
/// heterogeneous call sites, the second for a caller that wants its source
/// back after the run (a run consumes the source it is given).
macro_rules! forward_doc_source {
    ($ptr:ty) => {
        impl<S: DocSource + ?Sized> DocSource for $ptr {
            #[inline]
            fn base(&self) -> usize {
                (**self).base()
            }
            #[inline]
            fn resident(&self) -> &[u8] {
                (**self).resident()
            }
            #[inline]
            fn ensure(&mut self, pos: usize) -> Result<bool, CoreError> {
                (**self).ensure(pos)
            }
            fn grow(&mut self) -> Result<bool, CoreError> {
                (**self).grow()
            }
            #[inline]
            fn set_guard(&mut self, pos: usize) {
                (**self).set_guard(pos)
            }
            fn len_hint(&self) -> Option<u64> {
                (**self).len_hint()
            }
            fn peak_io_bytes(&self) -> usize {
                (**self).peak_io_bytes()
            }
            fn kind(&self) -> SourceKind {
                (**self).kind()
            }
        }
    };
}
forward_doc_source!(Box<S>);
forward_doc_source!(&mut S);

/// The runtime's view of one document: a [`DocSource`] for bytes in, a
/// `Write` sink for projected bytes out, and the copy-range bookkeeping
/// between them.
///
/// The copy-range/discard interplay lives here, not in the sources: before
/// the guard moves past an active copy range ([`advance`](Self::advance)),
/// the still-resident prefix of the range is flushed to the sink and the
/// range start bumped, so a source may drop everything below its guard
/// without ever knowing about copy ranges. The guard is additionally
/// clamped to the unflushed copy start, so unflushed bytes are never
/// discardable.
///
/// Bounded memory needs more than the runtime advancing its cursor once
/// per token: a single search — a state's or the balanced scan's — can
/// cross any distance between two tokens. So [`find`](Self::find) calls
/// `advance` itself, before each refill *and* at every absolute multiple
/// of the release step ([`RELEASE_STEP`](super::RELEASE_STEP)) it
/// crosses. A streamed window then holds a chunk, the look-back and one
/// tag, never a skip; a mapping sees its guard rise at least once per step
/// and can hand the pages behind it back.
///
/// One token step reads the structural masks of one block twice: the
/// search pops its `<` bits, the tag-end scan its `>` and quote bits. The
/// block is cached here for the run ([`Blocks`], keyed by offsets from
/// the resident base and dropped when a refill or compaction moves it).
pub(crate) struct SourceInput<S: DocSource, W: Write> {
    src: S,
    out: W,
    /// Unflushed start of the active copy range.
    copy_from: Option<usize>,
    written: u64,
    /// The release step, a power of two.
    step: usize,
    /// The structural block the last search or tag-end scan read.
    blocks: Blocks,
}

impl<S: DocSource, W: Write> SourceInput<S, W> {
    #[cfg(test)]
    pub fn new(src: S, out: W) -> Self {
        Self::with_step(src, out, super::RELEASE_STEP)
    }

    pub fn with_step(src: S, out: W, step: usize) -> Self {
        SourceInput { src, out, copy_from: None, written: 0, step, blocks: Blocks::new() }
    }

    /// The first absolute multiple of the release step above `pos`: where
    /// a scan that is at `pos` stops to raise the guard.
    #[inline]
    pub fn next_cut(&self, pos: usize) -> usize {
        (pos | (self.step - 1)) + 1
    }

    /// Flush the sink and return it together with the source and the
    /// total bytes written.
    pub fn finish(mut self) -> Result<(S, W, u64), CoreError> {
        self.out.flush()?;
        Ok((self.src, self.out, self.written))
    }

    /// First keyword occurrence at or after absolute position `from`:
    /// `(keyword index, start)`. One matcher search covers the resident
    /// region up to the next step cut — for every source, at the same
    /// absolute positions, so a slice and a mapping of one document count
    /// the same comparisons and shifts — and on a miss re-scans
    /// `longest - 1` overlap bytes, so a match straddling the old end is
    /// not lost. Everything before the next search origin is released
    /// ([`advance`](Self::advance)) before the search goes on or the
    /// region grows, so a skip of any length holds one window, or one step
    /// of mapped pages.
    pub fn find<M: Metrics>(
        &mut self,
        matcher: &StateMatcher,
        from: usize,
        m: &mut M,
    ) -> Result<Option<(usize, usize)>, CoreError> {
        let overlap = matcher.max_len().max(1);
        let mut search_from = from.max(self.src.base());
        loop {
            let base = self.src.base();
            let buf = self.src.resident();
            let end = base + buf.len();
            // A cut leaves the next search a whole step: it lies above
            // the overlap the miss below steps back by.
            let stop = end.min(self.next_cut(search_from + (overlap - 1)));
            if search_from < stop {
                let hay = &buf[..stop - base];
                self.blocks.rebase(base);
                let hit = matcher.find_in(hay, search_from - base, &mut self.blocks, m);
                if let Some((kw, rel_start)) = hit {
                    return Ok(Some((kw, base + rel_start)));
                }
                search_from = stop.saturating_sub(overlap - 1).max(search_from);
            }
            // Nothing at or after `search_from` below `stop` (or an
            // initial jump carried it past the region): release what lies
            // before it, then search on, extending the region when the
            // miss ran to its end.
            self.advance(search_from)?;
            if stop == end && !self.src.grow()? {
                return Ok(None);
            }
        }
    }

    /// Byte at absolute position (`None` at EOF). Probing one byte past a
    /// [`window`](Self::window) view forces the refill that distinguishes
    /// "window ended" from EOF; a resident byte — the one after a keyword
    /// the search just found, as a rule — is read without asking the
    /// source.
    #[inline]
    pub fn byte(&mut self, pos: usize) -> Result<Option<u8>, CoreError> {
        if let Some(&b) = self.src.resident().get(pos.wrapping_sub(self.src.base())) {
            return Ok(Some(b));
        }
        if !self.src.ensure(pos)? {
            return Ok(None);
        }
        Ok(Some(self.src.resident()[pos - self.src.base()]))
    }

    /// The end of the tag whose name ends at absolute `pos`, from the
    /// structural masks of the resident bytes ([`Blocks::tag_end`]),
    /// starting with the block the search left cached:
    /// `Some((end, bachelor))`, or `None` when the tag runs past the
    /// resident region and the walk has to go on over refilled windows.
    #[inline]
    pub fn tag_end_masked(&mut self, pos: usize) -> Option<(usize, bool)> {
        let base = self.src.base();
        self.blocks.rebase(base);
        let (end, bachelor) = self.blocks.tag_end(self.src.resident(), pos - base)?;
        Some((base + end, bachelor))
    }

    /// Contiguous view of the resident bytes starting at absolute `pos`,
    /// for windowed vector scans. `Ok(None)` means `pos` is at/past EOF —
    /// never an empty slice. The slice is invalidated by any subsequent
    /// `&mut self` call (a refill may compact the region and move its
    /// base); callers re-request after such calls. `pos` must not precede
    /// the discard guard set by [`advance`](Self::advance).
    pub fn window(&mut self, pos: usize) -> Result<Option<&[u8]>, CoreError> {
        if !self.src.ensure(pos)? {
            return Ok(None);
        }
        debug_assert!(pos >= self.src.base(), "window request before the discard guard");
        let w = &self.src.resident()[pos - self.src.base()..];
        debug_assert!(!w.is_empty(), "ensure() admitted an EOF position");
        Ok(Some(w))
    }

    /// Does `pat` occur at absolute position `pos`? Counts comparisons.
    pub fn matches_at<M: Metrics>(
        &mut self,
        pos: usize,
        pat: &[u8],
        m: &mut M,
    ) -> Result<bool, CoreError> {
        for (i, &b) in pat.iter().enumerate() {
            match self.byte(pos + i)? {
                Some(c) => {
                    m.cmp(1);
                    if c != b {
                        return Ok(false);
                    }
                }
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Start a raw-copy range at absolute position `start`.
    pub fn copy_on(&mut self, start: usize) {
        if self.copy_from.is_none() {
            self.copy_from = Some(start);
        }
    }

    /// Is a raw-copy range active?
    pub fn copy_active(&self) -> bool {
        self.copy_from.is_some()
    }

    /// End the raw-copy range, emitting everything up to `end` (exclusive).
    pub fn copy_off(&mut self, end: usize) -> Result<(), CoreError> {
        if let Some(cf) = self.copy_from.take() {
            if cf < end {
                // Everything in [cf, end) is still resident: the guard is
                // clamped to the unflushed copy start and only moves with
                // the cursor, which never passes the scan point.
                let base = self.src.base();
                let buf = self.src.resident();
                let a = cf.max(base) - base;
                let b = (end - base).min(buf.len());
                if a < b {
                    self.out.write_all(&buf[a..b])?;
                    self.written += (b - a) as u64;
                }
            }
        }
        Ok(())
    }

    /// Emit the raw input range `[a, b)` (a just-scanned tag, guaranteed
    /// to still be resident).
    pub fn emit_range(&mut self, a: usize, b: usize) -> Result<(), CoreError> {
        debug_assert!(a >= self.src.base(), "emit_range before the resident region");
        let base = self.src.base();
        let buf = self.src.resident();
        let ra = a - base;
        let rb = (b - base).min(buf.len());
        if ra < rb {
            self.out.write_all(&buf[ra..rb])?;
            self.written += (rb - ra) as u64;
        }
        Ok(())
    }

    /// Emit constructed bytes.
    pub fn emit_bytes(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        self.out.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// The cursor has moved past `pos`: flush the resident prefix of an
    /// active copy range up to `pos`, then raise the source's discard
    /// guard (clamped so unflushed copy bytes stay resident).
    pub fn advance(&mut self, pos: usize) -> Result<(), CoreError> {
        if let Some(cf) = self.copy_from {
            if cf < pos {
                let base = self.src.base();
                debug_assert!(cf >= base, "copy range start was discarded");
                let buf = self.src.resident();
                let a = cf - base;
                let b = (pos - base).min(buf.len());
                if a < b {
                    self.out.write_all(&buf[a..b])?;
                    self.written += (b - a) as u64;
                    self.copy_from = Some(base + b);
                }
            }
        }
        let guard = match self.copy_from {
            Some(cf) => pos.min(cf),
            None => pos,
        };
        self.src.set_guard(guard);
        Ok(())
    }

    /// Total bytes emitted.
    pub fn emitted(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpx_stringmatch::memscan::TagUniverse;
    use smpx_stringmatch::NoMetrics;

    /// The matcher of one keyword, in the current mode.
    fn one_keyword(pat: &[u8]) -> StateMatcher {
        StateMatcher::build(&[pat], &TagUniverse::default())
    }

    fn slice_input(doc: &[u8]) -> SourceInput<SliceSource<'_>, Vec<u8>> {
        SourceInput::new(SliceSource::new(doc), Vec::new())
    }

    fn reader_input(doc: &[u8], chunk: usize) -> SourceInput<ReaderSource<&[u8]>, Vec<u8>> {
        SourceInput::new(ReaderSource::new(doc, chunk), Vec::new())
    }

    #[test]
    fn slice_find_and_emit() {
        let doc = b"xx<item>yy</item>";
        let mut s = slice_input(doc);
        let hit = s.find(&one_keyword(b"<item"), 0, &mut NoMetrics).unwrap();
        assert_eq!(hit, Some((0, 2)));
        s.emit_range(2, 8).unwrap();
        s.emit_bytes(b"!").unwrap();
        assert_eq!(s.emitted(), 7);
        let (_, out, written) = s.finish().unwrap();
        assert_eq!(written, 7);
        assert_eq!(out, b"<item>!".to_vec());
    }

    #[test]
    fn slice_copy_range() {
        let doc = b"ab<k>x</k>cd";
        let mut s = slice_input(doc);
        s.copy_on(2);
        assert!(s.copy_active());
        s.copy_off(10).unwrap();
        assert!(!s.copy_active());
        let (_, out, _) = s.finish().unwrap();
        assert_eq!(out, b"<k>x</k>".to_vec());
    }

    #[test]
    fn reader_find_across_chunk_boundaries() {
        // Chunk size 8 forces the keyword to straddle a refill.
        let doc = b"0123456<item attr='1'>xyz";
        let mut s = reader_input(doc, 8);
        let hit = s.find(&one_keyword(b"<item"), 0, &mut NoMetrics).unwrap();
        assert_eq!(hit, Some((0, 7)));
    }

    #[test]
    fn reader_byte_and_eof() {
        let doc = b"abc";
        let mut s = reader_input(doc, 2);
        assert_eq!(s.byte(0).unwrap(), Some(b'a'));
        assert_eq!(s.byte(2).unwrap(), Some(b'c'));
        assert_eq!(s.byte(3).unwrap(), None);
        assert_eq!(s.byte(100).unwrap(), None);
    }

    #[test]
    fn reader_copy_range_flushes_incrementally() {
        // Copy range longer than the window: bytes must flush as the
        // guard advances, keeping the resident region bounded.
        let body = "y".repeat(100);
        let doc = format!("<k>{body}</k>");
        let mut s = reader_input(doc.as_bytes(), 16);
        s.copy_on(0);
        // Walk a cursor through the document as the runtime would.
        for pos in 0..doc.len() {
            s.advance(pos.saturating_sub(8)).unwrap();
            let _ = s.byte(pos).unwrap();
        }
        s.copy_off(doc.len()).unwrap();
        let (src, out, written) = s.finish().unwrap();
        assert_eq!(written as usize, doc.len());
        assert_eq!(out, doc.as_bytes());
        // The window never had to hold the whole copy range.
        assert!(src.peak_io_bytes() < doc.len());
    }

    #[test]
    fn reader_copy_range_flushes_incrementally_under_find() {
        // The `find`-driven twin: a copy range of ten windows with no
        // token inside. The search itself must flush and release what it
        // has passed — no cursor walks the range for it.
        let body = "y".repeat(160);
        let doc = format!("<k>{body}</k>");
        let mut s = reader_input(doc.as_bytes(), 16);
        s.copy_on(0);
        let hit = s.find(&one_keyword(b"</k"), 3, &mut NoMetrics).unwrap();
        assert_eq!(hit, Some((0, 163)));
        assert!(s.emitted() >= 140, "flushed {} before the range closed", s.emitted());
        assert_eq!(s.byte(doc.len() - 1).unwrap(), Some(b'>'));
        s.copy_off(doc.len()).unwrap();
        let (src, out, written) = s.finish().unwrap();
        assert_eq!(written as usize, doc.len());
        assert_eq!(out, doc.as_bytes());
        // Two chunks: the window never grew.
        assert_eq!(src.peak_io_bytes(), 32);
    }

    #[test]
    fn slice_window_views_rest_of_document() {
        let doc = b"<a><b>x</b></a>";
        let mut s = slice_input(doc);
        assert_eq!(s.window(0).unwrap(), Some(&doc[..]));
        assert_eq!(s.window(4).unwrap(), Some(&doc[4..]));
        assert_eq!(s.window(doc.len()).unwrap(), None);
        assert_eq!(s.window(doc.len() + 5).unwrap(), None);
    }

    #[test]
    fn reader_window_advances_with_refills() {
        let doc = b"0123456789abcdef";
        let mut s = reader_input(doc, 4);
        // First request makes the position resident; the view ends at the
        // current chunk window, not at EOF.
        let w0 = s.window(0).unwrap().unwrap().to_vec();
        assert!(w0.len() >= 4 && w0.len() <= doc.len());
        assert_eq!(&doc[..w0.len()], &w0[..]);
        // Requesting the old window's end refills and continues.
        let w1 = s.window(w0.len()).unwrap().unwrap().to_vec();
        assert_eq!(&doc[w0.len()..w0.len() + w1.len()], &w1[..]);
        // Past EOF: None, never an empty slice.
        assert_eq!(s.window(doc.len()).unwrap(), None);
        assert_eq!(s.window(100).unwrap(), None);
    }

    #[test]
    fn reader_matches_at_handles_boundaries() {
        let doc = b"abcdefgh<key>";
        let mut s = reader_input(doc, 4);
        assert!(s.matches_at(8, b"<key", &mut NoMetrics).unwrap());
        assert!(!s.matches_at(8, b"<kez", &mut NoMetrics).unwrap());
        assert!(!s.matches_at(11, b"<key", &mut NoMetrics).unwrap());
    }

    #[test]
    fn boxed_source_is_usable() {
        let doc: &'static [u8] = b"xx<item>";
        let boxed: Box<dyn DocSource> = Box::new(SliceSource::new(doc));
        assert_eq!(boxed.kind(), SourceKind::Slice);
        let mut s = SourceInput::new(boxed, Vec::new());
        let hit = s.find(&one_keyword(b"<item"), 0, &mut NoMetrics).unwrap();
        assert_eq!(hit, Some((0, 2)));
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(SourceKind::Slice.to_string(), "slice");
        assert_eq!(SourceKind::Mmap.as_str(), "mmap");
        assert_eq!(SourceKind::Reader.as_str(), "reader");
        assert_eq!(SourceKind::Prefetch.as_str(), "prefetch");
    }
}
