//! Vectorized byte scanning — the skip-scan substrate of the candidate walk.
//!
//! The paper's searchers win by *skipping* characters, but a scalar shift
//! loop still pays one branch and one bounds check per alignment. This
//! module turns the skip into a hardware scan: [`find_fingerprint`] finds
//! the next *candidate* alignment of a keyword set — one keyword or many:
//! an alignment that holds the set's first byte and some keyword's bytes
//! at two shared offsets, all tested in the vector unit ([`Fingerprint`]).
//! The offsets are fitted to the tags the documents can hold
//! ([`TagUniverse`]), so that what stops the scan is the keywords and
//! little else.
//!
//! [`Blocks`] holds the `<`, `>` and quote bitmasks of one block for the
//! two scans of a token step: the candidate walk's near phase pops the `<`
//! bits, and [`Blocks::tag_end`] — the one vector tag-end walk — pops the
//! `>` and quote bits to the tag's closing `>`, however far it is. Its
//! [`TagScan`] state resumes the walk across streaming-window refills.
//! [`find_byte`] (`memchr`-style) is no part of a run: it stays for the
//! benchmark's scan-ceiling row.
//!
//! Three implementations are provided and selected once per process:
//!
//! * **SWAR** — portable `u64` word-at-a-time zero-byte detection
//!   (Mycroft's trick), 8 bytes per iteration, no `unsafe`, works on every
//!   target. This is the default off `x86_64`.
//! * **SSE2** — 16 bytes per iteration via `_mm_cmpeq_epi8` /
//!   `_mm_movemask_epi8`. Part of the `x86_64` baseline ISA, so it needs no
//!   runtime detection there.
//! * **AVX2** — 32 bytes per iteration, used when
//!   `is_x86_feature_detected!("avx2")` reports support at runtime.
//!
//! Setting `SMPX_NO_SIMD=1` in the environment forces the SWAR path (and
//! the runtime searches with the classic Boyer–Moore and Commentz–Walter
//! loops instead of the candidate walk; see [`accel_enabled`]). The
//! choice is cached in an atomic after the first query; [`force_kind`]
//! overrides it for benchmarks.
//!
//! # Safety
//!
//! This is the only module in the crate that uses `unsafe`: the SSE2/AVX2
//! loads. Every unsafe block reads 16/32 bytes from within a slice whose
//! bounds have been checked immediately before the load (for the
//! fingerprint scan, which loads at two offsets past the alignment,
//! `i + 32 + o2 <= len`); the pointers are unaligned-load (`loadu`) so no
//! alignment invariant is required. The one prefetch hint takes an address
//! formed with `wrapping_add` and dereferences nothing.

#![allow(unsafe_code)]
#![warn(unsafe_op_in_unsafe_fn)]

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which scanning implementation the process is using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Portable `u64` word-at-a-time (no `std::arch`).
    Swar,
    /// 16-byte SSE2 vectors (`x86_64` baseline ISA).
    Sse2,
    /// 32-byte AVX2 vectors (runtime-detected).
    Avx2,
}

/// 0 = undecided, 1 = Swar, 2 = Sse2, 3 = Avx2.
static KIND: AtomicU8 = AtomicU8::new(0);
/// 0 = undecided, 1 = accelerated, 2 = scalar-forced (`SMPX_NO_SIMD=1`).
static ACCEL: AtomicU8 = AtomicU8::new(0);

fn detect_kind() -> ScanKind {
    if std::env::var_os("SMPX_NO_SIMD").is_some_and(|v| v == "1") {
        return ScanKind::Swar;
    }
    native_kind()
}

#[cfg(target_arch = "x86_64")]
fn native_kind() -> ScanKind {
    if std::arch::is_x86_feature_detected!("avx2") {
        ScanKind::Avx2
    } else {
        ScanKind::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn native_kind() -> ScanKind {
    ScanKind::Swar
}

/// The active scanning implementation (detected once, then cached).
pub fn kind() -> ScanKind {
    match KIND.load(Ordering::Relaxed) {
        1 => ScanKind::Swar,
        2 => ScanKind::Sse2,
        3 => ScanKind::Avx2,
        _ => {
            let k = detect_kind();
            KIND.store(encode(k), Ordering::Relaxed);
            k
        }
    }
}

/// Override the scanning implementation for this process (benchmark and
/// test escape hatch; normal code never calls this). Forcing
/// [`ScanKind::Avx2`] on a CPU without AVX2 is rejected (falls back to
/// detection).
pub fn force_kind(k: ScanKind) {
    #[cfg(target_arch = "x86_64")]
    let ok = k != ScanKind::Avx2 || std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let ok = k == ScanKind::Swar;
    if ok {
        KIND.store(encode(k), Ordering::Relaxed);
    }
}

fn encode(k: ScanKind) -> u8 {
    match k {
        ScanKind::Swar => 1,
        ScanKind::Sse2 => 2,
        ScanKind::Avx2 => 3,
    }
}

/// Is the vectorized skip-scan enabled for the runtime?
///
/// `SMPX_NO_SIMD=1` disables it: the runtime then builds the classic
/// Boyer–Moore and Commentz–Walter loops instead of the candidate walk
/// ([`TagWalk`](crate::TagWalk)), and scans tags byte by byte (the CI
/// fallback leg runs the whole suite this way). Cached after the first
/// call.
pub fn accel_enabled() -> bool {
    match ACCEL.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = std::env::var_os("SMPX_NO_SIMD").is_none_or(|v| v != "1");
            ACCEL.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Force the acceleration on or off for this process (test/bench escape
/// hatch, same effect as `SMPX_NO_SIMD`). A runtime matcher follows the
/// mode it was built in.
pub fn force_accel(on: bool) {
    ACCEL.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Position of the first occurrence of `needle` in `hay[from..]`, as an
/// absolute offset. Dispatches to the active [`ScanKind`].
///
/// No run calls it: it and its members stay only because the benchmark
/// harness's `stringmatch.ceiling_mibs` row times it, and they go with
/// that row (ROADMAP 11(a)).
#[inline]
pub fn find_byte(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    match kind() {
        ScanKind::Swar => find_byte_swar(hay, from, needle),
        #[cfg(target_arch = "x86_64")]
        ScanKind::Sse2 => find_byte_sse2(hay, from, needle),
        #[cfg(target_arch = "x86_64")]
        ScanKind::Avx2 => find_byte_avx2(hay, from, needle),
        #[cfg(not(target_arch = "x86_64"))]
        _ => find_byte_swar(hay, from, needle),
    }
}

// ---------------------------------------------------------------------------
// SWAR (portable)
// ---------------------------------------------------------------------------

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Mycroft's zero-byte detector: a set high bit per zero byte of `x`.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Word-at-a-time scan: 8 bytes per iteration, no `unsafe`.
pub fn find_byte_swar(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    let splat = LO.wrapping_mul(needle as u64);
    let mut i = from;
    // Head: align to an 8-byte chunk boundary of the remaining slice.
    let (head, rest) = hay[from..].split_at(hay[from..].len().min((8 - (from % 8)) % 8));
    if let Some(p) = head.iter().position(|&b| b == needle) {
        return Some(from + p);
    }
    i += head.len();
    let mut chunks = rest.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let found = zero_bytes(word ^ splat);
        if found != 0 {
            return Some(i + (found.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    chunks.remainder().iter().position(|&b| b == needle).map(|p| i + p)
}

// ---------------------------------------------------------------------------
// SSE2 / AVX2 (x86_64)
// ---------------------------------------------------------------------------

/// 16 bytes per iteration. SSE2 is part of the `x86_64` baseline ISA.
#[cfg(target_arch = "x86_64")]
pub fn find_byte_sse2(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    use std::arch::x86_64::*;
    if from >= hay.len() {
        return None;
    }
    let len = hay.len();
    let mut i = from;
    // SAFETY: every `_mm_loadu_si128` below reads 16 bytes starting at
    // `hay[i]` with `i + 16 <= len` checked by the loop condition; `loadu`
    // has no alignment requirement.
    unsafe {
        let splat = _mm_set1_epi8(needle as i8);
        while i + 16 <= len {
            let v = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, splat)) as u32;
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 16;
        }
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// 32 bytes per iteration; callers must only dispatch here when AVX2 was
/// detected at runtime (enforced by [`kind`]/[`force_kind`]).
#[cfg(target_arch = "x86_64")]
pub fn find_byte_avx2(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    #[target_feature(enable = "avx2")]
    unsafe fn imp(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
        use std::arch::x86_64::*;
        if from >= hay.len() {
            return None;
        }
        let len = hay.len();
        let mut i = from;
        // SAFETY: every `_mm256_loadu_si256` reads 32 bytes starting at
        // `hay[i]` with `i + 32 <= len` checked by the loop condition;
        // `loadu` has no alignment requirement.
        unsafe {
            let splat = _mm256_set1_epi8(needle as i8);
            while i + 32 <= len {
                let v = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
                let mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, splat)) as u32;
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 32;
            }
        }
        hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
    }
    // SAFETY: dispatch reaches this function only after
    // `is_x86_feature_detected!("avx2")` succeeded (see `detect_kind` /
    // `force_kind`), so the target-feature precondition holds.
    unsafe { imp(hay, from, needle) }
}

/// Plain byte loop, used as the oracle in tests.
pub fn find_byte_scalar(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    hay.get(from..)?.iter().position(|&b| b == needle).map(|p| from + p)
}

// ---------------------------------------------------------------------------
// Structural block masks
// ---------------------------------------------------------------------------

/// Bytes per structural block: one bit of a `u64` each.
const BLOCK: usize = 64;

/// The structural bytes of one block of a haystack — `<`, `>`, `"` and
/// `'` — as bitmasks, computed once and read by both scans of a token
/// step: the candidate walk pops the `<` bits
/// ([`Fingerprint::next_candidate`]) and the tag-end scan pops the `>`
/// and quote bits ([`tag_end`](Self::tag_end)). A block is up to
/// [`BLOCK`] bytes starting wherever the scan first needs one, so in dense
/// markup the next token and its tag end are usually in the block already
/// cached.
///
/// Positions are offsets into the haystack, which the caller identifies by
/// the absolute offset of its first byte: a haystack that starts
/// elsewhere ([`rebase`](Self::rebase) — a reader refill or compaction
/// that moved the resident region) drops the cached block. Haystacks of
/// one base must agree on the bytes they share, as prefixes of one
/// resident region do. Bits of a block that runs past the end of the
/// haystack it was computed from are clear, and its length says so.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    /// Absolute offset of the first byte of the haystack.
    base: usize,
    /// The cached block is `hay[at..at + len]`; `len == 0`: none.
    at: usize,
    len: usize,
    lt: u64,
    gt: u64,
    dq: u64,
    sq: u64,
}

impl Blocks {
    /// No block cached, for a haystack at absolute offset 0.
    pub fn new() -> Blocks {
        Blocks::default()
    }

    /// The haystack now starts at absolute offset `base`: keep the cached
    /// block only if it did before.
    #[inline]
    pub fn rebase(&mut self, base: usize) {
        if base != self.base {
            self.base = base;
            self.len = 0;
        }
    }

    /// Make the cached block hold `hay[i]` (`i < hay.len()`): the one
    /// cached, or a new one starting at `i`.
    #[inline]
    fn cover(&mut self, hay: &[u8], i: usize) {
        if i.wrapping_sub(self.at) >= self.len {
            self.load(hay, i);
        }
    }

    /// One past the cached block.
    #[inline]
    fn end(&self) -> usize {
        self.at + self.len
    }

    /// The positions of `mask` at or after `i`, as bits counted from `i`
    /// (`i` inside the cached block).
    #[inline]
    fn bits_from(&self, mask: u64, i: usize) -> u64 {
        mask >> (i - self.at)
    }

    /// Compute the block starting at `at` (`at < hay.len()`).
    fn load(&mut self, hay: &[u8], at: usize) {
        let bytes = &hay[at..hay.len().min(at + BLOCK)];
        let [lt, gt, dq, sq] = if bytes.len() < BLOCK {
            block_masks_scalar(bytes)
        } else {
            match kind() {
                ScanKind::Swar => block_masks_scalar(bytes),
                #[cfg(target_arch = "x86_64")]
                ScanKind::Sse2 => block_masks_sse2(bytes),
                #[cfg(target_arch = "x86_64")]
                ScanKind::Avx2 => block_masks_avx2(bytes),
                #[cfg(not(target_arch = "x86_64"))]
                _ => block_masks_scalar(bytes),
            }
        };
        *self = Blocks { base: self.base, at, len: bytes.len(), lt, gt, dq, sq };
    }

    /// The end of the tag whose name ends at `pos` of `hay`, read from the
    /// block masks: `Some((end, bachelor))` exactly as the scalar
    /// reference loop (`smpx_core`'s `scan_tag_end_scalar`) reports it —
    /// `>` inside a quoted attribute value does not end the tag, `end` is
    /// one past the `>`, `bachelor` says the byte before it was `/` — or
    /// `None` when `hay` ends first. [`tag_end_resumed`](Self::tag_end_resumed)
    /// goes on from there.
    #[inline]
    pub fn tag_end(&mut self, hay: &[u8], pos: usize) -> Option<(usize, bool)> {
        self.tag_end_resumed(hay, pos, &mut TagScan::new())
    }

    /// [`tag_end`](Self::tag_end) resumed from `st`, the state the walk
    /// over the bytes before `hay` left: a tag cut into windows, each
    /// walked from `pos` 0 with one state, ends where one walk over the
    /// whole tag ends. When `hay` ends first, `st` keeps the open quote
    /// and the last byte for the next window.
    #[inline(always)]
    pub fn tag_end_resumed(
        &mut self,
        hay: &[u8],
        pos: usize,
        st: &mut TagScan,
    ) -> Option<(usize, bool)> {
        if pos >= hay.len() {
            return None;
        }
        // A block computed from a longer haystack may hold bits past this
        // one's end: the masks must stop where `hay` does.
        if self.end() > hay.len() {
            self.len = 0;
        }
        let mut i = pos;
        let mut quote = st.quote;
        loop {
            if i.wrapping_sub(self.at) >= self.len {
                if i >= hay.len() {
                    *st = TagScan { quote, prev: hay[hay.len() - 1] };
                    return None;
                }
                self.load(hay, i);
            }
            let stops = match quote {
                0 => self.gt | self.dq | self.sq,
                b'"' => self.dq,
                _ => self.sq,
            };
            let bits = self.bits_from(stops, i);
            if bits == 0 {
                i = self.end();
                continue;
            }
            let j = i + bits.trailing_zeros() as usize;
            i = j + 1;
            if quote != 0 {
                quote = 0;
            } else if hay[j] == b'>' {
                let prev = if j > pos { hay[j - 1] } else { st.prev };
                return Some((j + 1, prev == b'/'));
            } else {
                quote = hay[j];
            }
        }
    }
}

/// Where a [`Blocks::tag_end_resumed`] walk stands when its haystack ends
/// inside a tag: the open quote and the last byte it consumed. A walk
/// starts from [`TagScan::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagScan {
    /// The quote byte of the attribute value the walk is in, 0 outside.
    quote: u8,
    /// The last byte consumed (0 before any): a `/` before a `>` at the
    /// start of the next haystack makes the tag a bachelor.
    prev: u8,
}

impl TagScan {
    /// Outside any value, nothing consumed.
    pub fn new() -> TagScan {
        TagScan::default()
    }

    /// Is the walk inside a quoted attribute value? (Error paths name the
    /// context by it.)
    pub fn in_quote(&self) -> bool {
        self.quote != 0
    }
}

/// The `<`, `>`, `"` and `'` masks of up to [`BLOCK`] bytes, one byte at a
/// time: the specification of the family and the member for short blocks.
pub fn block_masks_scalar(bytes: &[u8]) -> [u64; 4] {
    let mut masks = [0u64; 4];
    for (i, &b) in bytes.iter().take(BLOCK).enumerate() {
        let which = match b {
            b'<' => 0,
            b'>' => 1,
            b'"' => 2,
            b'\'' => 3,
            _ => continue,
        };
        masks[which] |= 1 << i;
    }
    masks
}

/// [`block_masks_scalar`] over a whole block, 16 bytes per load.
#[cfg(target_arch = "x86_64")]
pub fn block_masks_sse2(bytes: &[u8]) -> [u64; 4] {
    use std::arch::x86_64::*;
    assert!(bytes.len() >= BLOCK, "a whole block");
    let mut masks = [0u64; 4];
    // SAFETY: the four 16-byte unaligned loads read `bytes[0..64]`, in
    // bounds by the assert above.
    unsafe {
        let needles = [b'<', b'>', b'"', b'\''].map(|b| _mm_set1_epi8(b as i8));
        for k in 0..BLOCK / 16 {
            let v = _mm_loadu_si128(bytes.as_ptr().add(16 * k) as *const __m128i);
            for (mask, n) in masks.iter_mut().zip(needles) {
                *mask |= (_mm_movemask_epi8(_mm_cmpeq_epi8(v, n)) as u16 as u64) << (16 * k);
            }
        }
    }
    masks
}

/// [`block_masks_scalar`] over a whole block: two 32-byte loads, four
/// compares each. Callers must only dispatch here when AVX2 was detected
/// at runtime (enforced by [`kind`]).
#[cfg(target_arch = "x86_64")]
pub fn block_masks_avx2(bytes: &[u8]) -> [u64; 4] {
    #[target_feature(enable = "avx2")]
    unsafe fn imp(bytes: &[u8]) -> [u64; 4] {
        use std::arch::x86_64::*;
        assert!(bytes.len() >= BLOCK, "a whole block");
        // SAFETY: the two 32-byte unaligned loads read `bytes[0..64]`, in
        // bounds by the assert above.
        unsafe {
            let lo = _mm256_loadu_si256(bytes.as_ptr() as *const __m256i);
            let hi = _mm256_loadu_si256(bytes.as_ptr().add(32) as *const __m256i);
            [b'<', b'>', b'"', b'\''].map(|b| {
                let n = _mm256_set1_epi8(b as i8);
                let lo = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, n)) as u32 as u64;
                let hi = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, n)) as u32 as u64;
                lo | hi << 32
            })
        }
    }
    // SAFETY: dispatch reaches this function only after
    // `is_x86_feature_detected!("avx2")` succeeded (see `detect_kind` /
    // `force_kind`), so the target-feature precondition holds.
    unsafe { imp(bytes) }
}

// ---------------------------------------------------------------------------
// XML byte-frequency ranking
// ---------------------------------------------------------------------------

/// Relative frequency rank of each byte in XML documents; **lower is
/// rarer**. Hand-built from the byte histograms of XMark and MEDLINE
/// documents: markup punctuation and common English letters rank high,
/// capitals, digits and exotic punctuation rank low. A [`Fingerprint`]
/// breaks ties between offset pairs towards the lowest-ranked bytes, and
/// ranks by them alone when it has no [`TagUniverse`] to fit to.
#[rustfmt::skip]
const XML_BYTE_RANK: [u8; 256] = {
    let mut rank = [0u8; 256];
    // Default for unlisted bytes (control chars, high bit set): very rare.
    let mut i = 0;
    while i < 256 {
        rank[i] = 10;
        i += 1;
    }
    // Whitespace and markup punctuation: ubiquitous in XML.
    rank[b' ' as usize] = 255; rank[b'\n' as usize] = 240; rank[b'\t' as usize] = 200;
    rank[b'<' as usize] = 210; rank[b'>' as usize] = 210; rank[b'/' as usize] = 190;
    rank[b'=' as usize] = 150; rank[b'"' as usize] = 150; rank[b'\'' as usize] = 100;
    rank[b'&' as usize] = 60;  rank[b';' as usize] = 70;  rank[b'.' as usize] = 120;
    rank[b',' as usize] = 110; rank[b'-' as usize] = 90;  rank[b'_' as usize] = 40;
    rank[b'#' as usize] = 30;  rank[b'?' as usize] = 30;  rank[b'!' as usize] = 30;
    // Lowercase letters by rough English/markup frequency.
    rank[b'e' as usize] = 230; rank[b't' as usize] = 220; rank[b'a' as usize] = 220;
    rank[b'o' as usize] = 215; rank[b'i' as usize] = 215; rank[b'n' as usize] = 215;
    rank[b's' as usize] = 210; rank[b'r' as usize] = 205; rank[b'h' as usize] = 195;
    rank[b'l' as usize] = 185; rank[b'd' as usize] = 180; rank[b'c' as usize] = 175;
    rank[b'u' as usize] = 170; rank[b'm' as usize] = 160; rank[b'f' as usize] = 150;
    rank[b'p' as usize] = 145; rank[b'g' as usize] = 140; rank[b'w' as usize] = 135;
    rank[b'y' as usize] = 130; rank[b'b' as usize] = 125; rank[b'v' as usize] = 100;
    rank[b'k' as usize] = 80;  rank[b'x' as usize] = 50;  rank[b'j' as usize] = 45;
    rank[b'q' as usize] = 40;  rank[b'z' as usize] = 40;
    // Digits: attribute values and ids.
    let mut d = b'0';
    while d <= b'9' {
        rank[d as usize] = 110;
        d += 1;
    }
    // Capitals: rare in running text, common only as tag-name initials.
    let mut c = b'A';
    while c <= b'Z' {
        rank[c as usize] = 25;
        c += 1;
    }
    rank
};

// ---------------------------------------------------------------------------
// The tag universe of a DTD
// ---------------------------------------------------------------------------

/// Fingerprint offsets are searched among the first `FP_SPAN` bytes of the
/// keywords: tag names are shorter, and the build stays `O(K · FP_SPAN²)`.
const FP_SPAN: usize = 32;

/// Everything a candidate filter has to tell its keywords from: the tag
/// tokens (`<name`, `</name`) a DTD-valid document can hold. An XML
/// stream is a string over this alphabet, and the static analysis knows it
/// whole, so a [`Fingerprint`] built [against it](Fingerprint::with_universe)
/// picks the offsets that the fewest *other* tags pass instead of guessing
/// from byte frequencies.
///
/// Stored as one token bitset per `(offset, byte)` that occurs, for the
/// offsets below `FP_SPAN`: scoring an offset pair for a keyword set
/// is then an AND and a popcount, however many tokens there are. Built
/// once per compiled automaton and shared by every matcher build. The
/// default value is the empty universe, under which a fitted filter is the
/// byte-rank filter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagUniverse {
    /// Number of tokens; a token set is `tokens.div_ceil(64)` words.
    tokens: usize,
    /// Per offset and byte, the number of the token set in `sets` of the
    /// tokens holding that byte there (`NO_SET`: none does).
    set_of: Vec<[u16; 256]>,
    /// The token sets, back to back.
    sets: Vec<u64>,
}

/// [`TagUniverse::set_of`] of a byte no token holds at an offset.
const NO_SET: u16 = u16::MAX;

impl TagUniverse {
    /// The universe of a DTD's elements: `<name` and `</name` for each,
    /// token `2e` opening and token `2e + 1` closing the `e`-th name.
    pub fn of_elements<I>(names: I) -> TagUniverse
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let names = names.into_iter();
        let tokens = 2 * names.len();
        let words = tokens.div_ceil(64);
        let longest = names.clone().map(|n| n.as_ref().len() + 2).max().unwrap_or(0);
        let mut set_of: Vec<[u16; 256]> = vec![[NO_SET; 256]; longest.min(FP_SPAN)];
        // Token `t`'s bytes at their offsets: `<` or `</`, then the name.
        fn token(name: &[u8], close: bool, mut at: impl FnMut(usize, u8)) {
            let bracket: &[u8] = if close { b"</" } else { b"<" };
            for (o, &b) in bracket.iter().enumerate() {
                at(o, b);
            }
            for (o, &b) in name.iter().take(FP_SPAN - bracket.len()).enumerate() {
                at(bracket.len() + o, b);
            }
        }
        // Number the sets in order of first holder, then fill them: the
        // set array is allocated once, at its size.
        let mut count = 0u16;
        for name in names.clone() {
            for close in [false, true] {
                token(name.as_ref().as_bytes(), close, |o, b| {
                    let set = &mut set_of[o][b as usize];
                    if *set == NO_SET {
                        *set = count;
                        count += 1;
                    }
                });
            }
        }
        let mut sets = vec![0u64; count as usize * words];
        for (e, name) in names.enumerate() {
            for (t, close) in [(2 * e, false), (2 * e + 1, true)] {
                token(name.as_ref().as_bytes(), close, |o, b| {
                    sets[set_of[o][b as usize] as usize * words + t / 64] |= 1 << (t % 64);
                });
            }
        }
        TagUniverse { tokens, set_of, sets }
    }

    /// Heap bytes owned by the universe.
    pub fn heap_bytes(&self) -> usize {
        self.set_of.capacity() * std::mem::size_of::<[u16; 256]>()
            + self.sets.capacity() * std::mem::size_of::<u64>()
    }

    /// Words per token set.
    fn words(&self) -> usize {
        self.tokens.div_ceil(64)
    }

    /// The tokens holding byte `b` at offset `o` (no words when none does).
    fn holding(&self, o: usize, b: u8) -> &[u64] {
        match self.set_of.get(o).map(|set_of| set_of[b as usize]) {
            Some(set) if set != NO_SET => &self.sets[set as usize * self.words()..][..self.words()],
            _ => &[],
        }
    }

    /// Per offset of `offsets` (all below the shortest pattern's length),
    /// the tokens holding some pattern's byte there: one token set each,
    /// back to back.
    fn holding_any<P: AsRef<[u8]>>(&self, patterns: &[P], offsets: Range<usize>) -> Vec<u64> {
        let mut sets = vec![0u64; offsets.len() * self.words()];
        for (o, set) in offsets.zip(sets.chunks_exact_mut(self.words().max(1))) {
            // A wide vocabulary holds few distinct bytes at one offset.
            let mut seen = [false; 256];
            for b in patterns.iter().map(|p| p.as_ref()[o]) {
                if !std::mem::replace(&mut seen[b as usize], true) {
                    set.iter_mut().zip(self.holding(o, b)).for_each(|(s, h)| *s |= h);
                }
            }
        }
        sets
    }

    /// The tokens some pattern is a prefix of, as one token set.
    fn extending<P: AsRef<[u8]>>(&self, patterns: &[P]) -> Vec<u64> {
        let mut any = vec![0u64; self.words()];
        let mut of_one = vec![0u64; self.words()];
        for p in patterns {
            of_one.fill(!0);
            for (o, &b) in p.as_ref().iter().enumerate() {
                let holding = self.holding(o, b);
                if holding.is_empty() {
                    of_one.fill(0);
                    break;
                }
                of_one.iter_mut().zip(holding).for_each(|(s, h)| *s &= h);
            }
            any.iter_mut().zip(&of_one).for_each(|(s, p)| *s |= p);
        }
        any
    }
}

// ---------------------------------------------------------------------------
// Keyword-set candidate fingerprint
// ---------------------------------------------------------------------------

/// Number of keyword buckets: one bit of a table byte each.
const FP_BUCKETS: usize = 8;

/// How far ahead of the block under test the AVX2 member prefetches.
#[cfg(target_arch = "x86_64")]
const PREFETCH: usize = 2048;

/// The candidate filter of a keyword set, one keyword or many. Two byte
/// offsets `o1 <= o2` below the shortest keyword length are fixed at build
/// time; every keyword contributes the byte pair it holds at those offsets
/// to one of eight buckets, and an alignment `i` is a *candidate* when
/// some bucket admits both `hay[i + o1]` and `hay[i + o2]`. A bucket's
/// byte set at one offset is stored as a low-nibble and a high-nibble
/// table of bucket bitmasks (`lo[b & 15] & hi[b >> 4]`), so the vector
/// members test 16/32 alignments against all keywords with four table
/// shuffles, whatever the size of the set. When the keywords share their
/// first byte — the **anchor**, always `<` in SMP vocabularies — a
/// candidate must hold it too (one more compare in the vector), and both
/// offsets are chosen past it: text between tags never stops the scan.
///
/// When the keywords also agree on the byte at each offset — always, for
/// a single keyword — the lane test is **exact**: two byte compares in
/// place of the four shuffles, admitting precisely those two bytes.
///
/// The filter has no false negatives: a keyword occurring at `i` puts its
/// own bytes at the offsets, and its bucket admits them. False positives
/// (nibble cross products, shared buckets past eight distinct pairs, and
/// other tags holding the same bytes) are the verifier's business.
/// [`Fingerprint::admits_at`] is the scalar statement of the predicate;
/// [`find_fingerprint`] the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// The byte every keyword starts with, when they agree on one.
    anchor: Option<u8>,
    /// The two offsets, `off[0] <= off[1] < lmin` (equal only when there
    /// is a single offset to choose from).
    off: [u8; 2],
    /// The bytes at `off[0]` / `off[1]`, when the keywords agree on both.
    exact: Option<[u8; 2]>,
    /// Bucket masks by low nibble of the byte at `off[0]` / `off[1]`.
    lo: [[u8; 16]; 2],
    /// Bucket masks by high nibble of the byte at `off[0]` / `off[1]`.
    hi: [[u8; 16]; 2],
}

/// What a built [`Fingerprint`] decided for its keyword set.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterChoice {
    /// `|V|`: number of patterns.
    pub keywords: usize,
    /// Length of the shortest pattern.
    pub lmin: usize,
    /// The first byte the patterns share, if they do.
    pub anchor: Option<u8>,
    /// The two fingerprint offsets, `o1 <= o2 < lmin`.
    pub offsets: (usize, usize),
    /// Each pattern's bytes at the two offsets, in construction order.
    pub bytes: Vec<(u8, u8)>,
    /// The predicted pass count: tokens of the universe the filter was
    /// fitted to that are *foreign* — no pattern is a prefix of them —
    /// and still hold some pattern's byte at each of the two offsets. A
    /// byte past a token's end is `>`, `/` or white space, which no
    /// pattern holds past the anchor, so a token shorter than an offset
    /// is not admitted. 0 without a universe.
    pub foreign_admitted: usize,
}

impl Fingerprint {
    /// The filter of `patterns` chosen by byte frequency alone:
    /// [`with_universe`](Self::with_universe) over the empty universe.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Fingerprint {
        Fingerprint::with_universe(patterns, &TagUniverse::default())
    }

    /// Choose the offsets for `patterns` against `universe` and fill the
    /// bucket tables.
    ///
    /// The offset pair is the one that admits the fewest foreign tokens of
    /// the universe ([`FilterChoice::foreign_admitted`]); among equals —
    /// all pairs, over the empty universe — the one minimising
    /// `Σ_k rank(k[o1]) · rank(k[o2])` under the XML byte-frequency table
    /// (a keyword passes text at the rate of its two bytes together, and
    /// the set passes at the sum over its keywords), and then the later
    /// offsets. Offset 0 is left to the anchor when there is one. Panics
    /// on an empty set or an empty pattern.
    pub fn with_universe<P: AsRef<[u8]>>(patterns: &[P], universe: &TagUniverse) -> Fingerprint {
        let byte = |p: &P, o: usize| p.as_ref()[o];
        let lmin = patterns.iter().map(|p| p.as_ref().len()).min().expect("non-empty set");
        assert!(lmin > 0, "fingerprint patterns must be non-empty");
        let first = byte(&patterns[0], 0);
        let anchor = Some(first).filter(|&b| patterns.iter().all(|p| byte(p, 0) == b));
        // The offsets to choose from: all below `lmin`, minus the anchor's
        // unless it is the only one.
        let choices = (anchor.is_some() && lmin > 1) as usize..lmin.min(FP_SPAN);

        // The tokens a pair admits: those holding some keyword's byte at
        // both offsets. The ones a keyword is a prefix of — its own tag
        // and the tags that extend its name — hold a keyword byte at
        // every offset below `lmin`: they weigh the same on every pair
        // and are left in here (`choice` reports the foreign ones).
        let words = universe.words();
        let holding = universe.holding_any(patterns, choices.clone());
        let at = |o: usize| &holding[(o - choices.start) * words..][..words];
        let weight = |p: &P, o: usize| XML_BYTE_RANK[byte(p, o) as usize] as u64;
        let mut best = ((u32::MAX, u64::MAX), choices.start, choices.start);
        for o2 in choices.clone().rev() {
            for o1 in (choices.start..o2).rev() {
                let admitted = at(o1).iter().zip(at(o2)).map(|(a, b)| (a & b).count_ones()).sum();
                if admitted > best.0 .0 {
                    continue;
                }
                let rank: u64 = patterns.iter().map(|p| weight(p, o1) * weight(p, o2)).sum();
                if (admitted, rank) < best.0 {
                    best = ((admitted, rank), o1, o2);
                }
            }
        }
        let (_, o1, o2) = best;
        // Distinct pairs in sorted order take the buckets round robin, so
        // sets of up to eight pairs keep one pair per bucket.
        let mut pairs: Vec<(u8, u8)> =
            patterns.iter().map(|p| (byte(p, o1), byte(p, o2))).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut fp = Fingerprint {
            anchor,
            off: [o1 as u8, o2 as u8],
            exact: if let [(b1, b2)] = pairs[..] { Some([b1, b2]) } else { None },
            lo: [[0; 16]; 2],
            hi: [[0; 16]; 2],
        };
        for (j, &(b1, b2)) in pairs.iter().enumerate() {
            let bit = 1u8 << (j % FP_BUCKETS);
            for (t, b) in [b1, b2].into_iter().enumerate() {
                fp.lo[t][(b & 15) as usize] |= bit;
                fp.hi[t][(b >> 4) as usize] |= bit;
            }
        }
        fp
    }

    /// The byte every keyword starts with, when they agree on one.
    #[inline]
    pub fn anchor(&self) -> Option<u8> {
        self.anchor
    }

    /// The two fingerprint offsets, `o1 <= o2`.
    #[inline]
    pub fn offsets(&self) -> (usize, usize) {
        (self.off[0] as usize, self.off[1] as usize)
    }

    /// What the filter decided for `patterns` against `universe`, the two
    /// it was built from.
    #[doc(hidden)]
    pub fn choice<P: AsRef<[u8]>>(&self, patterns: &[P], universe: &TagUniverse) -> FilterChoice {
        let (o1, o2) = self.offsets();
        let own = universe.extending(patterns);
        let at1 = universe.holding_any(patterns, o1..o1 + 1);
        let at2 = universe.holding_any(patterns, o2..o2 + 1);
        let foreign =
            at1.iter().zip(&at2).zip(&own).map(|((a, b), own)| (a & b & !own).count_ones());
        FilterChoice {
            keywords: patterns.len(),
            lmin: patterns.iter().map(|p| p.as_ref().len()).min().unwrap_or(0),
            anchor: self.anchor,
            offsets: (o1, o2),
            bytes: patterns.iter().map(|p| (p.as_ref()[o1], p.as_ref()[o2])).collect(),
            foreign_admitted: foreign.sum::<u32>() as usize,
        }
    }

    /// The lane test on the two bytes an alignment holds at the offsets:
    /// the exact compares, or the bucket tables.
    #[inline(always)]
    fn admits(&self, b1: u8, b2: u8) -> bool {
        match self.exact {
            Some([e1, e2]) => b1 == e1 && b2 == e2,
            None => {
                self.lo[0][(b1 & 15) as usize]
                    & self.hi[0][(b1 >> 4) as usize]
                    & self.lo[1][(b2 & 15) as usize]
                    & self.hi[1][(b2 >> 4) as usize]
                    != 0
            }
        }
    }

    /// Is alignment `i` of `hay` a candidate? Alignments whose second
    /// offset falls past the end never are.
    #[inline(always)]
    pub fn admits_at(&self, hay: &[u8], i: usize) -> bool {
        let (o1, o2) = self.offsets();
        i + o2 < hay.len()
            && self.anchor.is_none_or(|a| hay[i] == a)
            && self.admits(hay[i + o1], hay[i + o2])
    }

    /// Smallest candidate alignment in `from..=limit`, for a `limit` at
    /// which the shortest keyword still fits (`limit + lmin <= hay.len()`).
    /// A filter anchored on `<` — every SMP vocabulary — first pops the
    /// `<` bits of the structural block holding `from` ([`Blocks`]) and
    /// states the lane test at each (the *near phase*: in dense markup the
    /// next token is in the block already, and the tag-end scan reads the
    /// same masks); only an exhausted block hands the rest to
    /// [`find_fingerprint`] (the *far phase*), as does every other filter
    /// at once.
    #[inline]
    pub fn next_candidate(
        &self,
        hay: &[u8],
        mut from: usize,
        limit: usize,
        blocks: &mut Blocks,
    ) -> Option<usize> {
        let (o1, o2) = self.offsets();
        if self.anchor == Some(b'<') {
            blocks.cover(hay, from);
            let mut lt = blocks.bits_from(blocks.lt, from);
            while lt != 0 {
                let i = from + lt.trailing_zeros() as usize;
                if i > limit {
                    return None;
                }
                if self.admits(hay[i + o1], hay[i + o2]) {
                    return Some(i);
                }
                lt &= lt - 1;
            }
            from = blocks.end();
            if from > limit {
                return None;
            }
        }
        // An alignment is tested by reading up to `o2 < lmin` bytes past
        // it: cut the haystack so that none beyond `limit` is.
        find_fingerprint(&hay[..limit + 1 + o2], from, self)
    }
}

/// First candidate alignment `i >= from` of `fp` in `hay`
/// ([`Fingerprint::admits_at`]). Dispatches to the active [`ScanKind`].
#[inline]
pub fn find_fingerprint(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
    match kind() {
        ScanKind::Swar => find_fingerprint_swar(hay, from, fp),
        #[cfg(target_arch = "x86_64")]
        ScanKind::Sse2 => find_fingerprint_sse2(hay, from, fp),
        #[cfg(target_arch = "x86_64")]
        ScanKind::Avx2 => find_fingerprint_avx2(hay, from, fp),
        #[cfg(not(target_arch = "x86_64"))]
        _ => find_fingerprint_swar(hay, from, fp),
    }
}

/// One alignment at a time: the specification of the family and the tail
/// of its vector members.
pub fn find_fingerprint_scalar(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
    let ends = hay.len().saturating_sub(fp.offsets().1);
    (from..ends).find(|&i| fp.admits_at(hay, i))
}

/// Eight alignments per iteration. The byte compares — the anchor and the
/// exact lane test — have a word-at-a-time form (the zero-byte detector of
/// [`find_byte_swar`]); a table lookup has none. So only the lanes that
/// pass the compares are looked at one by one: the anchor lanes of an
/// anchored set, all eight of an unanchored table set. No `unsafe`.
pub fn find_fingerprint_swar(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
    let (o1, o2) = fp.offsets();
    // A set high bit per lane of the word at `at` holding `b`. The
    // detector may also flag the lane above such a lane (borrow):
    // `admits_at` decides.
    let lanes_holding = |at: usize, b: u8| {
        let word = u64::from_le_bytes(hay[at..at + 8].try_into().expect("8-byte chunk"));
        zero_bytes(word ^ LO.wrapping_mul(b as u64))
    };
    let mut i = from;
    while i + 8 + o2 <= hay.len() {
        let mut lanes = fp.anchor.map_or(HI, |a| lanes_holding(i, a));
        if let Some([e1, e2]) = fp.exact {
            lanes &= lanes_holding(i + o1, e1) & lanes_holding(i + o2, e2);
        }
        while lanes != 0 {
            let lane = (lanes.trailing_zeros() / 8) as usize;
            if fp.admits_at(hay, i + lane) {
                return Some(i + lane);
            }
            lanes &= lanes - 1;
        }
        i += 8;
    }
    find_fingerprint_scalar(hay, i, fp)
}

/// 16 alignments per iteration. The nibble lookup is `pshufb`, which is
/// SSSE3, not SSE2: CPUs without it (none that has AVX2) take the SWAR
/// member.
#[cfg(target_arch = "x86_64")]
pub fn find_fingerprint_sse2(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
    #[target_feature(enable = "ssse3")]
    unsafe fn imp(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
        use std::arch::x86_64::*;
        let (o1, o2) = fp.offsets();
        let len = hay.len();
        let mut i = from;
        // SAFETY: the table loads read the four 16-byte arrays of `fp`.
        // Every haystack load reads 16 bytes at `hay[i + o]` with
        // `o <= o2` and `i + 16 + o2 <= len` checked by the loop
        // condition; `loadu` has no alignment requirement.
        unsafe {
            let table = |t: &[u8; 16]| _mm_loadu_si128(t.as_ptr() as *const __m128i);
            let (lo1, hi1) = (table(&fp.lo[0]), table(&fp.hi[0]));
            let (lo2, hi2) = (table(&fp.lo[1]), table(&fp.hi[1]));
            let nibble = _mm_set1_epi8(0x0f);
            let exact = fp.exact.map(|[e1, e2]| (_mm_set1_epi8(e1 as i8), _mm_set1_epi8(e2 as i8)));
            let anchor = _mm_set1_epi8(fp.anchor.unwrap_or(0) as i8);
            // Without an anchor every lane passes the anchor test.
            let unanchored = _mm_set1_epi8(if fp.anchor.is_none() { -1 } else { 0 });
            while i + 16 + o2 <= len {
                let v0 = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
                let v1 = _mm_loadu_si128(hay.as_ptr().add(i + o1) as *const __m128i);
                let v2 = _mm_loadu_si128(hay.as_ptr().add(i + o2) as *const __m128i);
                let anchored = _mm_or_si128(_mm_cmpeq_epi8(v0, anchor), unanchored);
                let hit = match exact {
                    Some((e1, e2)) => _mm_and_si128(
                        _mm_and_si128(_mm_cmpeq_epi8(v1, e1), _mm_cmpeq_epi8(v2, e2)),
                        anchored,
                    ),
                    None => {
                        let m1 = _mm_and_si128(
                            _mm_shuffle_epi8(lo1, _mm_and_si128(v1, nibble)),
                            _mm_shuffle_epi8(hi1, _mm_and_si128(_mm_srli_epi16(v1, 4), nibble)),
                        );
                        let m2 = _mm_and_si128(
                            _mm_shuffle_epi8(lo2, _mm_and_si128(v2, nibble)),
                            _mm_shuffle_epi8(hi2, _mm_and_si128(_mm_srli_epi16(v2, 4), nibble)),
                        );
                        let none = _mm_cmpeq_epi8(_mm_and_si128(m1, m2), _mm_setzero_si128());
                        _mm_andnot_si128(none, anchored)
                    }
                };
                let mask = _mm_movemask_epi8(hit) as u32;
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 16;
            }
        }
        find_fingerprint_scalar(hay, i, fp)
    }
    if std::arch::is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 was detected on the line above.
        unsafe { imp(hay, from, fp) }
    } else {
        find_fingerprint_swar(hay, from, fp)
    }
}

/// 32 alignments per iteration; callers must only dispatch here when AVX2
/// was detected at runtime (enforced by [`kind`]/[`force_kind`]).
#[cfg(target_arch = "x86_64")]
pub fn find_fingerprint_avx2(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
    #[target_feature(enable = "avx2")]
    unsafe fn imp(hay: &[u8], from: usize, fp: &Fingerprint) -> Option<usize> {
        use std::arch::x86_64::*;
        let (o1, o2) = fp.offsets();
        let len = hay.len();
        let mut i = from;
        // SAFETY: the table loads read the four 16-byte arrays of `fp`
        // (broadcast to both lanes, which `vpshufb` indexes separately).
        // Every haystack load reads 32 bytes at `hay[i + o]` with
        // `o <= o2` and `i + 32 + o2 <= len` checked by the loop
        // condition; `loadu` has no alignment requirement. The prefetch
        // address is computed with `wrapping_add` and never dereferenced.
        unsafe {
            let table = |t: &[u8; 16]| {
                _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
            };
            let (lo1, hi1) = (table(&fp.lo[0]), table(&fp.hi[0]));
            let (lo2, hi2) = (table(&fp.lo[1]), table(&fp.hi[1]));
            let nibble = _mm256_set1_epi8(0x0f);
            let exact =
                fp.exact.map(|[e1, e2]| (_mm256_set1_epi8(e1 as i8), _mm256_set1_epi8(e2 as i8)));
            let anchor = _mm256_set1_epi8(fp.anchor.unwrap_or(0) as i8);
            // Without an anchor every lane passes the anchor test.
            let unanchored = _mm256_set1_epi8(if fp.anchor.is_none() { -1 } else { 0 });
            while i + 32 + o2 <= len {
                // Three compares per block keep fewer cache lines in
                // flight than a plain byte scan does: ask for the ones
                // ahead (15 -> 22 GiB/s on a cache-resident document).
                _mm_prefetch::<_MM_HINT_T0>(hay.as_ptr().wrapping_add(i + PREFETCH) as *const i8);
                let v0 = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
                let v1 = _mm256_loadu_si256(hay.as_ptr().add(i + o1) as *const __m256i);
                let v2 = _mm256_loadu_si256(hay.as_ptr().add(i + o2) as *const __m256i);
                let anchored = _mm256_or_si256(_mm256_cmpeq_epi8(v0, anchor), unanchored);
                let hit = match exact {
                    Some((e1, e2)) => _mm256_and_si256(
                        _mm256_and_si256(_mm256_cmpeq_epi8(v1, e1), _mm256_cmpeq_epi8(v2, e2)),
                        anchored,
                    ),
                    None => {
                        let m1 = _mm256_and_si256(
                            _mm256_shuffle_epi8(lo1, _mm256_and_si256(v1, nibble)),
                            _mm256_shuffle_epi8(
                                hi1,
                                _mm256_and_si256(_mm256_srli_epi16(v1, 4), nibble),
                            ),
                        );
                        let m2 = _mm256_and_si256(
                            _mm256_shuffle_epi8(lo2, _mm256_and_si256(v2, nibble)),
                            _mm256_shuffle_epi8(
                                hi2,
                                _mm256_and_si256(_mm256_srli_epi16(v2, 4), nibble),
                            ),
                        );
                        let none =
                            _mm256_cmpeq_epi8(_mm256_and_si256(m1, m2), _mm256_setzero_si256());
                        _mm256_andnot_si256(none, anchored)
                    }
                };
                let mask = _mm256_movemask_epi8(hit) as u32;
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 32;
            }
        }
        find_fingerprint_scalar(hay, i, fp)
    }
    // SAFETY: dispatch reaches this function only after
    // `is_x86_feature_detected!("avx2")` succeeded (see `detect_kind` /
    // `force_kind`), so the target-feature precondition holds.
    unsafe { imp(hay, from, fp) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_impls(hay: &[u8], from: usize, needle: u8) -> Vec<(&'static str, Option<usize>)> {
        let mut v = vec![
            ("scalar", find_byte_scalar(hay, from, needle)),
            ("swar", find_byte_swar(hay, from, needle)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            v.push(("sse2", find_byte_sse2(hay, from, needle)));
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(("avx2", find_byte_avx2(hay, from, needle)));
            }
        }
        v
    }

    #[test]
    fn impls_agree_on_lane_boundaries() {
        // Needle placed at every position of haystacks sized around the
        // SWAR-word (8) and SSE/AVX lane (16/32) boundaries.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
            for at in 0..len {
                let mut hay = vec![b'x'; len];
                hay[at] = b'<';
                for from in 0..=len {
                    let want = find_byte_scalar(&hay, from, b'<');
                    for (name, got) in all_impls(&hay, from, b'<') {
                        assert_eq!(got, want, "{name} len={len} at={at} from={from}");
                    }
                }
            }
        }
    }

    #[test]
    fn finds_first_of_many() {
        let hay = b"aaa<bb<cc<";
        for (name, got) in all_impls(hay, 0, b'<') {
            assert_eq!(got, Some(3), "{name}");
        }
        for (name, got) in all_impls(hay, 4, b'<') {
            assert_eq!(got, Some(6), "{name}");
        }
    }

    #[test]
    fn missing_needle() {
        let hay = vec![b'q'; 100];
        for (name, got) in all_impls(&hay, 0, b'<') {
            assert_eq!(got, None, "{name}");
        }
    }

    #[test]
    fn from_past_end() {
        assert_eq!(find_byte(b"abc", 3, b'a'), None);
        assert_eq!(find_byte(b"abc", 100, b'a'), None);
        assert_eq!(find_byte(b"", 0, b'a'), None);
        // The per-impl entry points must be as tolerant as the dispatcher.
        for (name, got) in all_impls(b"abc", 100, b'a') {
            assert_eq!(got, None, "{name}");
        }
    }

    #[test]
    fn fingerprint_offsets_follow_the_rank_table() {
        // Capitals rank rarest: `Ab` / `/A` beats every pair with the `<`
        // all tags share.
        let fp = Fingerprint::new(&[&b"<Abstract"[..], b"</Abstract"]);
        assert_eq!(fp.offsets(), (1, 2));
        assert!(fp.admits(b'A', b'b') && fp.admits(b'/', b'A'));
        assert!(!fp.admits(b'A', b'A') && !fp.admits(b'<', b'A'));
        // Ties go to the later offsets; the shortest keyword bounds both.
        assert_eq!(Fingerprint::new(&[&b"aaaa"[..], b"aaa"]).offsets(), (1, 2));
        assert_eq!(Fingerprint::new(&[&b"<"[..], b"<abc"]).offsets(), (0, 0));
    }

    #[test]
    fn fitted_offsets_tell_a_keyword_from_the_other_tags() {
        let names = ["site", "seller", "street", "asia", "city"];
        let universe = TagUniverse::of_elements(&names);
        // By rank `/s` are the rare bytes of `</site`: `</seller` and
        // `</street` pass them too.
        let keyword = [&b"</site"[..]];
        let ranked = Fingerprint::new(&keyword);
        assert_eq!(ranked.offsets(), (1, 2));
        assert_eq!(ranked.choice(&keyword, &universe).foreign_admitted, 2);
        // `s.t` at (2, 4) is held by no other tag (`<asia` holds `si` at
        // (2, 3), `</city` `it` at (3, 4)); of the three such pairs it has
        // the rarest bytes.
        let fitted = Fingerprint::with_universe(&keyword, &universe);
        assert_eq!(fitted.offsets(), (2, 4));
        assert_eq!(fitted.choice(&keyword, &universe).foreign_admitted, 0);
        assert!(fitted.admits_at(b"</site>", 0) && !fitted.admits_at(b"</street>", 0));
    }

    #[test]
    fn filter_looks_past_the_shared_first_byte() {
        let pats: Vec<&[u8]> = vec![b"<Abstract", b"</Abstract"];
        let choice = Fingerprint::new(&pats).choice(&pats, &TagUniverse::default());
        assert_eq!((choice.keywords, choice.lmin, choice.anchor), (2, 9, Some(b'<')));
        // `Ab` and `/A`: the capitals are the rare bytes of these tags.
        assert_eq!(choice.offsets, (1, 2));
        assert_eq!(choice.bytes, vec![(b'A', b'b'), (b'/', b'A')]);
        // A single-byte pattern leaves one offset to look at.
        let pats: Vec<&[u8]> = vec![b"<", b"ab"];
        assert_eq!(Fingerprint::new(&pats).offsets(), (0, 0));
    }

    #[test]
    fn tags_extending_a_keyword_are_not_foreign() {
        let universe = TagUniverse::of_elements(&[
            "name",
            "namerica",
            "MedlineCitation",
            "MedlineCitationSet",
        ]);
        // `<namerica` holds every byte of `<name`: no pair can reject it,
        // and it is not counted against any.
        let keyword = [&b"<name"[..]];
        let choice = Fingerprint::with_universe(&keyword, &universe).choice(&keyword, &universe);
        assert_eq!(choice.foreign_admitted, 0);
        // A keyword that extends another tag's name is told from it past
        // that name's end ...
        let keyword = [&b"</MedlineCitationSet"[..]];
        let fp = Fingerprint::with_universe(&keyword, &universe);
        assert!(fp.offsets().1 >= b"</MedlineCitation".len(), "offsets {:?}", fp.offsets());
        assert_eq!(fp.choice(&keyword, &universe).foreign_admitted, 0);
        // ... unless a shorter keyword keeps the offsets below it.
        let keywords = [&b"</MedlineCitationSet"[..], b"<name"];
        let fp = Fingerprint::with_universe(&keywords, &universe);
        assert_eq!(fp.choice(&keywords, &universe).foreign_admitted, 1);
    }

    #[test]
    fn keywords_agreeing_at_both_offsets_take_the_exact_lane_test() {
        let exact = |pats: &[&[u8]]| Fingerprint::new(pats).exact;
        assert_eq!(exact(&[b"</item"]), Some([b'/', b'm']));
        assert_eq!(exact(&[b"<"]), Some([b'<', b'<']));
        assert_eq!(exact(&[b"<Abstract", b"<AbstractText"]), Some([b'A', b'b']));
        assert_eq!(exact(&[b"<Abstract", b"</Abstract"]), None);
        // The exact test admits the two bytes and nothing else.
        let fp = Fingerprint::new(&[&b"</item"[..]]);
        assert_eq!(fp.offsets(), (1, 5));
        assert!(fp.admits(b'/', b'm') && !fp.admits(b'/', b'n') && !fp.admits(b'm', b'/'));
    }

    #[test]
    fn fingerprint_scan_never_reads_past_the_second_offset() {
        let fp = Fingerprint::new(&[&b"<ab"[..], b"</ab"]);
        let (_, o2) = fp.offsets();
        // The candidate's second byte is the last byte of the haystack.
        let mut hay = vec![b'.'; 40];
        hay.extend_from_slice(&b"</ab"[..=o2]);
        assert_eq!(find_fingerprint(&hay, 0, &fp), Some(40));
        assert_eq!(find_fingerprint(&hay[..hay.len() - 1], 0, &fp), None);
        assert_eq!(find_fingerprint(&hay, 41, &fp), None);
        assert_eq!(find_fingerprint(&hay, 1000, &fp), None);
        assert_eq!(find_fingerprint(b"", 0, &fp), None);
    }

    #[test]
    fn block_tag_end_plain_and_bachelor() {
        let end = |hay: &[u8]| Blocks::new().tag_end(hay, 0);
        assert_eq!(end(b" a='1'>rest"), Some((7, false)));
        assert_eq!(end(b" a='1'/>rest"), Some((8, true)));
        // '>' as the very first byte: nothing consumed, not a bachelor.
        assert_eq!(end(b">x"), Some((1, false)));
    }

    #[test]
    fn block_tag_end_skips_quoted_gt() {
        for tag in [&b" a=\"x>y\" >"[..], &b" a='x>y' >"[..], &b" a='>>>>' b=\">\">"[..]] {
            let (end, bachelor) = Blocks::new().tag_end(tag, 0).unwrap();
            assert_eq!(end, tag.len(), "tag={}", String::from_utf8_lossy(tag));
            assert!(!bachelor);
        }
        // A quote closing right before the '>' is not a bachelor marker
        // even when the quoted value ends in '/'.
        assert_eq!(Blocks::new().tag_end(b" a='/'>", 0), Some((7, false)));
    }

    #[test]
    fn block_tag_end_resumes_across_windows() {
        // Split the tag at every byte and past every block edge; the walk
        // resumed on the second half must agree with the whole-slice walk.
        let mut tag = b" a='x>y' q=\"//\" ".to_vec();
        tag.extend(std::iter::repeat_n(b'v', 2 * BLOCK));
        tag.extend_from_slice(b" b='>' />rest");
        let want = Blocks::new().tag_end(&tag, 0).unwrap();
        assert_eq!(want, (tag.len() - 4, true));
        for cut in 0..tag.len() {
            let mut st = TagScan::new();
            match Blocks::new().tag_end_resumed(&tag[..cut], 0, &mut st) {
                Some(got) => assert_eq!(got, want, "cut={cut} (found early)"),
                None => {
                    let (end, bachelor) = Blocks::new()
                        .tag_end_resumed(&tag[cut..], 0, &mut st)
                        .expect("found in second half");
                    assert_eq!((end + cut, bachelor), want, "cut={cut}");
                }
            }
        }
    }

    #[test]
    fn block_tag_end_exhausted_window_keeps_state() {
        let mut st = TagScan::new();
        let end = |hay: &[u8], st: &mut TagScan| Blocks::new().tag_end_resumed(hay, 0, st);
        assert_eq!(end(b" a='open", &mut st), None);
        assert!(st.in_quote());
        // Still quoted: a '>' in the next window is consumed as value text.
        assert_eq!(end(b">>still'", &mut st), None);
        assert!(!st.in_quote());
        assert_eq!(end(b">", &mut st), Some((1, false)));
        // A '/' that ends one window makes a '>' opening the next a
        // bachelor's.
        let mut st = TagScan::new();
        assert_eq!(end(b" a='1' /", &mut st), None);
        assert_eq!(end(b">", &mut st), Some((1, true)));
    }

    #[test]
    fn block_mask_members_agree_with_the_scalar_statement() {
        let members = |block: &[u8]| {
            let mut v = vec![block_masks_scalar(block)];
            #[cfg(target_arch = "x86_64")]
            {
                v.push(block_masks_sse2(block));
                if std::arch::is_x86_feature_detected!("avx2") {
                    v.push(block_masks_avx2(block));
                }
            }
            v
        };
        // Each structural byte alone at every lane, then all of them.
        for at in 0..BLOCK {
            for (which, b) in [b'<', b'>', b'"', b'\''].into_iter().enumerate() {
                let mut block = [b'x'; BLOCK];
                block[at] = b;
                let mut want = [0u64; 4];
                want[which] = 1 << at;
                for got in members(&block) {
                    assert_eq!(got, want, "{} at {at}", b as char);
                }
            }
        }
        let block: Vec<u8> = (0..BLOCK).map(|i| b"<a b='>' c=\"'\"/>"[i % 16]).collect();
        let want = block_masks_scalar(&block);
        assert!(members(&block).iter().all(|m| *m == want));
        // A short block leaves the bits past its end clear.
        assert_eq!(block_masks_scalar(b"<>\"'"), [1, 2, 4, 8]);
    }

    #[test]
    fn block_tag_end_reads_quotes_bachelors_and_the_next_block() {
        let end = |hay: &[u8], pos: usize| Blocks::new().tag_end(hay, pos);
        assert_eq!(end(b" a='1'>rest", 0), Some((7, false)));
        assert_eq!(end(b" a='1'/>rest", 0), Some((8, true)));
        assert_eq!(end(b"/>", 0), Some((2, true)));
        assert_eq!(end(b">x", 0), Some((1, false)));
        // `>` and the other quote inside a value, a quote closing right
        // before the `>`.
        assert_eq!(end(b" a=\"x>'y\" b='/'>", 0), Some((16, false)));
        // A tag running into the next block and past it.
        let mut long = vec![b' '; 100];
        long.extend_from_slice(b"q='>'/>");
        assert_eq!(end(&long, 0), Some((107, true)));
        let mut longer = vec![b' '; 200];
        longer.push(b'>');
        assert_eq!(end(&longer, 0), Some((201, false)));
        // The haystack ends first, in a value or not.
        assert_eq!(end(b" a='>", 0), None);
        assert_eq!(end(b" a", 0), None);
        assert_eq!(end(b"", 0), None);
        // One cache serves the name ends of several tags in one block,
        // and a shorter prefix of the haystack is not answered from bytes
        // past its end.
        let hay = b"<a x='>'><b/></a>";
        let mut blocks = Blocks::new();
        assert_eq!(blocks.tag_end(hay, 2), Some((9, false)));
        assert_eq!(blocks.tag_end(hay, 11), Some((13, true)));
        assert_eq!(blocks.tag_end(&hay[..12], 11), None);
        assert_eq!(blocks.tag_end(hay, 16), Some((17, false)));
    }

    #[test]
    fn kind_is_cached_and_forcible() {
        let original = kind();
        force_kind(ScanKind::Swar);
        assert_eq!(kind(), ScanKind::Swar);
        assert_eq!(find_byte(b"hello<world", 0, b'<'), Some(5));
        force_kind(original);
        assert_eq!(kind(), original);
    }
}
