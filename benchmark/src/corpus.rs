//! Seeded corpora on disk and in memory, the 64-bit content hash every
//! check uses, and the work directory they live in.

use crate::workloads::{splitmix, CorpusSpec, Input};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Length and hash of a byte string: what the oracle pins and what every
/// timed output is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub len: u64,
    pub hash: u64,
}

impl Pin {
    pub fn of(bytes: &[u8]) -> Pin {
        Pin { len: bytes.len() as u64, hash: hash64(bytes) }
    }
}

/// A 64-bit multiply-rotate hash over 8-byte words. Not cryptographic: it
/// has to notice a changed, missing or extra byte in a projection, and to
/// run well above the speed of the runs it checks.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 29)
}

/// One generated document: on disk under the work directory (for the CLI
/// and the file-backed sources) and in memory (for the oracle, the slice
/// probes and the hash).
pub struct Doc {
    /// Path relative to the work directory.
    pub rel: String,
    pub bytes: Vec<u8>,
    pub pin: Pin,
}

pub struct Corpus {
    pub dir: PathBuf,
    pub dtd_text: &'static str,
    pub doc: Option<Doc>,
    pub batch: Vec<Doc>,
    /// Seconds spent generating (not writing) the documents.
    pub gen_s: f64,
}

pub const DTD_FILE: &str = "schema.dtd";

impl Corpus {
    /// Generate the files `spec` asks for from `seed` and write them under
    /// `dir`, which is emptied first: `dir` is a directory of the harness's
    /// own making (`main::WORK_SUBDIR`), never one an operator named.
    pub fn generate(spec: &CorpusSpec, seed: u64, dir: &Path) -> std::io::Result<Corpus> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir.join("out"))?;
        std::fs::write(dir.join(DTD_FILE), spec.dataset.dtd())?;
        let mut gen_s = 0.0;
        let mut make = |rel: String, bytes: usize, seed: u64| -> std::io::Result<Doc> {
            let start = Instant::now();
            let bytes = spec.dataset.generate(bytes, seed);
            gen_s += start.elapsed().as_secs_f64();
            std::fs::write(dir.join(&rel), &bytes)?;
            Ok(Doc { pin: Pin::of(&bytes), rel, bytes })
        };
        let doc = match spec.doc_bytes {
            Some(n) => Some(make("doc.xml".into(), n, seed)?),
            None => None,
        };
        let mut batch = Vec::new();
        if let Some((count, bytes)) = spec.batch {
            std::fs::create_dir_all(dir.join("batch"))?;
            let mut state = seed ^ 0x0062_6174_6368;
            for i in 0..count {
                batch.push(make(format!("batch/{i:05}.xml"), bytes, splitmix(&mut state))?);
            }
        }
        Ok(Corpus { dir: dir.to_path_buf(), dtd_text: spec.dataset.dtd(), doc, batch, gen_s })
    }

    /// The documents a command reads, in argument order.
    pub fn inputs(&self, input: Input) -> &[Doc] {
        match input {
            Input::Doc => self.doc.as_slice(),
            Input::Batch => &self.batch,
        }
    }

    pub fn input_bytes(&self, input: Input) -> u64 {
        self.inputs(input).iter().map(|d| d.pin.len).sum()
    }

    /// Every file of the corpus, for the pins.
    pub fn files(&self) -> impl Iterator<Item = &Doc> {
        self.doc.iter().chain(self.batch.iter())
    }

    /// The document single-document probes run over: the big one, else the
    /// first of the batch.
    pub fn primary(&self) -> &Doc {
        self.doc.as_ref().or(self.batch.first()).expect("a corpus has at least one document")
    }

    pub fn total_bytes(&self) -> u64 {
        self.files().map(|d| d.pin.len).sum()
    }

    pub fn abs(&self, doc: &Doc) -> PathBuf {
        self.dir.join(&doc.rel)
    }
}

/// Bytes the work directory must hold for `spec`: the corpus plus one
/// projection of it (no command writes more than it reads).
pub fn bytes_needed(spec: &CorpusSpec) -> u64 {
    let corpus = spec.doc_bytes.unwrap_or(0) + spec.batch.map_or(0, |(n, b)| n * b);
    2 * corpus as u64
}

/// Filesystem type and free bytes of `dir`, read from `df -PTk` (a child
/// process keeps `unsafe` out of here; `None` when `df` is unavailable).
pub fn filesystem(dir: &Path) -> Option<(String, u64)> {
    let out = std::process::Command::new("df").arg("-PTk").arg(dir).output().ok()?;
    parse_df(&String::from_utf8_lossy(&out.stdout))
}

/// `Filesystem Type 1024-blocks Used Available Capacity Mounted-on`.
pub fn parse_df(text: &str) -> Option<(String, u64)> {
    let fields: Vec<&str> = text.lines().nth(1)?.split_whitespace().collect();
    Some((fields.get(1)?.to_string(), fields.get(4)?.parse::<u64>().ok()? * 1024))
}

pub fn check_free_space(dir: &Path, free: u64, needed: u64) -> Result<(), String> {
    if free < needed {
        return Err(format!(
            "work directory {} has {} MiB free, the corpora and outputs need {} MiB; \
             free some space or pass --work-dir PARENT (the harness works in a \
             subdirectory of its own there)",
            dir.display(),
            free >> 20,
            needed.div_ceil(1 << 20)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Dataset;

    #[test]
    fn hash_notices_flips_truncation_and_padding() {
        let a: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let h = hash64(&a);
        assert_eq!(h, hash64(&a.clone()));
        for i in [0, 7, 8, 500, 999] {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(h, hash64(&b), "flip at {i}");
        }
        assert_ne!(h, hash64(&a[..999]));
        let mut padded = a.clone();
        padded.push(0);
        assert_ne!(h, hash64(&padded));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let spec = CorpusSpec {
            dataset: Dataset::Xmark,
            doc_bytes: Some(32 << 10),
            batch: Some((3, 8 << 10)),
        };
        let dir = std::env::temp_dir().join(format!("smpx-bench-corpus-{}", std::process::id()));
        let pins = |seed| {
            let c = Corpus::generate(&spec, seed, &dir).expect("corpus");
            assert_eq!(std::fs::read(c.abs(c.primary())).expect("doc on disk"), c.primary().bytes);
            assert_eq!(c.inputs(Input::Batch).len(), 3);
            assert_eq!(c.input_bytes(Input::Doc), c.primary().pin.len);
            c.files().map(|d| d.pin).collect::<Vec<_>>()
        };
        let a = pins(1);
        assert_eq!(a, pins(1));
        assert_ne!(a, pins(2));
        assert_ne!(a[1], a[2], "batch documents have distinct seeds");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn df_is_parsed_and_too_little_space_is_refused() {
        let text = "Filesystem     Type  1024-blocks     Used Available Capacity Mounted on\n\
                    tmpfs          tmpfs    16384000   113000  16271000       1% /dev/shm\n";
        assert_eq!(parse_df(text), Some(("tmpfs".to_string(), 16_271_000 * 1024)));
        assert_eq!(parse_df("garbage"), None);
        let dir = Path::new("/w");
        assert!(check_free_space(dir, 200 << 20, 128 << 20).is_ok());
        let err = check_free_space(dir, 100 << 20, 128 << 20).unwrap_err();
        assert!(err.contains("100 MiB free") && err.contains("need 128 MiB"), "{err}");
    }
}
