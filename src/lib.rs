//! # smpx — XML Prefiltering as a String Matching Problem
//!
//! A complete Rust reproduction of **Koch, Scherzinger, Schmidt: "XML
//! Prefiltering as a String Matching Problem" (ICDE 2008)** — the SMP
//! system: XML projection that *skips* most of its input using
//! Boyer–Moore / Commentz–Walter search orchestrated by a statically
//! compiled automaton, instead of tokenizing every character.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the SMP static analysis + skipping runtime ([`core::Prefilter`]) |
//! | [`stringmatch`] | The candidate walk (`TagWalk`), Boyer–Moore, Commentz–Walter, Aho–Corasick, KMP |
//! | [`dtd`] | DTD parsing, Glushkov automata, the DTD-automaton, minimal lengths |
//! | [`paths`] | projection paths, relevance (C1/C2/C3), XPath subset, extraction |
//! | [`xml`] | SAX tokenizer, arena DOM, serializer |
//! | [`datagen`] | XMark-like / MEDLINE-like / Protein-like generators |
//! | [`baselines`] | tokenizing projector (oracle + TBP stand-in), SAX, AC scanner |
//! | [`engine`] | in-memory (QizX-like) and streaming (SPEX-like) XPath engines |
//! | [`bench`] | experiment runners, measurement, JSON-lines emission |
//!
//! # Quickstart
//!
//! ```
//! use smpx::core::Prefilter;
//! use smpx::dtd::Dtd;
//! use smpx::paths::{extract, PathSet};
//!
//! // Schema + query → compiled prefilter.
//! let dtd = Dtd::parse(smpx::datagen::xmark::XMARK_DTD.as_bytes()).unwrap();
//! let paths = extract::extract_from_text("//australia//description").unwrap();
//! let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
//!
//! // Generate a small auction site and project it.
//! let doc = smpx::datagen::xmark::generate(smpx::datagen::GenOptions::sized(64 * 1024));
//! let (projected, stats) = pf.filter_to_vec(&doc).unwrap();
//! assert!(projected.len() < doc.len());
//! // The skipping scan inspects a fraction of the input (9–23% in the paper).
//! assert!(stats.char_comp_pct() < 60.0);
//! ```

pub use smpx_baselines as baselines;
pub use smpx_bench as bench;
pub use smpx_core as core;
pub use smpx_datagen as datagen;
pub use smpx_dtd as dtd;
pub use smpx_engine as engine;
pub use smpx_paths as paths;
pub use smpx_stringmatch as stringmatch;
pub use smpx_xml as xml;
