//! XMark pipeline: generate auction sites, prefilter them for a query, and
//! evaluate the query with the in-memory engine — demonstrating the
//! paper's Fig. 7(a) scenario where prefiltering lets a memory-bound
//! engine process documents it could not load whole.
//!
//! The documents live on disk and are delivered zero-copy through the
//! `DocSource` layer (`MmapSource`); a whole shard directory is
//! prefiltered as one batch through a single compiled automaton, sharded
//! across the pool (`run_batch_parallel` — `SMPX_THREADS`
//! sets the worker count, default: the machine's available parallelism).
//!
//! Run with: `cargo run --release --example xmark_pipeline [size_mb]`

use smpx::core::runtime::source::MmapSource;
use smpx::core::{Pool, Prefilter};
use smpx::datagen::{xmark, GenOptions};
use smpx::dtd::Dtd;
use smpx::engine::{InMemEngine, StreamEngine};
use smpx::paths::xpath::XPath;
use smpx::paths::PathSet;
use std::time::Instant;

const SHARDS: usize = 4;

fn main() {
    let size_mb: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let total_bytes = size_mb * 1024 * 1024;

    // A sharded corpus on disk: several auction sites, one file each.
    let tmp = std::env::temp_dir();
    let mut shard_paths = Vec::new();
    let mut corpus_bytes = 0usize;
    for i in 0..SHARDS {
        let doc = xmark::generate(GenOptions::sized(total_bytes / SHARDS).with_seed(i as u64));
        corpus_bytes += doc.len();
        let path = tmp.join(format!("smpx-xmark-{}-{i}.xml", std::process::id()));
        std::fs::write(&path, &doc).expect("write shard");
        shard_paths.push(path);
    }
    println!("generated {SHARDS} XMark-like shards: {corpus_bytes} bytes total");

    // XM13-style workload: Australian items with names and descriptions.
    let query = XPath::parse("/site/regions/australia/item/description").expect("query");
    let paths = PathSet::parse(&[
        "/*",
        "/site/regions/australia/item/name#",
        "/site/regions/australia/item/description#",
    ])
    .expect("paths");

    // An engine budget one raw shard cannot fit into (DOM ≈ 3-4x input).
    let engine = InMemEngine::with_budget(corpus_bytes / SHARDS);

    // Attempt 1: evaluate a raw shard directly (the paper: "QizX ... fails
    // for all queries on the 1GB and 5GB documents").
    let shard0 = std::fs::read(&shard_paths[0]).expect("read shard");
    match engine.load(&shard0) {
        Ok(loaded) => {
            let n = loaded.eval(&query).len();
            println!("direct evaluation unexpectedly fit the budget ({n} results)");
        }
        Err(e) => println!("direct evaluation of one raw shard: {e}"),
    }
    drop(shard0);

    // Attempt 2: batch-prefilter every shard through ONE compiled
    // automaton, mapped zero-copy from disk and sharded across the
    // pool, then evaluate each projected shard within the
    // budget. Results come back in shard order whatever the completion
    // order was.
    let requested =
        std::env::var("SMPX_THREADS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    let threads = Pool::new(requested).threads();
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("DTD");
    let pf = Prefilter::compile(&dtd, &paths).expect("compile");
    let t0 = Instant::now();
    let batch = shard_paths
        .iter()
        .map(|p| (MmapSource::open(p).expect("map shard"), Vec::new()))
        .collect::<Vec<_>>();
    let results = pf.run_batch_parallel(batch, threads).expect("batch filter");
    let pf_time = t0.elapsed();

    let projected_total: usize = results.iter().map(|(out, _)| out.len()).sum();
    let inspected: f64 =
        results.iter().map(|(_, s)| s.char_comp_pct()).sum::<f64>() / SHARDS as f64;
    println!(
        "batch-prefiltered {corpus_bytes} -> {projected_total} bytes \
         ({:.1}% kept) in {pf_time:?} via mmap over {threads} pool worker(s), \
         inspecting {inspected:.1}% of the input",
        100.0 * projected_total as f64 / corpus_bytes as f64,
    );

    let mut n_results = 0;
    let mut example = None;
    for (projected, _) in &results {
        let loaded = engine.load(projected).expect("projected shard fits the budget");
        let items = loaded.eval(&query);
        if example.is_none() {
            example = items.first().cloned();
        }
        n_results += items.len();
    }
    println!("query returned {n_results} description elements across the shards, e.g.:");
    if let Some(first) = example {
        let s = String::from_utf8_lossy(&first);
        println!("  {}", &s[..s.len().min(100)]);
    }

    // Cross-check with the streaming engine evaluating the whole batch of
    // projected shards in one pass sequence.
    let streamed = StreamEngine::new(query)
        .eval_many(results.iter().map(|(out, _)| out.as_slice()))
        .expect("stream eval over the batch");
    assert_eq!(streamed.items.len(), n_results, "engines must agree on the batch");
    println!("streaming engine agrees over the batch ({} items)", streamed.items.len());

    for p in &shard_paths {
        std::fs::remove_file(p).ok();
    }
}
