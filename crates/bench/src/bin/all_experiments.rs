//! Run every table and figure of the paper's evaluation in sequence.
//!
//! Pass `--json <path>` to additionally append one self-describing JSON
//! object per result row (each record carries the `DocSource` backend
//! that delivered the document). The nightly paper-scale CI job runs this
//! binary at `SMPX_XMARK_MB=512` with `SMPX_SOURCE=mmap` and uploads the
//! JSON artifact.

use smpx_bench::json::{JsonSink, Value};
use smpx_bench::runners;

fn main() {
    // SMPX_METRICS=<path|-> turns on the process-wide registry; the
    // Delivery tables then populate their Stall column and the
    // snapshot is dumped on exit.
    let metrics = smpx_core::obs::init_from_env();
    let mut sink = JsonSink::from_args();

    let t1 = runners::run_table1();
    println!();
    let t2 = runners::run_table2();
    println!();
    let t3 = runners::run_table3();
    println!();
    let tp = runners::run_table_protein();
    println!();
    let a = runners::run_fig7a();
    println!();
    let b = runners::run_fig7b();
    println!();
    let c = runners::run_fig7c();

    for (table, rows) in [("table1", &t1), ("table2", &t2), ("table_protein", &tp)] {
        for r in rows {
            sink.push(&[
                ("table", Value::S(table.into())),
                ("id", Value::S(r.id.clone())),
                ("source", Value::S(r.source.clone())),
                ("prefetch", Value::B(r.prefetch)),
                ("threads", Value::U(r.threads as u64)),
                ("queries", Value::U(r.queries as u64)),
                ("input_bytes", Value::U(r.stats.input_bytes)),
                ("proj_bytes", Value::U(r.proj_size)),
                ("mem_bytes", Value::U(r.mem_bytes as u64)),
                ("wall_secs", Value::F(r.timed.wall.as_secs_f64())),
                ("cpu_secs", Value::F(r.timed.cpu.as_secs_f64())),
                ("avg_shift", Value::F(r.paper.avg_shift())),
                ("jump_pct", Value::F(r.paper.initial_jumps_pct())),
                ("char_pct", Value::F(r.paper.char_comp_pct())),
                ("scan_pct", Value::F(r.paper.scanned_pct())),
                ("walk_avg_shift", Value::F(r.stats.avg_shift())),
                ("walk_char_pct", Value::F(r.stats.char_comp_pct())),
                ("walk_scan_pct", Value::F(r.stats.scanned_pct())),
                ("stall_secs", r.stall_s.map_or(Value::Null, Value::F)),
            ]);
        }
    }
    for r in &t3 {
        sink.push(&[
            ("table", Value::S("table3".into())),
            ("id", Value::S(r.id.clone())),
            ("source", Value::S(r.source.clone())),
            ("tbp_cpu_secs", Value::F(r.tbp_cpu)),
            ("tbp_bytes", Value::U(r.tbp_size)),
            ("smp_cpu_secs", Value::F(r.smp_cpu)),
            ("smp_bytes", Value::U(r.smp_size)),
            ("speedup", Value::F(r.speedup)),
        ]);
    }
    for p in &a {
        sink.push(&[
            ("table", Value::S("fig7a".into())),
            ("id", Value::S(p.query.clone())),
            ("source", Value::S("slice".into())),
            ("input_bytes", Value::U(p.size as u64)),
            ("engine_alone_secs", p.engine_alone.map_or(Value::Null, Value::F)),
            ("smp_then_engine_secs", p.smp_then_engine.map_or(Value::Null, Value::F)),
            ("prefilter_secs", Value::F(p.prefilter_secs)),
        ]);
    }
    for r in &b {
        sink.push(&[
            ("table", Value::S("fig7b".into())),
            ("id", Value::S(r.id.clone())),
            ("source", Value::S("slice".into())),
            ("alone_secs", Value::F(r.alone_secs)),
            ("alone_mbs", Value::F(r.alone_mbs)),
            ("pipelined_secs", Value::F(r.pipelined_secs)),
            ("pipelined_mbs", Value::F(r.pipelined_mbs)),
            ("agree", Value::B(r.results_agree)),
        ]);
    }
    for bar in &c {
        sink.push(&[
            ("table", Value::S("fig7c".into())),
            ("id", Value::S(bar.label.clone())),
            ("source", Value::S("slice".into())),
            ("mbs", Value::F(bar.mbs)),
        ]);
    }

    if sink.enabled() {
        if let Err(e) = sink.flush() {
            eprintln!("all_experiments: cannot write JSON: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = smpx_core::obs::emit(&metrics) {
        eprintln!("all_experiments: cannot write metrics snapshot: {e}");
        std::process::exit(1);
    }
}
