#!/usr/bin/env bash
# One 17 MiB skip (XML with nothing of interest before its last element)
# through `smpx` as a file operand (sync reader), through a pipe
# (prefetching reader), under --mmap, and twice over as one batch at
# --threads 1 and --threads 2 (each pool worker reuses its one window):
# every --stats-json row must report a window of at most 256 KiB, whatever
# SMPX_NO_SIMD says. A real mapping reports 0 — the counter is owned
# buffer; its resident pages are held by tests/window_bound.rs and
# tests/mapped_residency.rs.
set -eu
cargo build --release --bin smpx
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf '<!ELEMENT r (a*, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>' > "$dir/skip.dtd"
{ printf '<r>'; yes '<a>padding padding</a>' | head -n 800000 | tr -d '\n'; printf '<b>x</b></r>'; } > "$dir/skip.xml"
[ "$(wc -c < "$dir/skip.xml")" -ge 16777216 ]
smpx() { target/release/smpx --dtd "$dir/skip.dtd" --paths '/*,/r/b#' --stats-json - "$@"; }
bounded() {
    grep -o '"io_window_bytes":[0-9]*' | cut -d: -f2 |
        awk '{ n++; print "io_window_bytes", $1; if ($1 > 262144) bad = 1 } END { exit !(n > 0 && !bad) }'
}
smpx "$dir/skip.xml" 2>&1 > "$dir/out" | bounded
grep -q '<b>x</b>' "$dir/out"
cat "$dir/skip.xml" | smpx 2>&1 > "$dir/out" | bounded
grep -q '<b>x</b>' "$dir/out"
smpx --mmap "$dir/skip.xml" 2>&1 > "$dir/out" | bounded
grep -q '<b>x</b>' "$dir/out"
for threads in 1 2; do
    smpx --threads "$threads" "$dir/skip.xml" "$dir/skip.xml" 2>&1 > "$dir/out" | bounded
    [ "$(grep -o '<b>x</b>' "$dir/out" | wc -l)" -eq 2 ]
done
