#!/usr/bin/env bash
# Tier-1 verification: build + test + formatting + lints, fully offline.
# Run from anywhere; operates on the repository containing this script.
# (Timing is not verified here: `scripts/pairs.sh <parent-checkout>
# <workload>` runs the interleaved `homebench` pairs a performance claim
# needs; this script only checks that it still parses.)
set -euo pipefail

cd "$(dirname "$0")/.."

# Everything resolves to path dependencies (shims/ for external crates), so
# --offline must always work; it also guards against accidental network use.
echo "==> cargo build --release --offline"
cargo build --release --offline

# The whole workspace, not just the root package: most unit and property
# suites (the scheduler's among them) live in the member crates. (The
# root's `default-members` makes a bare `cargo test` cover them too.)
echo "==> cargo test --offline --workspace"
cargo test -q --offline --workspace

# The one detector against the naive reference (full vector clocks, O(n^2)
# pair scan) on generated and recorded traces, plus chunk invariance of
# the feed. Part of the suite above, but run explicitly so a detector
# regression names itself.
echo "==> detector vs oracle"
cargo test -q --offline --test detector_oracle

# The detector's race lists (every payload byte, in order) and counters over
# full-instrumentation recordings of the bundled and class-S NPB-MZ
# programs, six configurations, three batch cuts: hashed and pinned on the
# commit before the access history was made compact. Part of the suite
# above; named so that a race rebuilt wrongly from a record says so.
echo "==> detector race lists vs pinned parent"
cargo test -q --offline --test schedule_identity detector_race_lists

# The v2 frame compressor against the finder it replaced (kept verbatim in
# tests/support/lz_oracle.rs): every block byte-identical on seeded inputs,
# edge shapes and recorded frame bodies, and a reused compressor blind to
# what it was fed before. Part of the suite above too; named because stored
# v2 traces and `serve` fingerprints are made of these bytes.
echo "==> LZ compressor vs oracle"
cargo test -q --offline --test lz_identity

# A run happens on the OS thread that drives it: an in-process
# `check --jobs 1` or `explore --jobs 1` creates no OS thread at all (a
# single chunk of the fan-out runs on its caller) and never waits in the
# kernel. Part of the suite above too (alone in its test binary, the counts
# are process-wide); named so that a scheduler that starts handing control
# between OS threads again, or a fan-out that spawns for one job, says so.
echo "==> mechanism guard (one OS thread per run)"
cargo test -q --offline --test mechanism_guard

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Panic-free gate: the scheduler (home-sched), the MPI and OpenMP runtimes
# and the interpreter over them (home-mpi, home-omp, home-interp), the base
# types (home-trace), the pipeline (home-core), the detector (home-stream),
# and the CLI must not unwrap/expect on fallible paths — failures become
# typed errors and partial reports. --no-deps keeps the lints scoped to
# exactly these crates; no --all-targets, so #[cfg(test)] code is exempt.
# (The same policy is pinned in-source via crate-root deny attributes.)
echo "==> clippy unwrap/expect gate (home-sched, home-mpi, home-omp, home-interp, home-trace, home-core, home-stream, home-serve, home-explore, home-static, CLI)"
cargo clippy --offline --no-deps -p home-sched -p home-mpi -p home-omp -p home-interp \
    -p home-trace -p home-core -p home-stream -p home-serve -p home-explore -p home-static \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used
cargo clippy --offline --no-deps -p home --bins \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

# Watch smoke: the live pipeline must stream at least one violation line
# and agree with `check` on the verdict (exit code) for the paper's
# figure2 case study. Both commands exit 1 on findings, so capture codes
# explicitly under `set -e`.
echo "==> home watch smoke (figure2)"
check_code=0
./target/release/home check programs/figure2.hmp > /dev/null || check_code=$?
watch_out="$(mktemp)"
watch_code=0
./target/release/home watch programs/figure2.hmp > "$watch_out" || watch_code=$?
grep -q "Violation" "$watch_out" || {
    echo "watch smoke: no violation line streamed" >&2
    cat "$watch_out" >&2
    exit 1
}
grep -q "watch: done" "$watch_out" || {
    echo "watch smoke: missing final summary" >&2
    exit 1
}
rm -f "$watch_out"
if [ "$watch_code" -ne "$check_code" ]; then
    echo "watch smoke: exit code $watch_code != check's $check_code" >&2
    exit 1
fi

# Serve smoke: the collector daemon must ingest a recorded trace over a
# temp UDS and report the exact violation lines `home check` finds, then
# shut down cleanly. `submit` exits 1 on findings, like check/replay.
echo "==> home serve smoke (figure2 over a temp UDS)"
serve_dir="$(mktemp -d)"
serve_sock="$serve_dir/collector.sock"
serve_trace="$serve_dir/figure2.hbt"
./target/release/home record programs/figure2.hmp -o "$serve_trace" --seeds 1,2 > /dev/null
./target/release/home serve --socket "$serve_sock" > "$serve_dir/daemon.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.05
done
replay_out="$serve_dir/replay.out"
submit_out="$serve_dir/submit.out"
replay_code=0
./target/release/home replay "$serve_trace" > "$replay_out" || replay_code=$?
submit_code=0
./target/release/home submit "$serve_trace" --socket "$serve_sock" > "$submit_out" || submit_code=$?
if [ "$submit_code" -ne "$replay_code" ]; then
    echo "serve smoke: submit exit $submit_code != replay's $replay_code" >&2
    exit 1
fi
if ! diff <(grep '^  - ' "$replay_out" | sort) <(grep '^  - ' "$submit_out" | sort); then
    echo "serve smoke: daemon verdict differs from replay" >&2
    exit 1
fi
./target/release/home serve --socket "$serve_sock" --status | grep -q '"predicate"' || {
    echo "serve smoke: STATUS report lacks aggregated violations" >&2
    exit 1
}
./target/release/home serve --socket "$serve_sock" --stop > /dev/null
serve_code=0
wait "$serve_pid" || serve_code=$?
if [ "$serve_code" -ne 0 ]; then
    echo "serve smoke: daemon exited $serve_code after --stop" >&2
    exit 1
fi
rm -rf "$serve_dir"

# v2 round-trip: `record --compress` must produce a smaller trace whose
# parallel replay (`--jobs 4`) prints the exact verdict lines and exit
# code of `check` — the compressed, seek-indexed format may never change
# a verdict.
echo "==> HBT v2 round-trip (record --compress -> replay --jobs 4 == check)"
v2_dir="$(mktemp -d)"
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.hbt" > /dev/null
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.v2.hbt" --compress > /dev/null
# One writer compresses every section with one reused match table: a second
# recording of the same seeds must be the same file.
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.again.hbt" --compress > /dev/null
if ! cmp "$v2_dir/fig2.v2.hbt" "$v2_dir/fig2.again.hbt"; then
    echo "v2 round-trip: two recordings of the same seeds differ" >&2
    exit 1
fi
v1_size=$(wc -c < "$v2_dir/fig2.hbt")
v2_size=$(wc -c < "$v2_dir/fig2.v2.hbt")
if [ "$v2_size" -ge "$v1_size" ]; then
    echo "v2 round-trip: --compress did not shrink the trace ($v2_size >= $v1_size)" >&2
    exit 1
fi
check_code=0
./target/release/home check programs/figure2.hmp > "$v2_dir/check.out" || check_code=$?
v2_code=0
./target/release/home replay "$v2_dir/fig2.v2.hbt" --jobs 4 > "$v2_dir/replay.out" || v2_code=$?
if [ "$v2_code" -ne "$check_code" ]; then
    echo "v2 round-trip: replay exit $v2_code != check's $check_code" >&2
    exit 1
fi
if ! diff <(grep -o 'is[A-Za-z]*Violation' "$v2_dir/check.out" | sort -u) \
          <(grep -o 'is[A-Za-z]*Violation' "$v2_dir/replay.out" | sort -u); then
    echo "v2 round-trip: compressed replay verdict differs from check" >&2
    exit 1
fi
serial_out="$v2_dir/replay1.out"
./target/release/home replay "$v2_dir/fig2.v2.hbt" --jobs 1 > "$serial_out" || true
if ! diff "$serial_out" "$v2_dir/replay.out"; then
    echo "v2 round-trip: --jobs 1 and --jobs 4 output differ" >&2
    exit 1
fi

# One driver, three doors: `replay <file>` (read whole, sections across
# --jobs), `replay -` (a pipe, a batch of records at a time) and `submit`
# (the daemon's buffered ingest) must print the same verdict lines for the
# same bytes — and the two replays the same everything, the event, race and
# violation counts of the first line included.
echo "==> replay file == replay - == submit (--jobs 1, 2)"
doors_sock="$v2_dir/doors.sock"
./target/release/home serve --socket "$doors_sock" > "$v2_dir/doors.log" &
doors_pid=$!
for _ in $(seq 1 100); do
    [ -S "$doors_sock" ] && break
    sleep 0.05
done
./target/release/home submit "$v2_dir/fig2.v2.hbt" --socket "$doors_sock" > "$v2_dir/submit.out" || true
./target/release/home serve --socket "$doors_sock" --stop > /dev/null
wait "$doors_pid"
for j in 1 2; do
    ./target/release/home replay "$v2_dir/fig2.v2.hbt" --jobs "$j" > "$v2_dir/file_$j.out" || true
    ./target/release/home replay - --jobs "$j" < "$v2_dir/fig2.v2.hbt" > "$v2_dir/stdin_$j.out" || true
    if ! diff "$v2_dir/file_$j.out" "$v2_dir/stdin_$j.out"; then
        echo "replay doors: replay - output differs from replay <file> --jobs $j" >&2
        exit 1
    fi
    if ! diff <(grep '^  - ' "$v2_dir/file_$j.out") <(grep '^  - ' "$v2_dir/submit.out"); then
        echo "replay doors: submit verdict differs from replay <file> --jobs $j" >&2
        exit 1
    fi
done

# The fused replay's allocation and live-heap bounds, in release mode:
# debug builds allocate differently, and release is what ships.
echo "==> replay allocation bounds (release)"
cargo test -q --release --offline --test replay_alloc

rm -rf "$v2_dir"

# Explore smoke: a small budget on the paper's figure1 must find the known
# initialization violation (exit 1), print a reproduction token, and that
# token must replay through `check` to the same verdict (exit 1).
echo "==> home explore smoke (figure1, budget 8)"
explore_dir="$(mktemp -d)"
explore_code=0
./target/release/home explore programs/figure1.hmp --budget 8 > "$explore_dir/explore.out" || explore_code=$?
if [ "$explore_code" -ne 1 ]; then
    echo "explore smoke: expected exit 1 (violation found), got $explore_code" >&2
    cat "$explore_dir/explore.out" >&2
    exit 1
fi
grep -q "isInitializationViolation" "$explore_dir/explore.out" || {
    echo "explore smoke: figure1 violation not found" >&2
    cat "$explore_dir/explore.out" >&2
    exit 1
}
repro_flags=$(grep -m1 'reproduce: home check' "$explore_dir/explore.out" \
    | sed 's/.*reproduce: home check //')
repro_code=0
# shellcheck disable=SC2086  # the token is a flag list by construction
./target/release/home check $repro_flags > "$explore_dir/repro.out" || repro_code=$?
if [ "$repro_code" -ne 1 ] || ! grep -q "isInitializationViolation" "$explore_dir/repro.out"; then
    echo "explore smoke: token '$repro_flags' did not reproduce the violation (exit $repro_code)" >&2
    cat "$explore_dir/repro.out" >&2
    exit 1
fi
rm -rf "$explore_dir"

# Static smoke: `home static` must run clean over the whole bundled corpus
# (exit 0 or 1 only — never a crash or usage error), agree with the pinned
# classifications (pipeline.hmp has no candidates, interproc2.hmp has
# some), and emit JSON that actually carries the candidates array.
echo "==> home static smoke (bundled corpus)"
for prog in programs/*.hmp; do
    static_code=0
    ./target/release/home static "$prog" > /dev/null || static_code=$?
    if [ "$static_code" -gt 1 ]; then
        echo "static smoke: $prog exited $static_code (expected 0 or 1)" >&2
        exit 1
    fi
done
static_code=0
./target/release/home static programs/pipeline.hmp > /dev/null || static_code=$?
if [ "$static_code" -ne 0 ]; then
    echo "static smoke: pipeline.hmp should be candidate-free, exit $static_code" >&2
    exit 1
fi
static_code=0
./target/release/home static programs/interproc2.hmp > /dev/null || static_code=$?
if [ "$static_code" -ne 1 ]; then
    echo "static smoke: interproc2.hmp should report candidates, exit $static_code" >&2
    exit 1
fi
# (exit 1 is expected here — candidates found — so guard the pipe)
(./target/release/home static programs/interproc2.hmp --json || true) \
    | grep -q '"candidates"' || {
    echo "static smoke: --json output lacks the candidates array" >&2
    exit 1
}

# No `unsafe` anywhere: every crate root and the CLI forbid it in source,
# so a new crate (or a quietly weakened attribute) fails here.
echo "==> #![forbid(unsafe_code)] on every crate root"
for root in crates/*/src/lib.rs src/lib.rs src/bin/home.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "unsafe gate: $root does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

# A run's chain (collector, session, rule engine, detector, interpreter
# state) is owned and fed through `&mut` on one thread, so it holds no lock
# and no atomic. Non-test source (scripts/size.sh's definition: up to the
# first `#[cfg(test)]`, comment lines skipped) may name one only in the
# files where threads do meet:
sync_allowed='
crates/core/src/fanout.rs    fan_out_indexed_with: result slots joined from worker threads
crates/core/src/sink.rs      ViolationCollector: a ViolationSink is shared by fanned-out seeds
crates/serve/src/server.rs   the daemon: Fleet, the session gate, the shutdown flag
crates/serve/src/analyze.rs  analyze_section_frames: the `failed` hint between section workers
crates/trace/src/trace.rs    Trace: the OnceLock rank cache of an immutable value
src/bin/home.rs              STDOUT_CLOSED, and nothing else (checked by line below)
'
echo "==> locks and atomics only where threads meet"
# shellcheck disable=SC2046  # a file list, no spaces in repo paths
sync_hits=$(awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /Mutex|RwLock|Condvar|Atomic[A-Z]|OnceLock|SegQueue|parking_lot|crossbeam/ {
        print FILENAME ":" FNR ": " $0
    }
' $(find crates/*/src src -name '*.rs' | sort))
sync_unexpected=$(printf '%s\n' "$sync_hits" | while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    file=${hit%%:*}
    if [ "$file" = src/bin/home.rs ]; then
        printf '%s\n' "$hit" | grep -Eqv ': (use std::sync::atomic::|static STDOUT_CLOSED)' || continue
    elif printf '%s' "$sync_allowed" | grep -q "^$file "; then
        continue
    fi
    printf '%s\n' "$hit"
done)
if [ -n "$sync_unexpected" ]; then
    echo "sync gate: a lock or an atomic outside the files where threads meet:" >&2
    printf '%s\n' "$sync_unexpected" >&2
    exit 1
fi
echo "$(printf '%s\n' "$sync_hits" | grep -c .) line(s) in $(printf '%s\n' "$sync_hits" | grep . | cut -d: -f1 | sort -u | wc -l) allow-listed file(s)"

echo "==> bash -n scripts/pairs.sh"
bash -n scripts/pairs.sh

# The tracked size numbers (informational; EXPERIMENTS.md quotes this table).
echo "==> scripts/size.sh"
sh scripts/size.sh

echo "verify: all checks passed"
