#!/usr/bin/env bash
# Tier-1 verification: build + test + formatting + lints, fully offline.
# Run from anywhere; operates on the repository containing this script.
# (Timing is not verified here: `scripts/pairs.sh <parent-checkout>
# <workload>` runs the interleaved `homebench` pairs a performance claim
# needs; this script only checks that it still parses.)
set -euo pipefail

cd "$(dirname "$0")/.."

# Whatever step fails, nothing is left behind: on exit the `home serve`
# daemons still running are killed and the temporary files removed.
serve_pid='' doors_pid='' serve_dir='' v2_dir='' explore_dir=''
bench_lock=''
cleanup() {
    for pid in $serve_pid $doors_pid; do
        kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
    done
    if [ -n "$bench_lock" ]; then
        cp "$bench_lock" benchmark/Cargo.lock
    fi
    for path in $serve_dir $v2_dir $explore_dir $bench_lock; do
        rm -rf -- "$path"
    done
}
trap cleanup EXIT

# Everything resolves to path dependencies (shims/ for external crates), so
# --offline must always work; it also guards against accidental network use.
echo "==> cargo build --release --offline"
cargo build --release --offline

# The frozen benchmark (`benchmark/`, a workspace of its own) builds
# against these crates' public API: type-check it, so that deleting an item
# it uses fails here. Cargo rewrites its stale `Cargo.lock`; the committed
# one is put back whatever the check's outcome.
echo "==> benchmark type-checks against the crates"
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
cargo check -q --offline --manifest-path benchmark/Cargo.toml --target-dir target/homebench-check
cp "$bench_lock" benchmark/Cargo.lock

# The whole workspace, not just the root package: most unit and property
# suites (the scheduler's among them) live in the member crates. (The
# root's `default-members` makes a bare `cargo test` cover them too.)
# --no-fail-fast: one failing test binary still fails the step, but every
# later binary runs and reports too.
echo "==> cargo test --offline --workspace"
cargo test -q --offline --workspace --no-fail-fast

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

# The simulated substrate (receive matching, variable bindings, the run
# queue) under the `npb_check` shape and a wildcard program that leans on
# MPI's posting-order rule: `check` output, a recording and decision counts,
# pinned on the commit before the substrate's per-rank receive queues and
# flat binding stack. Part of the suite above; named so that a rewrite that
# moves one match or one decision says so.
echo "==> substrate schedules vs pinned parent"
cargo test -q --offline --test schedule_identity -- \
    npb_class_c wildcard_matching class_c_seed_1

# The interpreter's ways out of a construct other than its end: a deadlock
# while a thread holds `critical`, and runtime errors inside `critical`,
# `single` (a recursion past the depth limit) and a dynamic `omp for`, next
# to `sections` with a self-send. `check` and `run` output and a recording,
# pinned on the commit before the recursive block walk became one loop over
# a stack of frames. Part of the suite above; named so that an unwind that
# skips a lock release or runs a barrier it should not says so.
echo "==> interpreter frames vs pinned parent"
cargo test -q --offline --test schedule_identity interpreter_frames

# `explore` over every bundled program and the class-S LU-, BT- and SP-MZ
# programs, `--strategy pct` and `random`, at `--jobs 1` and `2`, and the
# default strategy against `pct`: report bytes pinned on the commit before
# the race-directed strategy was deleted, its flip-count clause cut. Part
# of the suite above; named so that state one schedule leaves behind for
# the next, or a deletion that moves an unpinned schedule, says so.
echo "==> explore reports vs pinned parent"
cargo test -q --offline --test schedule_identity explore_reports

# The JSON `home` writes: `static --json` over the bundled and class-S
# NPB-MZ programs, and one `serve` session's replies (a fresh and a known
# submission, a truncated one, a file name that needs escaping, STATUS,
# PING), pinned through the CLI on the commit before serde was replaced by
# one small writer. Part of the suite above; named so that a writer change
# that moves one byte says so.
echo "==> JSON outputs vs pinned parent"
cargo test -q --offline --test json_outputs

# What the session layer hands a user: every replayed section's violations
# with the `EmitOrder` key each was kept under (file at one and two jobs,
# pipe; v1 and v2 recordings), and a daemon's submit replies and `serve
# --status` over the same recordings, pinned on the commit before the
# session stopped holding a sink and the rule engine became the one place
# that keys a violation. Part of the suite above; named so that a key that
# moves says so.
echo "==> violation keys vs pinned parent"
cargo test -q --offline --test violation_keys

# The v2 frame compressor against the finder it replaced (kept verbatim in
# tests/support/lz_oracle.rs): every block byte-identical on seeded inputs,
# edge shapes and recorded frame bodies, and a reused compressor blind to
# what it was fed before. Part of the suite above too; named because stored
# v2 traces and `serve` fingerprints are made of these bytes.
echo "==> LZ compressor vs oracle"
cargo test -q --offline --test lz_identity

# Fault order inside a section: a frame's decode fault is told ahead of a
# detector fault its own events raise, and behind one from an earlier frame,
# by the file driver at one and two jobs, the pipe and the daemon alike —
# however finely the file driver feeds the detector while it decodes. Part
# of the suite above; named because no other test reaches that far ahead.
echo "==> replay fault order: file == pipe"
cargo test -q --offline --test hbt_adversarial replay_fault_order

# What every reader and every replay door answers (records, verdicts with
# their per-section counts, or the first error's words and offset) over the
# mutation corpora, every truncation of a v2 recording and crafted long and
# overflowing varints at every place the format reads one, plus `home
# replay` of a tiled class-S NPB-MZ recording at one and two jobs and
# through a pipe: pinned on the commit before the varint reader, the event
# decoder, the detector's retiring sweep and the per-worker replay session
# were rewritten. Part of the suite above; named so that a decoder or a
# reused session that moves one answer says so.
echo "==> HBT answers vs pinned parent"
cargo test -q --offline --test hbt_adversarial hbt_answers

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

# Panic-free gate: the interpreter with its scheduler, MPI and OpenMP
# modules (home-interp), the base types (home-trace), the pipeline and the
# explorer (home-core), the detector (home-stream), the daemon
# (home-serve), the static phase (home-static), the workloads with the
# baseline models (home-npb), and the CLI must not unwrap/expect on
# fallible paths — failures become typed errors and partial reports.
# --no-deps keeps the lints scoped to exactly these crates; no
# --all-targets, so #[cfg(test)] code is exempt. (The same policy is pinned
# in-source via crate-root deny attributes.)
echo "==> clippy unwrap/expect gate (home-interp, home-trace, home-core, home-stream, home-serve, home-static, home-npb, CLI)"
cargo clippy --offline --no-deps -p home-interp -p home-trace -p home-core -p home-stream \
    -p home-serve -p home-static -p home-npb \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used
cargo clippy --offline --no-deps -p home --bins \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

# Serve smoke: the collector daemon must ingest a recorded trace over a
# temp UDS and report the exact violation lines `home check` finds, then
# shut down cleanly. `submit` exits 1 on findings, like check/replay.
echo "==> home serve smoke (figure2 over a temp UDS)"
serve_dir="$(mktemp -d)"
serve_sock="$serve_dir/collector.sock"
serve_trace="$serve_dir/figure2.hbt"
# Seeds 3,4: at seeds 1,2 this file would be the later `figure2.v2.hbt`
# byte for byte, and that submit a cache hit.
./target/release/home record programs/figure2.hmp -o "$serve_trace" --seeds 3,4 > /dev/null
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
# Another program's recording at the same seeds first: the daemon's
# known-run cache must take figure2's runs as runs it has not seen, and
# answer what `home replay` answers for the file.
for p in figure1 figure2; do
    ./target/release/home record "programs/$p.hmp" -o "$serve_dir/$p.v2.hbt" --seeds 1,2 > /dev/null
done
./target/release/home submit "$serve_dir/figure1.v2.hbt" --socket "$serve_sock" > /dev/null || true
replay_code=0
./target/release/home replay "$serve_dir/figure2.v2.hbt" > "$replay_out" || replay_code=$?
submit_code=0
./target/release/home submit "$serve_dir/figure2.v2.hbt" --socket "$serve_sock" > "$submit_out" 2>&1 || submit_code=$?
if [ "$submit_code" -ne "$replay_code" ]; then
    echo "serve smoke: figure2 v2 after figure1 v2 exits $submit_code, replay $replay_code" >&2
    cat "$submit_out" >&2
    exit 1
fi
if ! diff <(grep '^  - ' "$replay_out" | sort) <(grep '^  - ' "$submit_out" | sort); then
    echo "serve smoke: figure2 v2 after figure1 v2 differs from replay" >&2
    exit 1
fi
./target/release/home serve --socket "$serve_sock" --status | grep -q '"predicate"' || {
    echo "serve smoke: STATUS report lacks aggregated violations" >&2
    exit 1
}
./target/release/home serve --socket "$serve_sock" --stop > /dev/null
serve_code=0
wait "$serve_pid" || serve_code=$?
serve_pid=''
if [ "$serve_code" -ne 0 ]; then
    echo "serve smoke: daemon exited $serve_code after --stop" >&2
    exit 1
fi

# v2 round-trip: `record` writes one format, HBT v2, whether or not it is
# given the `--compress` it still accepts, and the parallel replay
# (`--jobs 4`) of it prints the exact verdict lines and exit code of
# `check` — the compressed, seek-indexed format may never change a verdict.
echo "==> HBT v2 round-trip (record -> replay --jobs 4 == check)"
v2_dir="$(mktemp -d)"
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.hbt" > /dev/null
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.v2.hbt" --compress > /dev/null
if ! cmp "$v2_dir/fig2.hbt" "$v2_dir/fig2.v2.hbt"; then
    echo "v2 round-trip: record and record --compress write different files" >&2
    exit 1
fi
version=$(od -An -tu1 -j4 -N1 "$v2_dir/fig2.hbt" | tr -d ' ')
if [ "$version" != 2 ]; then
    echo "v2 round-trip: record wrote version byte $version, not 2" >&2
    exit 1
fi
# One writer compresses every section with one reused match table: a second
# recording of the same seeds must be the same file.
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.again.hbt" > /dev/null
if ! cmp "$v2_dir/fig2.v2.hbt" "$v2_dir/fig2.again.hbt"; then
    echo "v2 round-trip: two recordings of the same seeds differ" >&2
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
doors_pid=''
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

# `record -o -` writes the trace to stdout (its summary to stderr): piped
# into `replay -` it prints what `replay` of a file recorded at the same
# seeds prints, exits as that does, and leaves no file named `-` behind.
echo "==> record -o - | replay - == replay <file>"
pipe_home="$PWD/target/release/home"
pipe_prog="$PWD/programs/figure2.hmp"
(
    cd "$v2_dir"
    set +e
    "$pipe_home" record "$pipe_prog" --seeds 1,2 -o - 2> /dev/null |
        "$pipe_home" replay - > pipe.out
    echo "${PIPESTATUS[*]}" > pipe.codes
)
./target/release/home record programs/figure2.hmp --seeds 1,2 -o "$v2_dir/fig2.s12.hbt" > /dev/null
file_code=0
./target/release/home replay "$v2_dir/fig2.s12.hbt" > "$v2_dir/file_s12.out" || file_code=$?
if [ "$(cat "$v2_dir/pipe.codes")" != "0 $file_code" ]; then
    echo "record pipe: exit codes (record replay) $(cat "$v2_dir/pipe.codes"), want 0 $file_code" >&2
    exit 1
fi
if ! diff "$v2_dir/file_s12.out" "$v2_dir/pipe.out"; then
    echo "record pipe: replay - output differs from replay <file>" >&2
    exit 1
fi
if [ -e "$v2_dir/-" ]; then
    echo "record pipe: \`record -o -\` created a file named -" >&2
    exit 1
fi

# The fused replay's allocation and live-heap bounds, in release mode:
# debug builds allocate differently, and release is what ships.
echo "==> replay allocation bounds (release)"
cargo test -q --release --offline --test replay_alloc

# The interpreter over the simulated substrate: a class-C NPB-MZ run with
# no tool attached, and a HOME `check` of it, allocate within about 10% of
# their measured count per scheduling decision (0.35 and 0.52 on LU-MZ).
echo "==> interpreter allocation bound (release)"
cargo test -q --release --offline --test interp_alloc

# `explore` at the `explore_lu_s` shape: an attempted schedule allocates
# within about 10% of its measured count (341: 306 in run and recording,
# 41 per analysed session), and neither that count nor the peak live heap
# grows from budget 256 to 1,024.
echo "==> explore allocation bound (release)"
cargo test -q --release --offline --test explore_alloc


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
# so a new crate (or a quietly weakened attribute) fails here. Each root
# also warns on a `pub` item no other crate can reach, which the clippy
# step above turns into an error: a crate exports only its façade.
echo "==> #![forbid(unsafe_code)] and #![warn(unreachable_pub)] on every crate root"
for root in crates/*/src/lib.rs src/lib.rs src/bin/home.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" || {
        echo "unsafe gate: $root does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    }
    grep -q '^#!\[warn(unreachable_pub)\]' "$root" || {
        echo "façade gate: $root does not carry #![warn(unreachable_pub)]" >&2
        exit 1
    }
done

# Every repo path a document names in backticks (`crates/…`, `tests/…`,
# `programs/*.hmp`, `crates/x/{a,b}.rs`) is a file or directory in the
# tree, so a move or a deletion cannot leave the docs pointing at nothing.
# The documents: README.md, DESIGN.md, docs/LANGUAGE.md, src/lib.rs and
# the build-and-verify notes under the hidden skills directory. A path a
# document names as deleted goes on the allow-list, one a line.
doc_paths_deleted='
'
echo "==> backticked repo paths in the docs exist"
doc_missing=$(grep -oh '`[^`]*`' README.md DESIGN.md docs/LANGUAGE.md \
    .[a-z]*/skills/verify/SKILL.md src/lib.rs |
    grep -oE '(^|[^A-Za-z0-9_./-])(crates|src|tests|scripts|programs|examples|shims|docs)/[A-Za-z0-9_./*{},-]*' |
    sed -E 's/^[^a-z]//; s/[.,]+$//' | sort -u |
    while IFS= read -r path; do
        printf '%s' "$doc_paths_deleted" | grep -qxF "$path" && continue
        alts=$path
        case $path in
            *'{'*'}'*)
                pre=${path%%'{'*} rest=${path#*'{'}
                alts=$(printf '%s\n' "${rest%%'}'*}" | tr ',' '\n' | sed "s|^|$pre|; s|\$|${rest#*'}'}|")
                ;;
        esac
        for alt in $alts; do
            # shellcheck disable=SC2086  # a glob is expanded on purpose
            set -- $alt
            [ -e "$1" ] || echo "$path"
        done
    done)
if [ -n "$doc_missing" ]; then
    echo "doc-path lint: these backticked paths name nothing in the tree:" >&2
    printf '%s\n' "$doc_missing" | sort -u >&2
    exit 1
fi

# Every `--flag` README.md, docs/LANGUAGE.md and src/lib.rs name is one
# `home help` lists, or one of cargo's own, and every command they name
# (`home <command>`, `--bin home -- <command>`) is one it lists, so a flag
# or a command that is dropped or renamed cannot stay advertised. Part of
# the suite above; named here beside the path lint it extends.
echo "==> --flags and commands in the docs are ones home help lists"
cargo test -q --offline --test cli docs_name_only_flags_that_help_lists
cargo test -q --offline --test cli docs_name_only_commands_that_help_lists

# No serde: the few JSON outputs go through `home_trace::json`, so no
# manifest or source outside benchmark/ names the framework.
echo "==> no serde outside benchmark/"
serde_hits=$(find . \( -name target -o -name benchmark -o -name '.?*' \) -prune -o \
    \( -name '*.rs' -o -name Cargo.toml \) -print0 | xargs -0 grep -l serde || true)
if [ -n "$serde_hits" ]; then
    echo "serde gate: these files name serde:" >&2
    printf '%s\n' "$serde_hits" >&2
    exit 1
fi

# A run's chain (collector, session, rule engine, detector, interpreter
# state) is owned and fed through `&mut` on one thread, so it holds no lock
# and no atomic. Non-test source (scripts/size.sh's definition: up to the
# first `#[cfg(test)]`, comment lines skipped) may name one only in the
# files where threads do meet:
sync_allowed='
crates/core/src/fanout.rs    fan_out_indexed_with: result slots joined from worker threads
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
