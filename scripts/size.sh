#!/bin/sh
# The tracked size numbers (ROADMAP: "line count and public item count are
# tracked numbers"), by one definition so that every EXPERIMENTS.md entry
# counts the same thing:
#
#   lines  non-blank lines that are not `//` comment lines, up to the first
#          `#[cfg(test)]` of each `src/**/*.rs` file;
#   pub    of those, the lines matching
#          `^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) `
#          (crate-visible `pub(crate)`/`pub(super)` items do not count).
#
# One row per workspace crate, one for the root package's `src/`, their
# total and the number of crates (`crates/*/Cargo.toml`); then one row per
# `shims/` crate and a total that includes them.
# `scripts/size.sh -v` adds a row per file of the first part. Run from
# anywhere.
set -eu

cd "$(dirname "$0")/.."

per_file=0
[ "${1:-}" = "-v" ] && per_file=1

# Prints "<lines> <pub>" for the given files.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { lines++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) / { pubs++ }
        END { printf "%d %d\n", lines, pubs }
    ' "$@"
}

row() {
    name=$1
    shift
    # shellcheck disable=SC2046  # two numbers by construction
    printf '%-28s %7d %5d\n' "$name" $(count "$@")
}

printf '%-28s %7s %5s\n' "unit" "lines" "pub"
all=""
for dir in crates/*/src src; do
    files=$(find "$dir" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086  # a file list, no spaces in repo paths
    row "${dir%/src}" $files
    if [ "$per_file" -eq 1 ]; then
        for f in $files; do
            row "  $f" "$f"
        done
    fi
    all="$all $files"
done
# shellcheck disable=SC2086
row "total" $all
# ROADMAP's crate budget: the number of workspace crates under crates/.
printf '%-28s %7d %5s\n' "crates" "$(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)" "-"
# The offline stand-ins for external crates: one row each, then the total
# over everything above and them.
shim_files=""
for dir in shims/*/src; do
    files=$(find "$dir" -name '*.rs' | sort)
    # shellcheck disable=SC2086
    row "${dir%/src}" $files
    shim_files="$shim_files $files"
done
# shellcheck disable=SC2086
row "total with shims" $all $shim_files
