#!/usr/bin/env bash
# Size gauge, run by the CI `docs-check` job (and runnable locally): prints
# the two numbers the ROADMAP tracks for "same results from the least code".
#
#   1. lines of Rust in tracked `*.rs` files outside perfbench/ (the
#      benchmark is a separate workspace, measured on its own terms);
#   2. how many of those lines open a public item
#      (`pub fn|struct|enum|trait|const|type|mod|use|static`).
#
# Needs a git checkout: only tracked files count, so build output and
# scratch files never inflate the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files '*.rs' ':!:perfbench/*')
# shellcheck disable=SC2086 # one path per word is the point
lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
pub_items=$(cat $files | grep -cE '^\s*pub (fn|struct|enum|trait|const|type|mod|use|static)' || true)

echo "rust_lines=$lines"
echo "pub_items=$pub_items"
