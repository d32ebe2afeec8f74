#!/usr/bin/env bash
# Runs `cargo test -q <args>` and fails unless at least one test ran, so a
# name filter that no longer matches any test fails the step instead of
# passing silently.
#
#   .github/scripts/filtered-test.sh --test chaos chaos_smoke_small_fixed_plan
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test -q "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
  echo "error: 'cargo test $*' ran zero tests" >&2
  exit 1
fi
