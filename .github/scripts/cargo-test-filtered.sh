#!/usr/bin/env bash
# Run `cargo test -q <args>`, but fail when the arguments select no test:
# a renamed test would otherwise leave its named CI step passing while it
# runs nothing.
set -eo pipefail
n=$(cargo test -q "$@" -- --list | grep -c ': test$' || true)
if [ "${n:-0}" -eq 0 ]; then
  echo "FAIL: no test matches: cargo test $*" >&2
  exit 1
fi
cargo test -q "$@"
