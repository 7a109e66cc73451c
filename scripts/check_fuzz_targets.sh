#!/bin/sh
# Checks that the fuzz-smoke list names exactly the main module's fuzz
# targets: every `func Fuzz*` in a _test.go file (nbperf/ excluded) must be
# listed as <package dir>/:<target>, and every listed entry must exist.
# `go test -fuzz` passes with "no fuzz tests to fuzz", so without this a
# new target would never be fuzzed and a renamed one would drop out
# without a sound.
#
# Usage: scripts/check_fuzz_targets.sh ./internal/routing/:FuzzBenesLooping ...
set -eu

defined=$(grep -rHoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' --exclude-dir=nbperf . |
	sed -E 's|^(.*/)[^/]*:func (Fuzz.*)$|\1:\2|' | sort -u)
listed=$(printf '%s\n' "$@" | sort -u)

status=0
for t in $defined; do
	printf '%s\n' "$listed" | grep -qxF "$t" || { echo "$0: $t is not in FUZZ_TARGETS" >&2; status=1; }
done
for t in $listed; do
	printf '%s\n' "$defined" | grep -qxF "$t" || { echo "$0: FUZZ_TARGETS entry $t names no fuzz target" >&2; status=1; }
done
exit $status
