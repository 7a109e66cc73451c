#!/bin/sh
# Runs `go test <pkg> -count=1 -run <pattern>`, after checking that every
# '|'-separated alternative of the pattern lists at least one test of the
# package. Plain `go test -run` passes with "no tests to run", so a renamed
# test would otherwise drop out of a smoke target without a sound.
#
# Usage: scripts/run_tests.sh ./internal/server/ 'TestBatch|TestFileStoreRestartHit'
set -euf

GO=${GO:-go}
[ $# -eq 2 ] || { echo "usage: $0 <package> <run-pattern>" >&2; exit 2; }
pkg=$1
pattern=$2

IFS='|'
for alt in $pattern; do
	if ! $GO test "$pkg" -list "$alt" | grep -Eq '^(Test|Example|Fuzz)'; then
		echo "$0: -run alternative '$alt' lists no test in $pkg" >&2
		exit 1
	fi
done
$GO test "$pkg" -count=1 -run "$pattern"
