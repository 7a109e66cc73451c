#!/bin/sh
# Design-explorer smoke test over real binaries: nbdesign on the pinned
# smoke and pareto catalogs diffed against their committed golden reports
# (the report is deterministic by construction, certificates included),
# the -no-prune baseline checked for frontier equality, and both catalogs
# POSTed to /v1/design on a live nbserve — whose responses must match the
# goldens byte for byte. The
# in-process planner properties (binary search == linear scan, certificate
# replays, memo/key parity with the result store) live in
# internal/design's tests; this script proves the CLI flags, the catalog
# file format, and the HTTP endpoint end to end.
set -eu

GO=${GO:-go}
ADDR=127.0.0.1:18090

tmp=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	if [ -n "${SMOKE_LOG_DIR:-}" ]; then
		mkdir -p "$SMOKE_LOG_DIR"
		cp "$tmp"/*.log "$tmp"/*.json "$tmp"/*.err "$SMOKE_LOG_DIR"/ 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/nbdesign" ./cmd/nbdesign
$GO build -o "$tmp/nbserve" ./cmd/nbserve

# Local plans against the committed goldens.
for cat in smoke pareto; do
	"$tmp/nbdesign" -catalog "catalogs/$cat.json" -q >"$tmp/local_$cat.json" 2>"$tmp/local_$cat.err"
	if ! diff -u "catalogs/${cat}_golden.json" "$tmp/local_$cat.json"; then
		echo "design-smoke: local report drifted from catalogs/${cat}_golden.json (regenerate it only if the change is intended)" >&2
		exit 1
	fi
done

# The planner is an optimization, not a different answer: -no-prune must
# reach the same frontier (tier counters legitimately differ, so the
# comparison is -frontier-only against -frontier-only).
"$tmp/nbdesign" -catalog catalogs/smoke.json -frontier-only -q >"$tmp/local_frontier.json" 2>"$tmp/local.err"
"$tmp/nbdesign" -catalog catalogs/smoke.json -no-prune -frontier-only -q >"$tmp/noprune_frontier.json" 2>"$tmp/noprune.err"
if ! diff -u "$tmp/local_frontier.json" "$tmp/noprune_frontier.json"; then
	echo "design-smoke: -no-prune frontier differs from the planned frontier" >&2
	exit 1
fi

# Live /v1/design: the HTTP response body is the same deterministic
# report, so it must equal the local run exactly.
"$tmp/nbserve" -addr "$ADDR" 2>"$tmp/serve.log" &
pids="$pids $!"
i=0
until "$tmp/nbdesign" -catalog catalogs/smoke.json -remote "$ADDR" -q >"$tmp/remote.json" 2>"$tmp/remote.err"; do
	i=$((i + 1))
	if [ $i -ge 100 ]; then
		echo "design-smoke: nbserve at $ADDR did not answer:" >&2
		cat "$tmp/remote.err" >&2
		exit 1
	fi
	sleep 0.1
done
if ! diff -u catalogs/smoke_golden.json "$tmp/remote.json"; then
	echo "design-smoke: /v1/design response differs from the local plan" >&2
	exit 1
fi
"$tmp/nbdesign" -catalog catalogs/pareto.json -remote "$ADDR" -q >"$tmp/remote_pareto.json" 2>"$tmp/remote_pareto.err"
if ! diff -u catalogs/pareto_golden.json "$tmp/remote_pareto.json"; then
	echo "design-smoke: /v1/design pareto response differs from catalogs/pareto_golden.json" >&2
	exit 1
fi

echo "design-smoke: local, -no-prune, and /v1/design reports all match the goldens"
