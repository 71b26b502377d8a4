#!/bin/sh
# check_metrics.sh — guard the observability surface against silent
# drift. Builds placelessd and plcached and runs two daemons briefly: a
# server with a memoizing cache, and a plcached ring of two nodes
# (-cluster A,A) dialed into it. Scrapes both /metrics endpoints,
# extracts the metric family names and types from the `# TYPE` lines,
# and diffs the merged set against docs/metric_names.golden. The one
# plcached scrape must carry every placeless_remote_* and
# placeless_cluster_* family the golden names: every node of a sidecar
# counts on its one Observer.
#
# A metric rename, removal, or type change fails this check; adding a
# family fails it too until the golden (and docs/METRICS.md) are
# updated — which is the point: the exposition is an operator-facing
# API and changes to it must be deliberate.
#
# Usage: scripts/check_metrics.sh  (from the repository root)
set -eu

GOLDEN=docs/metric_names.golden
TCP_PORT=${PLACELESS_CHECK_TCP_PORT:-17891}
HTTP_PORT=${PLACELESS_CHECK_HTTP_PORT:-17892}
CACHE_PORT=${PLACELESS_CHECK_CACHE_PORT:-17893}
WORK=$(mktemp -d)
trap 'kill $PID $CPID 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

go build -o "$WORK/placelessd" ./cmd/placelessd
go build -o "$WORK/plcached" ./cmd/plcached

# -store attaches the durable disk tier so the placeless_store_*
# families register and appear in the exposition.
"$WORK/placelessd" -cache 1048576 -memoize -store "$WORK/store" \
	-addr "127.0.0.1:$TCP_PORT" -http "127.0.0.1:$HTTP_PORT" \
	>"$WORK/placelessd.log" 2>&1 &
PID=$!

# Wait for the observability endpoint to come up (placelessd serves it
# before the TCP accept loop, so a successful scrape is enough).
i=0
until curl -sf "http://127.0.0.1:$HTTP_PORT/metrics" >"$WORK/metrics.txt" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "check_metrics: placelessd never served /metrics" >&2
		cat "$WORK/placelessd.log" >&2
		exit 1
	fi
	sleep 0.1
done

# The client-side cache daemon exports the placeless_remote_* and
# placeless_cluster_* families; dial a ring of two nodes into the
# placelessd instance just started, so two caches register on one
# Observer. Retry the launch briefly: the TCP accept loop comes up after
# the HTTP endpoint.
CPID=""
i=0
while :; do
	"$WORK/plcached" -cluster "127.0.0.1:$TCP_PORT,127.0.0.1:$TCP_PORT" \
		-addr "127.0.0.1:$CACHE_PORT" >"$WORK/plcached.log" 2>&1 &
	CPID=$!
	sleep 0.2
	if kill -0 "$CPID" 2>/dev/null; then
		break
	fi
	i=$((i + 1))
	if [ "$i" -ge 25 ]; then
		echo "check_metrics: plcached never started" >&2
		cat "$WORK/plcached.log" >&2
		exit 1
	fi
done

i=0
until curl -sf "http://127.0.0.1:$CACHE_PORT/metrics" >"$WORK/cache_metrics.txt" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "check_metrics: plcached never served /metrics" >&2
		cat "$WORK/plcached.log" >&2
		exit 1
	fi
	sleep 0.1
done

grep '^placeless_remote_\|^placeless_cluster_' "$GOLDEN" >"$WORK/sidecar_golden.txt"
grep -h '^# TYPE' "$WORK/cache_metrics.txt" | awk '{print $3, $4}' |
	grep '^placeless_remote_\|^placeless_cluster_' | sort -u >"$WORK/sidecar_names.txt"
if ! diff -u "$WORK/sidecar_golden.txt" "$WORK/sidecar_names.txt"; then
	echo "check_metrics: the plcached scrape lacks sidecar families of $GOLDEN" >&2
	exit 1
fi

grep -h '^# TYPE' "$WORK/metrics.txt" "$WORK/cache_metrics.txt" |
	awk '{print $3, $4}' | sort -u >"$WORK/names.txt"

if ! diff -u "$GOLDEN" "$WORK/names.txt"; then
	echo "check_metrics: /metrics family set drifted from $GOLDEN" >&2
	echo "check_metrics: if the change is intentional, update the golden and docs/METRICS.md" >&2
	exit 1
fi
echo "check_metrics: $(wc -l <"$GOLDEN" | tr -d ' ') metric families match $GOLDEN"
