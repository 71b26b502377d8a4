#!/bin/sh
# bench_pairs.sh REV WORKLOAD [PAIRS=10] [SEED0=2]
#
# The pair table a performance claim is made with (ROADMAP item 1,
# /opt/skills/guides/choosing-metrics §8): the live-daemon benchmark on
# REV and on the working tree, PAIRS times each, one seed per pair
# (SEED0, SEED0+1, …), alternating which side runs first. Prints, per
# side, the median and quartiles of ops_per_s, setup_s and peak_rss_mb,
# then the per-pair ratios (working tree over REV) and the pairs each
# side won, ties going to neither.
#
# REV is exported with `git archive` into .bench_build/pairs/<sha>/ (the
# root .gitignore covers it; delete the directory to reclaim it), so
# nothing is checked out, stashed or registered in .git. The working
# tree is run as it is, uncommitted edits included. Only the last line
# of standard output of `go run -C bench .` is read, the one the driver
# reads; a run that is not "correct":true stops the script.
#
# BENCH_SECONDS (default 15, what BENCHMARK.json runs) is the --seconds
# of every run; CI uses 1 to keep the script from rotting.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 REV WORKLOAD [PAIRS=10] [SEED0=2]" >&2
	exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seed0=${4:-2}
seconds=${BENCH_SECONDS:-15}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
parent="$root/.bench_build/pairs/$sha"
if [ ! -f "$parent/bench/go.mod" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT INT TERM

# run SIDE TREE SEED appends the run's result line to $out/SIDE.
run() {
	line=$(cd "$2" && go run -C bench . --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>"$out/stderr" | tail -n 1)
	case $line in
	'{"correct":true,'*) ;;
	*)
		cat "$out/stderr" >&2
		echo "bench_pairs: $1 side, seed $3: not a correct run: $line" >&2
		exit 1
		;;
	esac
	echo "$line" >>"$out/$1"
	echo "  seed $3 $1: $line" >&2
}

i=0
while [ "$i" -lt "$pairs" ]; do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$parent" "$seed"
		run change "$root" "$seed"
		echo "$seed parent" >>"$out/order"
	else
		run change "$root" "$seed"
		run parent "$parent" "$seed"
		echo "$seed change" >>"$out/order"
	fi
	i=$((i + 1))
done

# values SIDE METRIC prints one value per run, in pair order.
values() {
	sed -n 's/.*"'"$2"'":{"value":\([-+0-9.eE]*\).*/\1/p' "$out/$1"
}

echo "bench-pairs: $workload, $pairs pair(s), seeds $seed0..$((seed0 + pairs - 1)), --seconds $seconds"
echo "  parent = $sha ($rev), change = working tree"
for m in ops_per_s setup_s peak_rss_mb; do
	better=lower
	[ "$m" = ops_per_s ] && better=higher
	values parent "$m" >"$out/p"
	values change "$m" >"$out/c"
	paste "$out/order" "$out/p" "$out/c" | awk -v m="$m" -v better="$better" '
		# quant: the p-quantile of v[1..n] (sorted), linear between ranks.
		function quant(v, n, p,    h, lo) {
			h = (n - 1) * p; lo = int(h)
			if (lo + 2 > n) return v[n]
			return v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
		}
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
		}
		{ n++; p[n] = $3 + 0; c[n] = $4 + 0 }
		END {
			sorted(p, sp, n); sorted(c, sc, n)
			printf "\n%s (%s is better)\n", m, better
			printf "  %-7s median %12.4f   quartiles %12.4f .. %12.4f\n", "parent", quant(sp, n, .5), quant(sp, n, .25), quant(sp, n, .75)
			printf "  %-7s median %12.4f   quartiles %12.4f .. %12.4f\n", "change", quant(sc, n, .5), quant(sc, n, .25), quant(sc, n, .75)
			printf "  per pair, change/parent:"
			for (i = 1; i <= n; i++) {
				printf " %.3f", (p[i] != 0 ? c[i] / p[i] : 0)
				if (c[i] == p[i]) continue
				if ((c[i] > p[i]) == (better == "higher")) cw++; else pw++
			}
			printf "\n  pairs won: change %d, parent %d, of %d (ties to neither)\n", cw, pw, n
			printf "  medians differ by %.4f; the quartiles of the parent are %.4f apart\n", quant(sc, n, .5) - quant(sp, n, .5), quant(sp, n, .75) - quant(sp, n, .25)
		}'
done
printf '\nfirst to run, by seed:'
awk '{ printf " %s:%s", $1, $2 }' "$out/order"
echo
