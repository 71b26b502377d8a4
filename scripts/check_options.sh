#!/bin/sh
# check_options.sh — no option without a caller. Every knob the
# libraries export must be turned by something that ships:
#
#   1. every exported field of a struct named Options under internal/,
#   2. every exported With* function returning a server.DialOption,
#   3. every exported Set* method on server.Server
#
# has to be referenced (`Field:` in a literal, or `.Name`) from a
# non-test Go file of at least one other package that imports the
# declaring one, searching cmd/, internal/, examples/, bench/ and
# placeless.go. An option only its own package's tests set is a
# constant with extra steps: delete it, or unexport it if the tests
# need the handle. There is no whitelist. The match is by name, not by
# type: a field that shares its name with an option of another package
# the user also imports can pass on that package's references. CI runs
# this on every push; `make check-options` runs it locally.
#
# Usage: scripts/check_options.sh  (from the repository root)
set -eu

decls=$(mktemp)
out=$(mktemp)
trap 'rm -f "$decls" "$out"' EXIT INT TERM

# "<package dir> <what> <name>" per line.
find internal -name '*.go' -not -name '*_test.go' | sort | while read -r f; do
	awk -v dir="$(dirname "$f")" '
	/^type Options struct \{/ { inopts = 1; next }
	inopts && /^}/ { inopts = 0 }
	inopts && /^\t[A-Z]/ {
		line = $0
		sub(/^\t/, "", line)
		sub(/[ \t]*\/\/.*/, "", line)
		n = split(line, toks, /[ \t]+/)
		# "A, B type": every token ending in a comma is a name, and so
		# is the first one that does not.
		for (i = 1; i <= n; i++) {
			name = toks[i]
			more = sub(/,$/, "", name)
			if (name ~ /^[A-Z][A-Za-z0-9_]*$/)
				print dir, "field", name
			if (!more)
				break
		}
	}
	dir == "internal/server" && /^func With[A-Za-z0-9_]*\(.*\) DialOption \{/ {
		name = $2
		sub(/\(.*/, "", name)
		print dir, "dial-option", name
	}
	dir == "internal/server" && /^func \([a-z]+ \*Server\) Set[A-Za-z0-9_]*\(/ {
		name = $4
		sub(/\(.*/, "", name)
		print dir, "setter", name
	}
	' "$f"
done >"$decls"

while read -r dir what name; do
	# The non-test files of every other package that imports this one.
	users=$(find cmd internal examples bench placeless.go -name '*.go' -not -name '*_test.go' \
		-not -path "$dir/*" -exec grep -l "\"placeless/$dir\"" {} + |
		xargs -r -n1 dirname | sort -u | while read -r d; do
		find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go'
	done)
	if [ "$what" = field ]; then
		pattern="(^|[^A-Za-z0-9_])$name:|\\.$name([^A-Za-z0-9_]|\$)"
	else
		pattern="\\.$name\\("
	fi
	# shellcheck disable=SC2086
	if [ -z "$users" ] || ! grep -qE -- "$pattern" $users; then
		echo "check_options: $dir: $what $name has no non-test reference outside its package"
	fi
done <"$decls" >"$out"

if [ -s "$out" ]; then
	cat "$out" >&2
	echo "check_options: an option nothing ships with is a constant; delete it (or unexport it for the package's own tests)" >&2
	exit 1
fi
echo "check_options: $(wc -l <"$decls" | tr -d ' ') options, dial options and setters, each set by shipped code"
