#!/bin/sh
# check_flags.sh — keep command-line flags and their documentation in
# step, in both directions:
#
#   1. every flag a command under cmd/ defines (flag.String("name", …)
#      and friends, including subcommand flag sets) is written in
#      README.md or docs/*.md, as `-name` or on a line that runs the
#      command;
#   2. every -name those files write next to a command name — inside an
#      inline code span or on a command line in a fenced block — is a
#      flag that command defines.
#
# A flag added without a word of documentation, a flag renamed or
# removed while the runbooks still use it, or a typo in an example
# fails this check with one line each. CI runs it on every push;
# `make check-flags` runs it locally.
#
# Usage: scripts/check_flags.sh  (from the repository root)
set -eu

defined=$(mktemp)
uses=$(mktemp)
out=$(mktemp)
trap 'rm -f "$defined" "$uses" "$out"' EXIT INT TERM

# "<command> <flag>" per line, from the non-test sources of each command.
for dir in cmd/*/; do
	c=$(basename "$dir")
	find "$dir" -name '*.go' -not -name '*_test.go' -exec \
		grep -ohE '\.(String|Int|Int64|Bool|Duration|Float64)\("[a-z][a-z0-9-]*"' {} + |
		sed 's/.*("//; s/"$//' | sort -u | sed "s/^/$c /"
done >"$defined"

docs="README.md $(ls docs/*.md)"

# 2 first, because a flag used on its command's line also documents
# it. A command line runs from the command's name to the first
# backtick, pipe, comment, or shell separator; a trailing backslash
# continues it. Emits "ok <command> <flag>" or a complaint per use.
# shellcheck disable=SC2086
awk -v defined="$defined" '
BEGIN {
	while ((getline line < defined) > 0) {
		split(line, f, " ")
		cmds[f[1]] = 1
		has[f[1], f[2]] = 1
	}
}
function check(text, where,    c, rest, span, n, i, toks, name) {
	for (c in cmds) {
		rest = text
		while (match(rest, "(^|[^A-Za-z0-9_-])" c "([ \t]|$)")) {
			rest = substr(rest, RSTART + RLENGTH)
			span = rest
			sub(/[`|#;&()<>].*/, "", span)
			n = split(span, toks, /[ \t]+/)
			for (i = 1; i <= n; i++) {
				if (toks[i] !~ /^--?[a-z]/)
					continue
				name = toks[i]
				sub(/^--?/, "", name)
				sub(/[^a-z0-9-].*/, "", name)
				if ((c, name) in has)
					print "ok " c " " name
				else
					print "check_flags: " where ": " c " -" name " is not a flag cmd/" c " defines"
			}
		}
	}
}
FNR == 1 { pending = "" }
{
	text = pending $0
	if (text ~ /\\$/) {
		sub(/\\$/, " ", text)
		pending = text
		next
	}
	pending = ""
	check(text, FILENAME ":" FNR)
}
' $docs >"$uses"
grep -v '^ok ' "$uses" >"$out" || true

# 1. Defined but documented neither as a backticked `-name` anywhere
# nor on one of its command's lines.
# shellcheck disable=SC2086
ticked=$(grep -ohE '`-[a-z][a-z0-9-]*' $docs | sed 's/^`-//' | sort -u)
while read -r c name; do
	echo "$ticked" | grep -qx -- "$name" || grep -qx -- "ok $c $name" "$uses" ||
		echo "check_flags: $c -$name is defined in cmd/$c but README.md and docs/*.md never mention it"
done <"$defined" >>"$out"

if [ -s "$out" ]; then
	cat "$out" >&2
	echo "check_flags: flags and documentation disagree" >&2
	exit 1
fi
echo "check_flags: $(wc -l <"$defined" | tr -d ' ') flags documented, every documented flag defined"
