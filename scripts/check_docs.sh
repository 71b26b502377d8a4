#!/bin/sh
# check_docs.sh — keep the documentation graph unbroken. Extracts every
# markdown link target `](...)` from the repository's *.md files,
# ignores external links (http/https/mailto) and pure in-page anchors
# (#...), strips any #fragment from the rest, and verifies each
# remaining relative path resolves from the linking file's directory.
#
# A doc that moves, a file that's renamed, or a typo'd cross-reference
# fails this check with one line per broken link. CI runs it on every
# push; `make check-docs` runs it locally.
#
# Usage: scripts/check_docs.sh  (from the repository root)
set -eu

out=$(mktemp)
trap 'rm -f "$out"' EXIT INT TERM

# find keeps this working if deeper doc trees appear later. PAPERS.md
# and SNIPPETS.md are imported reference material (external paper and
# exemplar dumps), not maintained documentation — their links point at
# assets that were never part of this repository.
for f in $(find . -name '*.md' -not -path './.git/*' -not -path './.bench_build/*' \
	-not -name PAPERS.md -not -name SNIPPETS.md | sort); do
	dir=$(dirname "$f")
	# One target per line: grep the inline-link closing `](target)`
	# shape; targets never contain spaces in this repo's docs.
	grep -o ']([^)]*)' "$f" 2>/dev/null | sed 's/^](//; s/)$//' |
		while IFS= read -r target; do
			case "$target" in
			http://* | https://* | mailto:* | '#'* | '') continue ;;
			esac
			path=${target%%#*}
			[ -n "$path" ] || continue
			if ! [ -e "$dir/$path" ]; then
				echo "check_docs: $f -> $target (missing $dir/$path)"
			fi
		done
done >"$out"

if [ -s "$out" ]; then
	cat "$out" >&2
	echo "check_docs: broken relative links found" >&2
	exit 1
fi
echo "check_docs: all relative markdown links resolve"
