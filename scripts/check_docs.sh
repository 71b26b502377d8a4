#!/bin/sh
# check_docs.sh — keep the documentation graph unbroken. Extracts every
# markdown link target `](...)` from the repository's *.md files,
# ignores external links (http/https/mailto) and pure in-page anchors
# (#...), strips any #fragment from the rest, and verifies each
# remaining relative path resolves from the linking file's directory.
#
# A second pass holds the maintained docs (README.md, DESIGN.md,
# docs/*.md) to the test suite: every Test*/Benchmark*/Fuzz*/Example*
# name inside a backticked span or a code block must be a func in some
# .go file, where a trailing `*` matches as a prefix. EXPERIMENTS.md
# and CHANGES.md are history and may name tests since deleted.
#
# A doc that moves, a file that's renamed, a typo'd cross-reference or
# a test renamed away fails this check with one line per broken link or
# name. CI runs it on every push; `make check-docs` runs it locally.
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

funcs=$(mktemp)
trap 'rm -f "$out" "$funcs"' EXIT INT TERM
grep -rhoE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' --include='*.go' \
	--exclude-dir=.git --exclude-dir=.bench_build . | sed 's/^func //' | sort -u >"$funcs"
for f in README.md DESIGN.md docs/*.md; do
	# Joining the lines keeps a span that wraps whole; a fence's body
	# pairs up as one span between its two runs of backticks.
	tr '\n' ' ' <"$f" | grep -o '`[^`]*`' |
		grep -oE '\b(Test|Benchmark|Fuzz|Example)([A-Z0-9_][A-Za-z0-9_]*)?\b\*?' | sort -u |
		while IFS= read -r name; do
			case "$name" in
			*'*') grep -q "^${name%'*'}" "$funcs" ;;
			*) grep -qxF "$name" "$funcs" ;;
			esac || echo "check_docs: $f names \`$name\`, which no .go file defines"
		done
done >"$out"

if [ -s "$out" ]; then
	cat "$out" >&2
	echo "check_docs: test names without a func found" >&2
	exit 1
fi
echo "check_docs: every test name in the docs resolves"
