#!/usr/bin/env sh
# loc.sh — print the number of lines of non-test Go in the repository:
# every *.go file except *_test.go, outside perfbench/ and .git/. This
# is the "fewer lines of non-test Go" figure simplicity changes are
# measured by.
#
# Usage: scripts/loc.sh   (from any directory inside the checkout)
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' \
	-not -path './perfbench/*' -not -path './.git/*' -print0 |
	xargs -0 cat | wc -l | tr -d ' '
