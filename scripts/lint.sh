#!/usr/bin/env bash
# Local lint gate mirroring the CI lint job: gofmt, go vet with the
# repo's indlint invariant suite, go vet of the perfbench module, and
# staticcheck/shellcheck when they are installed. Run it before pushing:
#
#   ./scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "+ gofmt -l ."
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
  echo "gofmt needed on:" >&2
  echo "$fmt" >&2
  fail=1
fi

echo "+ go build ./..."
go build ./...

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
echo "+ go build -o indlint ./cmd/indlint"
go build -o "$bindir/indlint" ./cmd/indlint
echo "+ go vet -vettool=indlint ./..."
go vet -vettool="$bindir/indlint" ./... || fail=1

# perfbench is its own module, so ./... above does not reach it; vet it
# as CI's perfbench job does, so that a deleted name it still uses
# fails here rather than in the benchmark run.
echo "+ go -C perfbench vet ./..."
go -C perfbench vet ./... || fail=1

if command -v staticcheck >/dev/null 2>&1; then
  echo "+ staticcheck ./..."
  staticcheck ./... || fail=1
else
  echo "staticcheck not installed; skipping (CI runs it)"
fi

if command -v shellcheck >/dev/null 2>&1; then
  echo "+ shellcheck scripts/*.sh"
  shellcheck scripts/*.sh || fail=1
else
  echo "shellcheck not installed; skipping (CI runs it)"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK"
