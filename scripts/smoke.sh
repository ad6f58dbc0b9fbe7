#!/usr/bin/env bash
# End-to-end smoke test: build cmd/indfind and profile the CSV tables in
# examples/data in exact, partial, n-ary and embedded modes — in both
# value-file encodings (-format text and -format block) and across the
# storage backends (-backend fs|mem|snapshot|spill) — asserting that
# each mode discovers the INDs planted in the data and exits zero. Every
# run gets a fresh, empty TMPDIR, and the smoke fails if anything is
# left in it. CI runs this on every push; it is also handy locally:
#
#   ./scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)/indfind
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/indfind
valbin=$(dirname "$bin")/valconvert
go build -o "$valbin" ./cmd/valconvert
data=examples/data

fail() { echo "smoke: $*" >&2; exit 1; }

# From here on every temporary directory a run makes lands in one fresh
# TMPDIR, checked empty at the end.
export TMPDIR
TMPDIR=$(dirname "$bin")/tmp
mkdir "$TMPDIR"

# embedded prints the summary line of an -embedded run without its
# wall time, so that runs on different backends compare equal.
embedded() {
  # shellcheck disable=SC2068
  "$bin" -csv "$data" -algo spider-merge -embedded $@ \
    | grep '(embedded spider-merge)' | sed -E 's/, [^,]* \(embedded/ (embedded/'
}

for fmt in text block; do
  # Exact discovery: transcripts.gene_id ⊆ genes.gene_id must be found by
  # every engine, with and without the sketch pre-filter.
  for args in \
    "-algo brute-force" \
    "-algo spider-merge" \
    "-algo spider-merge -sketch" \
    "-algo spider-merge -backend spill -sketch" \
    "-algo in-memory"; do
    echo "+ indfind -csv $data -format $fmt $args"
    # shellcheck disable=SC2086
    out=$("$bin" -csv "$data" -format "$fmt" $args)
    grep -q "transcripts.gene_id ⊆ genes.gene_id" <<<"$out" \
      || fail "expected exact IND missing for: -format $fmt $args"
  done

  # Partial INDs: xrefs.gene covers 9 of its 10 distinct values in
  # genes.gene_id — satisfied at σ = 0.9, invisible to exact discovery.
  echo "+ indfind -csv $data -format $fmt -algo spider-merge -partial 0.9"
  out=$("$bin" -csv "$data" -format "$fmt" -algo spider-merge -partial 0.9)
  grep -q "xrefs.gene ⊆ genes.gene_id" <<<"$out" \
    || fail "expected partial IND xrefs.gene ⊆ genes.gene_id missing (-format $fmt)"

  # N-ary: (gene_id, tax_id) of transcripts matches genes row-wise, so
  # level 2 must verify at least one IND.
  echo "+ indfind -csv $data -format $fmt -algo spider-merge -nary 2"
  out=$("$bin" -csv "$data" -format "$fmt" -algo spider-merge -nary 2)
  grep -Eq "n-ary INDs \(arity 2\.\.2\): [1-9]" <<<"$out" \
    || fail "no arity-2 INDs discovered (-format $fmt)"
  grep -q "transcripts.gene_id" <<<"$out" \
    || fail "arity-2 IND does not involve transcripts.gene_id (-format $fmt)"

  # Embedded: the derived value sets share the run's fs dataset; the
  # summary must match on every backend (checked below).
  echo "+ indfind -csv $data -format $fmt -algo spider-merge -embedded"
  emb=$(embedded -format "$fmt")
  [ -n "$emb" ] || fail "no embedded summary (-format $fmt)"
  embref=${embref:-$emb}
  [ "$emb" = "$embref" ] || fail "embedded summary differs (-format $fmt): $emb vs $embref"
done

# Storage backends: the same exact, partial and n-ary discoveries must
# hold with the value sets staged in memory, served from a read-only
# snapshot, or replayed from frozen sort runs — no value files ever
# touch disk on these paths.
for backend in mem snapshot spill; do
  echo "+ indfind -csv $data -backend $backend -algo spider-merge"
  out=$("$bin" -csv "$data" -backend "$backend" -algo spider-merge)
  grep -q "transcripts.gene_id ⊆ genes.gene_id" <<<"$out" \
    || fail "expected exact IND missing for: -backend $backend"

  echo "+ indfind -csv $data -backend $backend -algo spider-merge -partial 0.9"
  out=$("$bin" -csv "$data" -backend "$backend" -algo spider-merge -partial 0.9)
  grep -q "xrefs.gene ⊆ genes.gene_id" <<<"$out" \
    || fail "expected partial IND missing (-backend $backend)"

  echo "+ indfind -csv $data -backend $backend -algo spider-merge -nary 2"
  out=$("$bin" -csv "$data" -backend "$backend" -algo spider-merge -nary 2)
  grep -Eq "n-ary INDs \(arity 2\.\.2\): [1-9]" <<<"$out" \
    || fail "no arity-2 INDs discovered (-backend $backend)"

  echo "+ indfind -csv $data -backend $backend -algo spider-merge -embedded"
  emb=$(embedded -backend "$backend")
  [ "$emb" = "$embref" ] || fail "embedded summary differs (-backend $backend): $emb vs $embref"
done

# A spill-backed run removes its value sets on return, so -out must be
# refused before discovery starts.
if "$bin" -csv "$data" -backend spill -algo spider-merge -out "$(dirname "$bin")/x.json" >/dev/null 2>&1; then
  fail "-out with -backend spill must exit non-zero"
fi

# valconvert -backend mem stages the conversion in memory and verifies
# it against the source without writing a destination file.
valdir=$(dirname "$bin")/val
"$bin" -csv "$data" -algo spider-merge -workdir "$valdir/work" >/dev/null
sample=$(find "$valdir/work" -name '*.val' | head -1)
[ -n "$sample" ] || fail "no value files exported for valconvert check"
echo "+ valconvert -backend mem -verify $sample"
out=$("$valbin" -backend mem -verify "$sample")
grep -q "staged in memory" <<<"$out" || fail "valconvert mem backend did not stage in memory"

left=$(ls -A "$TMPDIR")
[ -z "$left" ] || fail "runs left temporary files behind: $left"

echo "smoke: OK"
