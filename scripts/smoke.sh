#!/usr/bin/env bash
# End-to-end smoke test: build cmd/indfind and profile the CSV tables in
# examples/data in exact, partial and n-ary modes — in both value-file
# encodings (-format text and -format block) and across the storage
# backends (-backend fs|mem|snapshot|spill) — asserting that each mode
# discovers the INDs planted in the data and exits zero. CI runs this on
# every push; it is also handy locally:
#
#   ./scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)/indfind
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/indfind
data=examples/data

fail() { echo "smoke: $*" >&2; exit 1; }

for fmt in text block; do
  # Exact discovery: transcripts.gene_id ⊆ genes.gene_id must be found by
  # every engine, with and without the sketch pre-filter.
  for args in \
    "-algo brute-force" \
    "-algo spider-merge" \
    "-algo spider-merge -sketch" \
    "-algo spider-merge -backend spill -shards 4 -sketch" \
    "-algo in-memory"; do
    echo "+ indfind -csv $data -format $fmt $args"
    # shellcheck disable=SC2086
    out=$("$bin" -csv "$data" -format "$fmt" $args)
    grep -q "transcripts.gene_id ⊆ genes.gene_id" <<<"$out" \
      || fail "expected exact IND missing for: -format $fmt $args"
  done

  # Partial and n-ary runs, on one merge and on four value-range shards.
  for shards in "" "-shards 4"; do
    # Partial INDs: xrefs.gene covers 9 of its 10 distinct values in
    # genes.gene_id — satisfied at σ = 0.9, invisible to exact discovery.
    echo "+ indfind -csv $data -format $fmt -algo spider-merge -partial 0.9 $shards"
    # shellcheck disable=SC2086
    out=$("$bin" -csv "$data" -format "$fmt" -algo spider-merge -partial 0.9 $shards)
    grep -q "xrefs.gene ⊆ genes.gene_id" <<<"$out" \
      || fail "expected partial IND xrefs.gene ⊆ genes.gene_id missing (-format $fmt $shards)"

    # N-ary: (gene_id, tax_id) of transcripts matches genes row-wise, so
    # level 2 must verify at least one IND.
    echo "+ indfind -csv $data -format $fmt -algo spider-merge -nary 2 $shards"
    # shellcheck disable=SC2086
    out=$("$bin" -csv "$data" -format "$fmt" -algo spider-merge -nary 2 $shards)
    grep -Eq "n-ary INDs \(arity 2\.\.2\): [1-9]" <<<"$out" \
      || fail "no arity-2 INDs discovered (-format $fmt $shards)"
    grep -q "transcripts.gene_id" <<<"$out" \
      || fail "arity-2 IND does not involve transcripts.gene_id (-format $fmt $shards)"
  done
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
done

# A spill-backed run removes its value sets on return, so -out must be
# refused before discovery starts.
if "$bin" -csv "$data" -backend spill -algo spider-merge -out "$(dirname "$bin")/x.json" >/dev/null 2>&1; then
  fail "-out with -backend spill must exit non-zero"
fi

# valconvert -backend mem stages the conversion in memory and verifies
# it against the source without writing a destination file.
valbin=$(dirname "$bin")/valconvert
go build -o "$valbin" ./cmd/valconvert
valdir=$(mktemp -d)
"$bin" -csv "$data" -algo spider-merge -workdir "$valdir/work" >/dev/null
sample=$(find "$valdir/work" -name '*.val' | head -1)
[ -n "$sample" ] || fail "no value files exported for valconvert check"
echo "+ valconvert -backend mem -verify $sample"
out=$("$valbin" -backend mem -verify "$sample")
grep -q "staged in memory" <<<"$out" || fail "valconvert mem backend did not stage in memory"
rm -rf "$valdir"

echo "smoke: OK"
