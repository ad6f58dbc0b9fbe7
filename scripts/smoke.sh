#!/usr/bin/env bash
# End-to-end smoke test: build cmd/indfind and profile the CSV tables in
# examples/data in exact, partial, n-ary and embedded modes across the
# storage backends (-backend fs|mem|snapshot|spill), asserting that each
# mode discovers the INDs planted in the data and exits zero, and round
# trips an -out export through valconvert's text encoding and back to
# block files that indserved loads. Every run gets a fresh, empty
# TMPDIR, and the smoke fails if anything is left in it. CI runs this on
# every push; it is also handy locally:
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

# Exact discovery: transcripts.gene_id ⊆ genes.gene_id must be found by
# every engine, with and without the sketch pre-filter.
for args in \
  "-algo brute-force" \
  "-algo spider-merge" \
  "-algo spider-merge -sketch" \
  "-algo spider-merge -backend spill -sketch" \
  "-algo in-memory"; do
  echo "+ indfind -csv $data $args"
  # shellcheck disable=SC2086
  out=$("$bin" -csv "$data" $args)
  grep -q "transcripts.gene_id ⊆ genes.gene_id" <<<"$out" \
    || fail "expected exact IND missing for: $args"
done

# Partial INDs: xrefs.gene covers 9 of its 10 distinct values in
# genes.gene_id — satisfied at σ = 0.9, invisible to exact discovery.
echo "+ indfind -csv $data -algo spider-merge -partial 0.9"
out=$("$bin" -csv "$data" -algo spider-merge -partial 0.9)
grep -q "xrefs.gene ⊆ genes.gene_id" <<<"$out" \
  || fail "expected partial IND xrefs.gene ⊆ genes.gene_id missing"

# N-ary: (gene_id, tax_id) of transcripts matches genes row-wise, so
# level 2 must verify at least one IND.
echo "+ indfind -csv $data -algo spider-merge -nary 2"
out=$("$bin" -csv "$data" -algo spider-merge -nary 2)
grep -Eq "n-ary INDs \(arity 2\.\.2\): [1-9]" <<<"$out" \
  || fail "no arity-2 INDs discovered"
grep -q "transcripts.gene_id" <<<"$out" \
  || fail "arity-2 IND does not involve transcripts.gene_id"

# Embedded: the derived value sets share the run's fs dataset; the
# summary must match on every backend (checked below).
echo "+ indfind -csv $data -algo spider-merge -embedded"
embref=$(embedded)
[ -n "$embref" ] || fail "no embedded summary"

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

# CSV dialect: a copy of the tables with every field quoted and CRLF
# line ends must load into the same tables and give the same INDs.
quoted=$(dirname "$bin")/quoted
mkdir "$quoted"
for f in "$data"/*.csv; do
  # The rewrite quotes each comma-separated field as it stands, which
  # is right only while no field holds a quote or a comma.
  if grep -q '"' "$f"; then fail "$f holds a quote"; fi
  awk -F, -v OFS=, '{ for (i = 1; i <= NF; i++) $i = "\"" $i "\""; printf "%s\r\n", $0 }' \
    "$f" >"$quoted/$(basename "$f")"
done
echo "+ indfind -csv <quoted CRLF copy of $data> -algo spider-merge"
want=$("$bin" -csv "$data" -algo spider-merge | grep '⊆')
got=$("$bin" -csv "$quoted" -algo spider-merge | grep '⊆')
[ -n "$want" ] || fail "no INDs found on $data"
[ "$got" = "$want" ] || fail "quoted CRLF copy gives different INDs: $got vs $want"

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

# valconvert round trip of an -out export: to the text interchange
# encoding (indserved must refuse it and name valconvert), then back to
# block files, which indserved must load again.
servebin=$(dirname "$bin")/indserved
go build -o "$servebin" ./cmd/indserved
export_dir=$(dirname "$bin")/export
"$bin" -csv "$data" -algo spider-merge -sketch -workdir "$export_dir" -out "$export_dir/INDS.json" >/dev/null
echo "+ valconvert -format text -dir $export_dir"
out=$("$valbin" -format text -dir "$export_dir")
grep -q "dropping SKCH section" <<<"$out" || fail "valconvert -format text kept the sketch sections"
if err=$("$servebin" -addr 127.0.0.1:0 -dataset "smoke=$export_dir" 2>&1 </dev/null); then
  fail "indserved loaded a text export"
fi
grep -q "valconvert -format block" <<<"$err" || fail "indserved's text-export error does not name valconvert: $err"
echo "+ valconvert -format block -verify -dir $export_dir"
"$valbin" -format block -verify -dir "$export_dir" >/dev/null
"$servebin" -addr 127.0.0.1:0 -dataset "smoke=$export_dir" >"$export_dir/serve.out" 2>&1 &
servepid=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$export_dir/serve.out" && break
  kill -0 "$servepid" 2>/dev/null || { cat "$export_dir/serve.out" >&2; fail "indserved did not load the round-tripped export"; }
  sleep 0.1
done
grep -q "listening on" "$export_dir/serve.out" || fail "indserved never listened on the round-tripped export"
kill -TERM "$servepid"
wait "$servepid" || fail "indserved did not shut down cleanly"

left=$(ls -A "$TMPDIR")
[ -z "$left" ] || fail "runs left temporary files behind: $left"

echo "smoke: OK"
