#!/usr/bin/env bash
# End-to-end smoke test for the serving pipeline: run batch discovery
# over examples/data with indfind -out, then boot the indserved daemon
# on the exported directory and drive every endpoint over real HTTP —
# membership probes for planted and absent values, a sketch containment
# estimate, lookup of the planted IND, on-demand re-verification, an
# atomic reload, metrics — and finally a clean SIGTERM shutdown. CI runs
# this on every push; it is also handy locally:
#
#   ./scripts/serve-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
workdir=$(mktemp -d)
serverpid=""
cleanup() {
  [ -n "$serverpid" ] && kill -9 "$serverpid" 2>/dev/null
  rm -rf "$bindir" "$workdir"
  return 0
}
trap cleanup EXIT

fail() { echo "serve-smoke: $*" >&2; exit 1; }

go build -o "$bindir/indfind" ./cmd/indfind
go build -o "$bindir/indserved" ./cmd/indserved
data=examples/data

# Batch discovery: export value files + sketches and persist the result
# set the daemon will serve.
echo "+ indfind -csv $data -algo spider-merge -sketch -workdir $workdir -out $workdir/INDS.json"
out=$("$bindir/indfind" -csv "$data" -algo spider-merge -sketch -workdir "$workdir" -out "$workdir/INDS.json")
grep -q "transcripts.gene_id ⊆ genes.gene_id" <<<"$out" \
  || fail "batch discovery lost the planted IND"
[ -s "$workdir/INDS.json" ] || fail "indfind -out wrote no result set"

# Boot the daemon on an ephemeral port and parse the listen line.
echo "+ indserved -addr 127.0.0.1:0 -dataset smoke=$workdir"
"$bindir/indserved" -addr 127.0.0.1:0 -dataset "smoke=$workdir" \
  >"$workdir/serve.out" 2>"$workdir/serve.err" &
serverpid=$!
base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's/^indserved: listening on //p' "$workdir/serve.out")
  [ -n "$base" ] && break
  kill -0 "$serverpid" 2>/dev/null || { cat "$workdir/serve.err" >&2; fail "daemon died on startup"; }
  sleep 0.1
done
[ -n "$base" ] || fail "daemon never printed its listen address"

get() { curl -sf "$base$1"; }

# Liveness.
get /healthz | grep -q '"status":"ok"' || fail "healthz not ok"

# Membership: planted value g1 is in genes.gene_id; g999 is not.
echo "+ member probes"
out=$(get "/v1/member?attr=genes.gene_id&value=g1")
grep -q '"member":true' <<<"$out" || fail "g1 not a member: $out"
out=$(get "/v1/member?attr=genes.gene_id&value=g999")
grep -q '"member":false' <<<"$out" || fail "g999 reported present: $out"

# Containment: the planted exact IND may not be refuted by its sketches.
echo "+ containment estimate"
out=$(get "/v1/containment?dep=transcripts.gene_id&ref=genes.gene_id")
grep -q '"refutes_exact":false' <<<"$out" || fail "sketches refute a true IND: $out"

# The discovered verdict set contains the planted IND.
echo "+ inds lookup"
out=$(get "/v1/inds?ref=genes.gene_id")
grep -q '"dep":"transcripts.gene_id"' <<<"$out" || fail "planted IND not served: $out"

# On-demand re-verification agrees with the batch run.
echo "+ verify"
out=$(get "/v1/verify?dep=transcripts.gene_id&ref=genes.gene_id")
grep -q '"satisfied":true' <<<"$out" || fail "verify refuted the planted IND: $out"
grep -q '"matches_discovery":true' <<<"$out" || fail "verify disagrees with discovery: $out"

# Atomic reload bumps the generation; queries keep working.
echo "+ reload"
curl -sf -X POST "$base/v1/reload" | grep -q '"generation":2' || fail "reload did not reach generation 2"
get "/v1/member?attr=genes.gene_id&value=g1" | grep -q '"member":true' \
  || fail "membership broken after reload"

# Metrics report the traffic this script generated.
echo "+ metrics"
out=$(get /metrics)
grep -q '"member"' <<<"$out" || fail "metrics missing member endpoint: $out"
grep -q '"generation":2' <<<"$out" || fail "metrics report a stale generation: $out"

# Clean shutdown on SIGTERM: exit 0 and the completion line.
echo "+ SIGTERM"
kill -TERM "$serverpid"
status=0
wait "$serverpid" || status=$?
[ "$status" -eq 0 ] || fail "daemon exited $status on SIGTERM"
grep -q "shutdown complete" "$workdir/serve.out" || fail "no shutdown message"
serverpid=""

echo "serve-smoke: OK"
