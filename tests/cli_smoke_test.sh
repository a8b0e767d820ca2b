#!/usr/bin/env bash
# End-to-end smoke test of the sans CLI: generate → stats → mine
# (several algorithms) → rules → exclusions → truth → convert, checking
# exit codes and basic output invariants.
set -euo pipefail

SANS_BIN="$1"
WORK_DIR="$(mktemp -d "${TMPDIR:-/tmp}/sans_cli_smoke.XXXXXX")"
trap 'rm -rf "$WORK_DIR"' EXIT

cd "$WORK_DIR"

echo "== generate =="
"$SANS_BIN" generate --kind news --out corpus.sans --rows 4000 \
    --cols 1200 --seed 11 | tee generate.out
grep -q 'planted 16 collocations' generate.out
test -s corpus.sans

echo "== stats =="
"$SANS_BIN" stats --in corpus.sans | tee stats.out
grep -q 'rows: 4000' stats.out
grep -q 'cols: 1200' stats.out

echo "== mine (each algorithm) =="
for algo in mh kmh mlsh hlsh auto; do
  "$SANS_BIN" mine --in corpus.sans --algorithm "$algo" \
      --threshold 0.6 --seed 5 > "mine_$algo.out"
  head -1 "mine_$algo.out" | grep -q 'pairs'
done
# MH with generous k is the reference; kmh must agree on the pair set.
tail -n +2 mine_mh.out | cut -f1,2 | sort > mh_pairs.txt
tail -n +2 mine_kmh.out | cut -f1,2 | sort > kmh_pairs.txt
diff mh_pairs.txt kmh_pairs.txt

echo "== run report =="
"$SANS_BIN" mine --in corpus.sans --algorithm mh --threshold 0.6 \
    --seed 5 --run-report report.json > mine_report.out 2> mine_report.err
python3 -m json.tool report.json > /dev/null
grep -q '"rows_scanned"' report.json
grep -q '"phases"' report.json
grep -q '"1-signatures"' report.json
grep -q '"candidates_generated"' report.json
# The CLI prints the phase table alongside the pairs.
grep -q '^total' mine_report.err
grep -q 'rows scanned:' mine_report.err

echo "== truth matches mh =="
"$SANS_BIN" truth --in corpus.sans --threshold 0.6 > truth.out
tail -n +2 truth.out | cut -f1,2 | sort > truth_pairs.txt
diff truth_pairs.txt mh_pairs.txt

echo "== rules =="
"$SANS_BIN" rules --in corpus.sans --threshold 0.95 --k 150 > rules.out
head -1 rules.out | grep -q 'rules'

echo "== exclusions =="
"$SANS_BIN" exclusions --in corpus.sans --support 0.02 \
    --max-lift 0.2 > exclusions.out
head -1 exclusions.out | grep -q 'anticorrelated'

echo "== convert round trip =="
"$SANS_BIN" convert --in corpus.sans --out corpus.txt
"$SANS_BIN" convert --in corpus.txt --out corpus2.sans
"$SANS_BIN" stats --in corpus2.sans | grep -q 'rows: 4000'

echo "== sketch / pairs =="
"$SANS_BIN" sketch --in corpus.sans --out corpus.sketch --k 120 --seed 9
test -s corpus.sketch
"$SANS_BIN" pairs --sketch corpus.sketch --threshold 0.5 > pairs.out
head -1 pairs.out | grep -q 'ESTIMATED'

echo "== clusters / disjunctions =="
"$SANS_BIN" clusters --in corpus.sans --threshold 0.5 --min-size 3 > clusters.out
head -1 clusters.out | grep -q 'clusters'
"$SANS_BIN" disjunctions --in corpus.sans --threshold 0.6 > disj.out
head -1 disj.out | grep -q 'disjunction'

echo "== checkpointed mining with resume =="
"$SANS_BIN" mine --in corpus.sans --algorithm mlsh --threshold 0.6 \
    --seed 5 --checkpoint-dir ckpt > mine_ckpt1.out 2> mine_ckpt1.err
test -s ckpt/MANIFEST.json
test -s ckpt/signatures.bin
test -s ckpt/pairs.bin
# Simulate a crash that lost the final stage; resume must reuse the
# checkpointed signatures and candidates and recompute only the pairs.
rm ckpt/pairs.bin
"$SANS_BIN" mine --in corpus.sans --algorithm mlsh --threshold 0.6 \
    --seed 5 --checkpoint-dir ckpt --resume \
    > mine_ckpt2.out 2> mine_ckpt2.err
grep -q 'reusing checkpointed signatures' mine_ckpt2.err
grep -q 'reusing checkpointed candidates' mine_ckpt2.err
# The '#' header embeds wall-clock timings, so compare pairs only.
grep -v '^#' mine_ckpt1.out > ckpt_pairs1.txt
grep -v '^#' mine_ckpt2.out > ckpt_pairs2.txt
diff ckpt_pairs1.txt ckpt_pairs2.txt
# A full resume with everything intact replays the stored pairs.
"$SANS_BIN" mine --in corpus.sans --algorithm mlsh --threshold 0.6 \
    --seed 5 --checkpoint-dir ckpt --resume \
    > mine_ckpt3.out 2> mine_ckpt3.err
grep -q 'reusing checkpointed verified pairs' mine_ckpt3.err
grep -v '^#' mine_ckpt3.out > ckpt_pairs3.txt
diff ckpt_pairs1.txt ckpt_pairs3.txt

echo "== index / serve / query round trip =="
"$SANS_BIN" index --in corpus.sans --out corpus.sidx --k 256 --seed 9 \
    | tee index.out
grep -q 'wrote corpus.sidx' index.out
test -s corpus.sidx

# Ephemeral port: the server prints the port it bound, the script
# parses it back. Runs in the background; always reaped on exit.
"$SANS_BIN" serve --index corpus.sidx --port 0 --threads 2 \
    > serve.out 2> serve.err &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK_DIR"' EXIT
for _ in $(seq 50); do
  grep -q 'listening on' serve.out && break
  sleep 0.1
done
PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' serve.out)"
test -n "$PORT"

"$SANS_BIN" query --port "$PORT" --ping | grep -q '^ok$'

# Top-k answers must agree with brute-force truth: for each truth pair
# above the threshold, querying the left column must return the right
# column among its neighbors with a similar score.
"$SANS_BIN" query --port "$PORT" --col 0 --k 5 > query0.out
grep -q 'neighbors of column 0' query0.out
while read -r a b sim; do
  "$SANS_BIN" query --port "$PORT" --col "$a" --k 5 > "query_$a.out"
  grep -q "^$b	" "query_$a.out" || {
    echo "query --col $a missed truth partner $b (sim $sim)" >&2
    exit 1
  }
done < <(tail -n +2 truth.out | head -5)

# Pair similarity estimate for a truth pair must land near the exact
# value (k=256 sketches; tolerance 0.15).
read -r TA TB TSIM < <(tail -n +2 truth.out | head -1)
EST="$("$SANS_BIN" query --port "$PORT" --a "$TA" --b "$TB" | cut -f3)"
awk -v est="$EST" -v exact="$TSIM" \
    'BEGIN { d = est - exact; if (d < 0) d = -d; exit !(d < 0.15) }'

"$SANS_BIN" query --port "$PORT" --stats > qstats.out
grep -q 'requests:' qstats.out
grep -q 'errors: 0' qstats.out

# Prometheus scrape over the wire: per-type request counters and
# latency quantiles for the traffic this script just generated.
"$SANS_BIN" stats "127.0.0.1:$PORT" > metrics.out
grep -q '# TYPE sans_serve_requests_total counter' metrics.out
grep -q 'sans_serve_requests_total{type="topk"}' metrics.out
grep -q 'sans_serve_request_seconds_bucket{type="topk",le="+Inf"}' metrics.out
grep -q 'sans_serve_request_seconds_p99{type="topk"}' metrics.out
grep -q 'sans_serve_active_connections' metrics.out

# Out-of-range queries come back as clean errors, not hangs/crashes.
if "$SANS_BIN" query --port "$PORT" --col 999999 2> bad_query.err; then
  echo "expected failure on out-of-range column" >&2
  exit 1
fi
grep -q 'InvalidArgument' bad_query.err

# Graceful shutdown on SIGTERM: the server prints its final summary.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'served .* requests' serve.out

echo "== bad input is rejected =="
if "$SANS_BIN" mine --in /nonexistent.sans --algorithm mh 2>/dev/null; then
  echo "expected failure on missing input" >&2
  exit 1
fi
if "$SANS_BIN" mine --in corpus.sans --algorithm bogus 2>/dev/null; then
  echo "expected failure on bad algorithm" >&2
  exit 1
fi

# A flag the command does not read exits 2 and is named, including
# the band flags the index dropped with .sidx v2.
expect_unknown_flag() {
  local flag="$1"
  shift
  local status=0
  "$SANS_BIN" "$@" > /dev/null 2> flag.err || status=$?
  test "$status" -eq 2
  grep -q -- "--$flag" flag.err
}
expect_unknown_flag bogus index --in corpus.sans --out bogus.sidx --bogus 3
expect_unknown_flag r index --in corpus.sans --out stale.sidx --r 4 --l 16
expect_unknown_flag bogus mine --in corpus.sans --algorithm mh --bogus
test ! -e bogus.sidx
test ! -e stale.sidx

# A 16-byte sketch header declaring 0xF0000000 columns is corrupt, not
# an allocation.
printf 'SKCH\x02\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\xf0' \
    > inflated.sketch
status=0
"$SANS_BIN" pairs --sketch inflated.sketch 2> inflated.err || status=$?
test "$status" -eq 1
grep -qi corrupt inflated.err

echo "CLI smoke test passed"
