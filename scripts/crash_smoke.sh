#!/usr/bin/env bash
# Crash-recovery gate for the durable dynamic-serving path, and the
# generator of BENCH_recovery.json. What it requires is
# end-to-end equivalence: for every fault-injection site in the
# durability pipeline, kill -9 the server (std::process::abort at the
# site), restart it against the same --wal journal, and the recovered
# answers must be byte-identical to an offline reconstruction that
# replays the journal's own dump (`pll wal`) onto the pristine base
# index with `pll update`.
#
# Per fault site (wal.after_append, serve.before_publish,
# wal.after_commit, snapshot.before_rename):
#
#   1. serve a pristine copy of the base index with --wal and a small
#      --snapshot-every so compaction happens mid-run, with
#      PLL_FAILPOINTS arming the site's K-th hit to abort,
#   2. drive UPDATE batches at it until it dies (the driver is expected
#      to fail; the server must exit non-zero),
#   3. restart clean on the same index file + journal, require the
#      `wal recovery:` line, capture online answers, SHUTDOWN,
#   4. `pll wal` dump -> `pll update` onto the pristine index ->
#      `pll query`, byte-diff against the online answers.
#
# Then an overload phase: 1 worker, --max-pending 1, 8 retrying
# connections. Every connection must converge (exit 0) while the server
# sheds with STATUS_BUSY, and the client must report retries > 0.
#
# Recovery times, replay stats, shed and retry counts are composed into
# OUT as JSON.
#
# Usage:
#   scripts/crash_smoke.sh [N] [PAIRS] [OUT] [THREADS]
#     N        graph vertices                (default 400)
#     PAIRS    verification query pairs      (default 1000)
#     OUT      JSON report path              (default BENCH_recovery.json)
#     THREADS  build + serve worker threads  (default 2)
set -euo pipefail

cd "$(dirname "$0")/.."

N="${1:-400}"
PAIRS="${2:-1000}"
OUT="${3:-BENCH_recovery.json}"
THREADS="${4:-2}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Failpoints are compiled in (but unarmed sites are no-ops, so the same
# binary also serves the overload phase).
cargo build --release -p pll-cli --features failpoints
cargo build --release -p pll-bench --bin serve_load
PLL=./target/release/pll
LOAD=./target/release/serve_load

# Base: a ring plus every third chord. Insertions: the remaining chords
# plus some long-range ones — enough UPDATE batches that every fault
# site (including the snapshot path) is reachable mid-run.
awk -v n="$N" 'BEGIN {
  for (i = 0; i < n; i++) {
    print i, (i + 1) % n
    if (i % 3 == 0) print i, (i * 7 + 3) % n
  }
}' > "$WORK/base.txt"
awk -v n="$N" 'BEGIN {
  for (i = 0; i < n; i++) {
    if (i % 3 != 0) print i, (i * 7 + 3) % n
    if (i % 11 == 0) print i, (i * 31 + 17) % n
  }
}' > "$WORK/new.txt"
awk -v n="$N" -v q="$PAIRS" 'BEGIN {
  seed = 424242
  for (i = 0; i < q; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648; s = seed % n
    seed = (seed * 1103515245 + 12345) % 2147483648; t = seed % n
    print s, t
  }
}' > "$WORK/pairs.txt"

"$PLL" build "$WORK/base.txt" "$WORK/orig.idx" --threads "$THREADS" --bp-roots 4

start_server() { # args: index wal extra-env-spec (empty = no failpoints)
  local index="$1" wal="$2" spec="$3"
  : > "$WORK/serve.out"
  : > "$WORK/serve.err"
  # --flatten-threshold 1: every applied batch kicks the background
  # flattener, so the flatten.* sites are reached within a batch or two.
  if [ -n "$spec" ]; then
    PLL_FAILPOINTS="$spec" "$PLL" serve --index "$index" --graph "$WORK/base.txt" \
      --addr 127.0.0.1:0 --threads "$THREADS" \
      --wal "$wal" --snapshot-every 4 --flatten-threshold 1 \
      > "$WORK/serve.out" 2> "$WORK/serve.err" &
  else
    "$PLL" serve --index "$index" --graph "$WORK/base.txt" \
      --addr 127.0.0.1:0 --threads "$THREADS" \
      --wal "$wal" --snapshot-every 4 --flatten-threshold 1 \
      > "$WORK/serve.out" 2> "$WORK/serve.err" &
  fi
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(grep -m1 -oE 'listening on [0-9.:]+' "$WORK/serve.out" 2>/dev/null | awk '{print $3}' || true)"
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "server exited early:" >&2
      cat "$WORK/serve.err" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "server never reported its address" >&2; exit 1; }
}

SITES="wal.after_append=3*abort serve.before_publish=3*abort wal.after_commit=2*abort snapshot.before_rename=1*abort flatten.before_swap=2*abort flatten.after_swap=2*abort"
SITE_ROWS=""
for SPEC in $SITES; do
  SITE="${SPEC%%=*}"
  echo "=== fault site: $SITE ($SPEC) ==="
  cp "$WORK/orig.idx" "$WORK/site.idx"
  rm -f "$WORK/site.wal"

  # Phase 1: serve with the site armed and drive updates until it dies.
  start_server "$WORK/site.idx" "$WORK/site.wal" "$SPEC"
  echo "armed server on $ADDR (pid $SERVER_PID)"
  timeout 120 "$LOAD" --addr "$ADDR" --pairs "$WORK/pairs.txt" --batch 32 \
    --connections 2 --updates "$WORK/new.txt" --update-batch 32 \
    > /dev/null 2> "$WORK/load_crash.log" || true
  CRASH_EXIT=0
  wait "$SERVER_PID" || CRASH_EXIT=$?
  SERVER_PID=""
  if [ "$CRASH_EXIT" -eq 0 ]; then
    echo "FAIL: server survived an armed abort at $SITE" >&2
    exit 1
  fi
  echo "server killed at $SITE (exit $CRASH_EXIT)"

  # Phase 2: restart clean; recovery must replay the journal.
  start_server "$WORK/site.idx" "$WORK/site.wal" ""
  grep -m1 'wal recovery:' "$WORK/serve.err" || {
    echo "FAIL: restarted server reported no recovery" >&2
    cat "$WORK/serve.err" >&2
    exit 1
  }
  RECOV="$(grep -m1 'wal recovery:' "$WORK/serve.err")"
  timeout 120 "$LOAD" --addr "$ADDR" --pairs "$WORK/pairs.txt" --batch 32 \
    --connections 2 --answers-out "$WORK/online.txt" --shutdown \
    2> "$WORK/load_verify.log"
  RESTART_EXIT=0
  wait "$SERVER_PID" || RESTART_EXIT=$?
  SERVER_PID=""
  if [ "$RESTART_EXIT" -ne 0 ]; then
    echo "FAIL: recovered server exited with status $RESTART_EXIT" >&2
    cat "$WORK/serve.err" >&2
    exit 1
  fi

  # Phase 3: offline reconstruction from the journal's own dump. The
  # dump (rebase + update edges) applied to the PRISTINE base index must
  # reproduce the recovered server's answers exactly — replay is
  # idempotent, so at-least-once journaling still converges to the same
  # index.
  "$PLL" wal "$WORK/site.wal" > "$WORK/dumped.txt" 2> "$WORK/wal_stats.log"
  cat "$WORK/wal_stats.log" >&2
  if [ -s "$WORK/dumped.txt" ]; then
    "$PLL" update "$WORK/orig.idx" "$WORK/base.txt" "$WORK/dumped.txt" \
      -o "$WORK/replayed.idx" --threads "$THREADS"
  else
    cp "$WORK/orig.idx" "$WORK/replayed.idx"
  fi
  "$PLL" query "$WORK/replayed.idx" - < "$WORK/pairs.txt" > "$WORK/offline.txt"
  if ! diff -q "$WORK/online.txt" "$WORK/offline.txt" > /dev/null; then
    echo "FAIL: recovered answers differ from the offline WAL replay ($SITE)" >&2
    diff "$WORK/online.txt" "$WORK/offline.txt" | head -20 >&2
    exit 1
  fi
  echo "recovered answers byte-identical to the offline WAL replay ($PAIRS pairs)"

  # Row for the JSON report, parsed from the recovery line:
  # wal recovery: epoch E, B batches replayed (X edges, U uncommitted),
  #               R rebase edges, T torn bytes truncated, S s
  ROW="$(echo "$RECOV" | awk -v site="$SITE" '{
    gsub(/[(),]/, "")
    printf "    {\"site\": \"%s\", \"recovered_epoch\": %s, \"replayed_batches\": %s, \"replayed_edges\": %s, \"uncommitted_batches\": %s, \"rebase_edges\": %s, \"truncated_bytes\": %s, \"recovery_seconds\": %s}", \
      site, $4, $5, $8, $10, $12, $15, $19
  }')"
  if [ -n "$SITE_ROWS" ]; then SITE_ROWS="$SITE_ROWS,
$ROW"; else SITE_ROWS="$ROW"; fi
done

echo "=== overload: 1 worker, --max-pending 1, 8 retrying connections ==="
rm -f "$WORK/over.wal"
cp "$WORK/orig.idx" "$WORK/over.idx"
"$PLL" serve --index "$WORK/over.idx" --graph "$WORK/base.txt" \
  --addr 127.0.0.1:0 --threads 1 --max-pending 1 \
  > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(grep -m1 -oE 'listening on [0-9.:]+' "$WORK/serve.out" 2>/dev/null | awk '{print $3}' || true)"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address" >&2; exit 1; }
timeout 120 "$LOAD" --addr "$ADDR" --pairs "$WORK/pairs.txt" --batch 1 \
  --connections 8 --retry --shutdown 2> "$WORK/overload.log"
cat "$WORK/overload.log" >&2
OVER_EXIT=0
wait "$SERVER_PID" || OVER_EXIT=$?
SERVER_PID=""
if [ "$OVER_EXIT" -ne 0 ]; then
  echo "FAIL: overloaded server exited with status $OVER_EXIT" >&2
  cat "$WORK/serve.err" >&2
  exit 1
fi
RETRY_LINE="$(grep -m1 '^retries:' "$WORK/overload.log" || true)"
[ -n "$RETRY_LINE" ] || { echo "FAIL: --retry reported no retry line" >&2; exit 1; }
RETRIES="$(echo "$RETRY_LINE" | awk '{print $2}')"
BUSY="$(echo "$RETRY_LINE" | awk '{gsub(/\(/, ""); print $3}')"
IOERRS="$(echo "$RETRY_LINE" | awk '{print $5}')"
SHEDS="$(grep -oE '[0-9]+ shed' "$WORK/serve.err" | awk '{print $1}' || echo 0)"
if [ "${RETRIES:-0}" -lt 1 ] || [ "${SHEDS:-0}" -lt 1 ]; then
  echo "FAIL: overload produced no shedding ($SHEDS shed) or no retries ($RETRIES)" >&2
  exit 1
fi
echo "overload converged: $SHEDS connections shed, $RETRIES client retries"

cat > "$OUT" <<EOF
{
  "timestamp_unix": $(date +%s),
  "num_vertices": $N,
  "pairs": $PAIRS,
  "fault_sites": [
$SITE_ROWS
  ],
  "overload": {
    "threads": 1,
    "max_pending": 1,
    "connections": 8,
    "sheds": $SHEDS,
    "retries": $RETRIES,
    "busy": $BUSY,
    "io": $IOERRS
  }
}
EOF
echo "report written to $OUT"
