#!/usr/bin/env bash
# CI correctness gate for the dynamic-update subsystem: it requires
# that after any sequence of edge insertions the served
# answers are exactly those of a from-scratch rebuild of the updated
# graph — at EVERY background-flatten cadence — and that the epoch
# publish is atomic and observable.
#
#   1. synthesise a graph and split its edges into a base set and an
#      insertion wave; `pll build` the base index and the full rebuild,
#   2. for each --flatten-threshold in {1, 8, never}: start `pll serve
#      --graph base --flatten-threshold T`, apply the insertion wave as
#      UPDATE frames while a concurrent query load runs (serve_load
#      --updates), asserting the epoch advanced (`epoch 0 -> k` from the
#      client side),
#   3. probe `pll stats --addr` (live INFO): threshold 1 must drain the
#      overlay back to a flat base (flatten generation >= 1, overlay
#      entries 0); `never` must keep serving the overlay (generation 0),
#   4. byte-diff the post-update online answers against `pll query` over
#      the from-scratch rebuild of the FULL graph — overlay-direct and
#      flattened serving are answer-indistinguishable,
#   5. byte-diff the offline `pll update` flatten against the same
#      rebuild (CLI and server agree with each other and with the
#      rebuild),
#   6. SHUTDOWN must end each server cleanly.
#
# Usage:
#   scripts/update_smoke.sh [N] [PAIRS] [THREADS]
#     N        graph vertices                (default 1500)
#     PAIRS    verification query pairs      (default 2000)
#     THREADS  build + serve worker threads  (default 2)
set -euo pipefail

cd "$(dirname "$0")/.."

N="${1:-1500}"
PAIRS="${2:-2000}"
THREADS="${3:-2}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

cargo build --release -p pll-cli
cargo build --release -p pll-bench --bin serve_load
PLL=./target/release/pll
LOAD=./target/release/serve_load

# Base: a ring plus every third chord. Insertions: the remaining chords
# (including some component-shaping long-range ones).
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
cat "$WORK/base.txt" "$WORK/new.txt" > "$WORK/full.txt"
awk -v n="$N" -v q="$PAIRS" 'BEGIN {
  seed = 424242
  for (i = 0; i < q; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648; s = seed % n
    seed = (seed * 1103515245 + 12345) % 2147483648; t = seed % n
    print s, t
  }
}' > "$WORK/pairs.txt"

"$PLL" build "$WORK/base.txt" "$WORK/base.idx" --threads "$THREADS" --bp-roots 4
"$PLL" build "$WORK/full.txt" "$WORK/rebuilt.idx" --threads "$THREADS" --bp-roots 4
"$PLL" query "$WORK/rebuilt.idx" - < "$WORK/pairs.txt" > "$WORK/offline_rebuild.txt"

# One pass per flatten cadence: eager (every batch), batched, and never
# (overlay-direct forever). The served answers must be byte-identical to
# the rebuild regardless of whether the flattener ever ran.
for FT in 1 8 never; do
  echo "=== flatten-threshold $FT ==="
  "$PLL" serve --index "$WORK/base.idx" --graph "$WORK/base.txt" \
    --addr 127.0.0.1:0 --threads "$THREADS" --flatten-threshold "$FT" \
    > "$WORK/serve_$FT.out" 2> "$WORK/serve_$FT.err" &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(grep -m1 -oE 'listening on [0-9.:]+' "$WORK/serve_$FT.out" 2>/dev/null | awk '{print $3}' || true)"
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "server exited early:" >&2
      cat "$WORK/serve_$FT.err" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "server never reported its address" >&2; exit 1; }
  echo "server listening on $ADDR (pid $SERVER_PID)"

  # Apply the insertion wave under concurrent query load; the epoch line
  # proves the publish was client-visible.
  "$LOAD" --addr "$ADDR" --pairs "$WORK/pairs.txt" --batch 32 --connections 4 \
    --updates "$WORK/new.txt" --update-batch 32 2> "$WORK/mix_$FT.log"
  cat "$WORK/mix_$FT.log" >&2
  grep -qE 'epoch 0 -> [1-9]' "$WORK/mix_$FT.log" || {
    echo "FAIL: epoch did not advance under UPDATE load (threshold $FT)" >&2
    exit 1
  }

  # Live INFO via the CLI: the flatten generation / overlay size must
  # reflect the cadence we asked for.
  case "$FT" in
    1)
      # Eager flattening: poll until the background flattener has drained
      # the overlay back to a flat base at least once.
      DRAINED=0
      for _ in $(seq 1 150); do
        "$PLL" stats --addr "$ADDR" > "$WORK/stats_$FT.txt"
        if grep -qE 'overlay entries: *0$' "$WORK/stats_$FT.txt" \
           && grep -qE 'flatten generation: *[1-9]' "$WORK/stats_$FT.txt"; then
          DRAINED=1
          break
        fi
        sleep 0.1
      done
      cat "$WORK/stats_$FT.txt" >&2
      [ "$DRAINED" -eq 1 ] || {
        echo "FAIL: threshold 1 never drained the overlay into a flat base" >&2
        exit 1
      }
      ;;
    never)
      "$PLL" stats --addr "$ADDR" > "$WORK/stats_$FT.txt"
      cat "$WORK/stats_$FT.txt" >&2
      grep -qE 'flatten generation: *0$' "$WORK/stats_$FT.txt" || {
        echo "FAIL: threshold never must not flatten" >&2
        exit 1
      }
      grep -qE 'overlay entries: *[1-9]' "$WORK/stats_$FT.txt" || {
        echo "FAIL: threshold never must keep serving the overlay" >&2
        exit 1
      }
      ;;
    *)
      "$PLL" stats --addr "$ADDR" > "$WORK/stats_$FT.txt"
      cat "$WORK/stats_$FT.txt" >&2
      ;;
  esac

  # Post-update online answers vs the from-scratch rebuild of the full
  # graph.
  "$LOAD" --addr "$ADDR" --pairs "$WORK/pairs.txt" --batch 32 --connections 2 \
    --answers-out "$WORK/online_$FT.txt" --shutdown
  if ! diff -q "$WORK/online_$FT.txt" "$WORK/offline_rebuild.txt" > /dev/null; then
    echo "FAIL: online answers differ from the offline rebuild (threshold $FT)" >&2
    diff "$WORK/online_$FT.txt" "$WORK/offline_rebuild.txt" | head -20 >&2
    exit 1
  fi
  echo "online answers byte-identical to the rebuild ($PAIRS pairs, threshold $FT)"

  SERVER_EXIT=0
  wait "$SERVER_PID" || SERVER_EXIT=$?
  SERVER_PID=""
  if [ "$SERVER_EXIT" -ne 0 ]; then
    echo "FAIL: server exited with status $SERVER_EXIT (threshold $FT)" >&2
    cat "$WORK/serve_$FT.err" >&2
    exit 1
  fi
  echo "server (threshold $FT) shut down cleanly"
done

# The offline incremental path must agree too.
"$PLL" update "$WORK/base.idx" "$WORK/base.txt" "$WORK/new.txt" \
  -o "$WORK/updated.idx" --threads "$THREADS"
"$PLL" query "$WORK/updated.idx" - < "$WORK/pairs.txt" > "$WORK/offline_update.txt"
if ! diff -q "$WORK/offline_update.txt" "$WORK/offline_rebuild.txt" > /dev/null; then
  echo "FAIL: pll update answers differ from the offline rebuild" >&2
  diff "$WORK/offline_update.txt" "$WORK/offline_rebuild.txt" | head -20 >&2
  exit 1
fi
echo "pll update flatten byte-identical to the from-scratch rebuild"
echo "update smoke OK across flatten thresholds {1, 8, never}"
