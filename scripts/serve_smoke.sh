#!/bin/sh
# Crash-safety smoke for `nocmap serve`: feed two jobs through a spool
# directory, kill -9 the daemon mid-search, restart it over the same
# state directory, and require every job's final `done` result to be
# bit-identical to an uninterrupted reference run.
#
# Robust at either extreme of machine speed: a box fast enough to finish
# both jobs before the kill exercises the journal replay path (the
# restart re-emits recorded outcomes), while one killed before the first
# checkpoint exercises the fresh-start path — the comparison holds
# either way.
#
# Further checks ride along.  CLI/serve parity: one standard-budget
# job per algorithm through the daemon must place every core on the
# same tile as `nocmap map` with the same spec.  Hostile inputs: bad
# --noc/--flit values, an application whose simulated time would
# overflow the simulator and a 257x1 mesh, whose longest route passes
# more routers than the simulator can index, must be usage errors,
# never an uncaught exception; the daemon fails such a job with the
# reason and still completes the next one.
set -eu

CLI=${NOCMAP_CLI:-./_build/default/bin/nocmap_cli.exe}
DIR=${SERVE_SMOKE_DIR:-_build/serve-smoke}

rm -rf "$DIR"
mkdir -p "$DIR/spool-ref/incoming" "$DIR/spool-crash/incoming"

# An application sized so the quick-budget annealing runs for on the
# order of a second: long enough that kill -9 lands mid-search, short
# enough to keep the smoke fast.
"$CLI" gen --cores 18 --packets 1500 --bits 700000 --seed 7 \
  -o "$DIR/app.cdcg" >/dev/null

spec() { # id seed
  printf '{"id":"%s","app":{"path":"%s"},"noc":"5x4","model":"cdcm","algorithm":"sa","budget":"quick","seed":%s}\n' \
    "$1" "$DIR/app.cdcg" "$2"
}
for leg in ref crash; do
  spec job-a 3 >"$DIR/spool-$leg/incoming/job-a.json"
  spec job-b 5 >"$DIR/spool-$leg/incoming/job-b.json"
done

# Reference: drain the spool uninterrupted.
"$CLI" serve --state "$DIR/state-ref" --spool "$DIR/spool-ref" \
  --drain-once --checkpoint-every 300 >/dev/null 2>&1

# Crash leg: kill -9 the daemon ~0.5s in, then restart over the same
# state directory and let it drain.
"$CLI" serve --state "$DIR/state-crash" --spool "$DIR/spool-crash" \
  --drain-once --checkpoint-every 300 >/dev/null 2>&1 &
pid=$!
sleep 0.5
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

"$CLI" serve --state "$DIR/state-crash" --spool "$DIR/spool-crash" \
  --drain-once --checkpoint-every 300 >/dev/null 2>&1

# Compare the `result` payload of the last `done` line per job.  The
# crash leg may carry `"replayed":true` on a journal-replayed outcome,
# so only the result itself — placement, cost, evaluations, energy,
# timing — must match byte for byte.
status=0
for id in job-a job-b; do
  ok=1
  for leg in ref crash; do
    f="$DIR/spool-$leg/replies/$id.jsonl"
    if ! grep -q '"status":"done"' "$f" 2>/dev/null; then
      echo "serve-smoke: $leg run has no done reply for $id" >&2
      status=1
      ok=0
    fi
  done
  [ "$ok" -eq 1 ] || continue
  ref=$(grep '"status":"done"' "$DIR/spool-ref/replies/$id.jsonl" | tail -1 |
    sed 's/.*"result"://')
  crash=$(grep '"status":"done"' "$DIR/spool-crash/replies/$id.jsonl" | tail -1 |
    sed 's/.*"result"://')
  if [ "$ref" = "$crash" ]; then
    echo "serve-smoke: $id result bit-identical across kill -9 + restart"
  else
    echo "serve-smoke: $id result diverged after kill -9 + resume" >&2
    echo "  reference: $ref" >&2
    echo "  resumed:   $crash" >&2
    status=1
  fi
done
# CLI/serve parity: both front ends execute the same run dispatcher, so
# the placements must agree for every algorithm.
mkdir -p "$DIR/spool-parity/incoming"
algs="sa local greedy+local random es portfolio decompose"
for alg in $algs; do
  id=par-$(echo "$alg" | tr '+' '-')
  printf '{"id":"%s","app":{"builtin":"fft8"},"noc":"3x3","algorithm":"%s","seed":9}\n' \
    "$id" "$alg" >"$DIR/spool-parity/incoming/$id.json"
done
"$CLI" serve --state "$DIR/state-parity" --spool "$DIR/spool-parity" \
  --drain-once >/dev/null 2>&1
for alg in $algs; do
  id=par-$(echo "$alg" | tr '+' '-')
  "$CLI" map --builtin fft8 --noc 3x3 --algorithm "$alg" --seed 9 \
    --save "$DIR/$id.placement" >/dev/null 2>&1
  cli=$(awk '$1 == "core" { print $4 }' "$DIR/$id.placement" | paste -sd, -)
  served=$(grep '"status":"done"' "$DIR/spool-parity/replies/$id.jsonl" 2>/dev/null |
    tail -1 | sed 's/.*"placement":\[\([0-9,]*\)\].*/\1/')
  if [ -n "$cli" ] && [ "$cli" = "$served" ]; then
    echo "serve-smoke: $alg placement identical in CLI and serve ($cli)"
  else
    echo "serve-smoke: $alg placement differs: CLI [$cli], serve [$served]" >&2
    status=1
  fi
done

# Hostile inputs: a usage error (non-zero exit), never an internal error.
# The last application's simulated time could overflow the simulator's
# event encoding.
printf 'application big\ncores a b\npacket p0 a -> b compute 200000000000 bits 16\n' \
  >"$DIR/big.cdcg"
"$CLI" gen --cores 2 --packets 2 --bits 100 --seed 1 -o "$DIR/two.cdcg" >/dev/null
for args in "map --noc 3xq --builtin fft8" "profile --noc 0x3 --builtin fft8" \
  "map --noc 3x3 --builtin fft8 --flit 0" \
  "map --noc 2x1 --model cdcm --app $DIR/big.cdcg" \
  "eval --noc 257x1 --app $DIR/two.cdcg --placement 0,256" \
  "map --noc 257x1 --app $DIR/two.cdcg" \
  "profile --noc 257x1 --app $DIR/two.cdcg --quick" \
  "faults --noc 257x1 --app $DIR/two.cdcg --quick"; do
  # shellcheck disable=SC2086 # word-splitting the argument list is intended
  if "$CLI" $args >/dev/null 2>"$DIR/hostile.err"; then
    echo "serve-smoke: 'nocmap $args' exited 0" >&2
    status=1
  elif grep -q "internal error" "$DIR/hostile.err"; then
    echo "serve-smoke: 'nocmap $args' raised an internal error" >&2
    status=1
  else
    echo "serve-smoke: 'nocmap $args' is a usage error"
  fi
done

# The daemon fails the 257x1 job with the route-limit reason, then
# completes the job queued after it.
mkdir -p "$DIR/spool-long/incoming"
printf '{"id":"long-1","app":{"path":"%s"},"noc":"257x1","algorithm":"sa","budget":"quick"}\n' \
  "$DIR/two.cdcg" >"$DIR/spool-long/incoming/long-1.json"
printf '{"id":"long-2","app":{"builtin":"fft8"},"noc":"3x3","algorithm":"sa","budget":"quick","seed":9}\n' \
  >"$DIR/spool-long/incoming/long-2.json"
"$CLI" serve --state "$DIR/state-long" --spool "$DIR/spool-long" \
  --drain-once >/dev/null 2>&1
if grep '"status":"failed"' "$DIR/spool-long/replies/long-1.jsonl" 2>/dev/null |
  grep -q "256-router limit"; then
  echo "serve-smoke: 257x1 job failed with the route-limit reason"
else
  echo "serve-smoke: 257x1 job did not fail with the route-limit reason" >&2
  status=1
fi
if grep -q '"status":"done"' "$DIR/spool-long/replies/long-2.jsonl" 2>/dev/null; then
  echo "serve-smoke: the job after it completed"
else
  echo "serve-smoke: the job after the 257x1 one did not complete" >&2
  status=1
fi
exit $status
