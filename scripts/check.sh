#!/bin/sh
# Tier-1 verification: build, vet, full test suite with the race detector,
# then a checked fault-injection smoke run. Keep this green before merging.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== checked fault-injection smoke (charos -check -inject all)"
go run ./cmd/charos -exp table1 -window 2000000 -check -inject all >/dev/null

echo "== parallel-vs-serial determinism smoke (charos -exp figure11)"
serial=$(go run ./cmd/charos -exp figure11 -cpus 2,4 -window 1000000 -parallel 1 2>/dev/null)
pooled=$(go run ./cmd/charos -exp figure11 -cpus 2,4 -window 1000000 -parallel 8 2>/dev/null)
if [ "$serial" != "$pooled" ]; then
    echo "FAIL: -parallel 8 output diverges from -parallel 1" >&2
    exit 1
fi

echo "== streaming-vs-buffered determinism smoke (charos -buffered)"
streaming=$(go run ./cmd/charos -exp table1 -window 2000000 2>/dev/null)
buffered=$(go run ./cmd/charos -exp table1 -window 2000000 -buffered 2>/dev/null)
if [ "$streaming" != "$buffered" ]; then
    echo "FAIL: streaming pipeline output diverges from the buffered oracle" >&2
    exit 1
fi

echo "== fast-vs-reference determinism smoke (charos -reference)"
reference=$(go run ./cmd/charos -exp table1 -window 2000000 -reference 2>/dev/null)
if [ "$streaming" != "$reference" ]; then
    echo "FAIL: memory-system fast path output diverges from the -reference oracle" >&2
    exit 1
fi

echo "== sampled-simulation smoke (charos -exp report -sample, checker on)"
# A sampled checked run must complete, render ±stderr error bars on the
# extrapolated miss counts, and pass the invariant checker (functional
# warming keeps the shadow state coherent through fast-forward).
sampled=$(go run ./cmd/charos -exp report -window 2000000 -sample 20K:40K:200K -check 2>/dev/null)
echo "$sampled" | grep -q 'sampling: 20K:40K:200K' || {
    echo "FAIL: sampled report did not announce its schedule" >&2; exit 1; }
echo "$sampled" | grep -q '±' || {
    echo "FAIL: sampled report carried no error bars" >&2; exit 1; }

echo "== sampling-off determinism gate (report path vs buffered oracle)"
# With no -sample, the phase-structured pipeline must render byte-for-byte
# what the buffered oracle renders — the sampling refactor cannot perturb
# unsampled runs. The buffered flag is part of the config identity, so the
# "config <hash>" lines differ by design and are filtered out.
plainrep=$(go run ./cmd/charos -exp report -window 2000000 2>/dev/null)
bufrep=$(go run ./cmd/charos -exp report -window 2000000 -buffered 2>/dev/null)
if [ "$(echo "$plainrep" | grep -v '^config ')" != "$(echo "$bufrep" | grep -v '^config ')" ]; then
    echo "FAIL: unsampled report diverges from the buffered oracle" >&2
    exit 1
fi
echo "$plainrep" | grep -q 'sampling:' && {
    echo "FAIL: unsampled report mentions sampling" >&2; exit 1; }

echo "== default-machine oracle (zero Machine vs explicit arch.Default reports)"
go test -run 'TestDefaultMachineMatchesSeed' ./internal/report

echo "== geometry sweep smoke (charos -exp geometry, checker on)"
go run ./cmd/charos -exp geometry -window 1000000 >/dev/null

smoke=$(mktemp -d)
daemon=""
cleanup_smoke() {
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
    rm -rf "$smoke"
}
trap 'cleanup_smoke' EXIT

echo "== bad or misapplied flags are usage errors (charos)"
# Every flag is validated before any run starts: exit 2 with a message
# naming the flag, never a panic inside a worker. Each line is the flag
# the message must name, then the arguments.
go build -o "$smoke/charos" ./cmd/charos
while read -r name args; do
    status=0
    # shellcheck disable=SC2086 # the arguments are split on purpose
    "$smoke/charos" $args >/dev/null 2> "$smoke/usage.err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: charos $args exited $status, want 2" >&2; exit 1
    fi
    grep -q -- "$name" "$smoke/usage.err" || {
        echo "FAIL: charos $args did not name $name" >&2; exit 1; }
    if grep -q 'panicked' "$smoke/usage.err"; then
        echo "FAIL: charos $args panicked inside a run" >&2; exit 1
    fi
done <<'USAGE'
-ncpu -exp table1 -window 400000 -ncpu -3
-cpus -exp figure11 -cpus 2,abc
-workload -exp locks -workload nope
-sample -exp table1 -sample 20K:40K:200K
-sample -exp report -window 50000 -sample 30K:60K:430K
USAGE

echo "== charosd smoke (panic isolation, 429 shed, SIGTERM drain)"
go build -o "$smoke/charosd" ./cmd/charosd
caddr=127.0.0.1:18416
"$smoke/charosd" -addr "$caddr" -workers 1 -queue 1 -test-hooks \
    -drain-policy cancel -drain-timeout 20s 2> "$smoke/charosd.log" &
daemon=$!
# The submit client retries with backoff, so the first submission doubles
# as the ready-wait; it must print the run's report.
"$smoke/charosd" -submit -addr "$caddr" -seed 2 -window 400000 | grep -q '^run ' || {
    echo "FAIL: charosd returned no report for a healthy job" >&2; exit 1; }
# A forced-panic job (test hook) must resolve as a structured failure —
# nonzero exit, error kind "panic" — without killing the worker pool.
if "$smoke/charosd" -submit -addr "$caddr" -seed 2 -window 400000 -test-panic 2> "$smoke/panic.err"; then
    echo "FAIL: forced-panic job exited zero" >&2; exit 1
fi
grep -q 'panic' "$smoke/panic.err" || {
    echo "FAIL: panic job carried no structured panic error" >&2; exit 1; }
# Saturate: pin the single worker and the single queue slot with long
# runs (distinct seeds — dedup would collapse identical configs) …
"$smoke/charosd" -submit -nowait -addr "$caddr" -seed 3 -window 500000000 >/dev/null
"$smoke/charosd" -submit -nowait -addr "$caddr" -seed 4 -window 500000000 >/dev/null
# … then a no-retry submission must shed with 429 + Retry-After.
if "$smoke/charosd" -submit -nowait -retries -1 -addr "$caddr" -seed 5 -window 500000000 2> "$smoke/shed.err"; then
    echo "FAIL: saturated submission was not shed" >&2; exit 1
fi
grep -q '429' "$smoke/shed.err" || {
    echo "FAIL: shed submission did not surface the 429" >&2; exit 1; }
# SIGTERM: the drain must resolve every accepted job and exit 0.
kill -TERM "$daemon"
wait "$daemon" || { echo "FAIL: charosd exited nonzero after SIGTERM" >&2; exit 1; }
daemon=""
grep -q 'drain complete: all accepted jobs resolved' "$smoke/charosd.log" || {
    echo "FAIL: drain did not resolve all accepted jobs" >&2; exit 1; }

echo "== charosd load smoke (300 clients, bounded LRU cache, fixed pool)"
# A fresh daemon sized so the load overflows everything on purpose: the
# LRU cache (8 entries < 12 distinct configs), the job history (64 << 300
# jobs) and the admission queue (sheds retried by the clients). The load
# generator exits nonzero unless every client lands a byte-checked "done"
# job having seen only 200s and 429s.
laddr=127.0.0.1:18417
"$smoke/charosd" -addr "$laddr" -workers 2 -queue 4 \
    -cache-entries 8 -job-history 64 -retry-after 50ms \
    2> "$smoke/charosd-load.log" &
daemon=$!
"$smoke/charosd" -submit -addr "$laddr" -seed 9 -window 250000 -warmup 100000 >/dev/null
"$smoke/charosd" -load 300 -addr "$laddr" -load-hot 4 -load-distinct 8 \
    -window 250000 -warmup 100000 || {
    echo "FAIL: charosd load smoke lost clients or saw bad responses" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "FAIL: charosd exited nonzero after load + SIGTERM" >&2; exit 1; }
daemon=""
grep -q 'drain complete: all accepted jobs resolved' "$smoke/charosd-load.log" || {
    echo "FAIL: post-load drain did not resolve all accepted jobs" >&2; exit 1; }

echo "== same-host benchmark gate (bench.sh compare: base commit vs this tree)"
# Baseline and current run on this host in this session, so the gate
# compares like with like. The base is the merge base with main, or the
# parent commit when HEAD is itself on main; it is exported with git
# archive and benchmarked with its own scripts. The threshold is loose
# because one repetition on a shared runner is noisy.
head=$(git rev-parse HEAD)
base=$(git merge-base HEAD main 2>/dev/null || echo "$head")
[ "$base" = "$head" ] && base=$(git rev-parse HEAD^)
mkdir "$smoke/base"
git archive "$base" | tar -x -C "$smoke/base"
"$smoke/base/scripts/bench.sh" -count 1 -bench 'BenchmarkPipeline_FullCharacterization' \
    -phase baseline -out "$smoke/base.json" 2>/dev/null
scripts/bench.sh -count 1 -bench 'BenchmarkPipeline_FullCharacterization' \
    -out "$smoke/current.json" 2>/dev/null
scripts/bench.sh compare "$smoke/base.json" "$smoke/current.json" -threshold 50

echo "ok"
