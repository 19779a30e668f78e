#!/usr/bin/env bash
# reach.sh runs every command-line check of the repository. It builds every
# command, every example and the benchmark with Go's binary coverage, runs
# them the way the docs run them, stops at the first check a run fails, and
# writes the per-function coverage of cmd/, internal/ and examples/ that
# TestReachability judges:
#
#   bash internal/apiguard/reach.sh OUT
#   go test ./internal/apiguard/ -run TestReachability -reach OUT/func.txt
#
# The checks: chaos runs free of invariant violations under both engines;
# byte-equal decision traces from the event engine and the tick oracle; one
# digest for an uninterrupted, a snapshotting and a resumed run; lucidd's
# recovery after kill -9; lucidload's backpressure and acks; and the flags
# the commands must refuse.
#
# OUT must not exist or be empty; every file and state directory the runs
# write is under it. A binary whose main package is not in -coverpkg writes
# no coverage, so bench/ is instrumented too; the test judges only cmd/,
# internal/ and examples/, and bench/'s own dead code is the benchmark's
# business. Everything runs on loopback ports 18470–18473.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:?usage: reach.sh OUT}"
mkdir -p "$out/bin" "$out/cover" "$out/run"
out="$(cd "$out" && pwd)"
bin="$out/bin" run="$out/run"
export GOCOVERDIR="$out/cover"

go build -cover -coverpkg=./cmd/...,./internal/...,./examples/...,./bench -o "$bin/" ./cmd/... ./examples/... ./bench

# A failed check leaves no daemon behind on the ports.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT
fail() {
	echo "reach: $*" >&2
	exit 1
}
# exits CODE CMD... fails unless CMD exits with CODE; CMD's output is left in
# $run/exit.txt.
exits() {
	local want=$1 got=0
	shift
	"$@" >"$run/exit.txt" 2>&1 || got=$?
	[ "$got" = "$want" ] || fail "$* exited $got, want $want"
}

sim="$bin/lucidsim"
faults="nodefail=2,jobcrash=4,gpufail=0.5,retries=3,backoff=60,stragglers=0.25,slowdown=0.5"

# Chaos at aggressive rates with invariant checking, under the event engine
# (the ticks it executes) and the tick oracle (every tick). Lucid takes
# requeued unprofiled jobs back into its profiler list; Tiresias's
# preemptions, the queues backoff hides and the node failures exercise the
# engine's per-VC indexes and cluster.Audit's counters.
for e in event tick; do
	for s in fifo lucid tiresias horus; do
		"$sim" -engine "$e" -trace venus -sched "$s" -scale 0.05 -invariants -chaos "$faults" >"$run/chaos-$e-$s.txt"
		if grep -q 'violation:' "$run/chaos-$e-$s.txt"; then
			fail "invariant violations under -engine $e -sched $s"
		fi
	done
done

# The event engine and the tick oracle write byte-equal decision traces for
# all six schedulers.
for e in event tick; do
	"$sim" -engine "$e" -trace venus -sched all -scale 0.05 \
		-decision-trace "$run/t-$e.jsonl" -metrics-out "$run/m-$e.prom" >/dev/null
done
for s in fifo sjf qssf horus tiresias lucid; do
	cmp "$run/t-event.$s.jsonl" "$run/t-tick.$s.jsonl" || fail "-sched $s: the engines' decision traces differ"
done
"$sim" -summarize "$run/t-event.lucid.jsonl" >/dev/null

# check NAME FLAGS...: the run with FLAGS, the same run snapshotting at
# 700000 and the run resumed from that snapshot print one decision-trace
# digest. The resumed run snapshots again at once, so it writes the world it
# resumed. Each snapshot line names the clock of the world written: the first
# tick boundary at or after 700000.
check() {
	local name=$1 want got now f
	shift
	"$sim" "$@" -decision-trace "$run/sr-$name-full.jsonl" >"$run/sr-$name-full.txt"
	"$sim" "$@" -snapshot-at 700000 -snapshot-out "$run/sr-$name-snap.snap" \
		-decision-trace "$run/sr-$name-snap.jsonl" >"$run/sr-$name-snap.txt"
	"$sim" "$@" -resume "$run/sr-$name-snap.snap" -snapshot-at 1 -snapshot-out "$run/sr-$name-resume.snap" \
		-decision-trace "$run/sr-$name-resume.jsonl" >"$run/sr-$name-resume.txt"
	want=$(grep '^decision trace:' "$run/sr-$name-full.txt")
	for f in snap resume; do
		got=$(grep '^decision trace:' "$run/sr-$name-$f.txt" || true)
		[ "$got" = "$want" ] || fail "$name: the $f run printed '$got', want '$want'"
		now=$(grep -ao '"now":[0-9]*' "$run/sr-$name-$f.snap" | sed -n '1s/"now"://p')
		grep -q "^snapshot at t=$now " "$run/sr-$name-$f.txt" ||
			fail "$name: the $f run's snapshot line is not 'snapshot at t=$now': $(grep '^snapshot at' "$run/sr-$name-$f.txt")"
	done
	cmp "$run/sr-$name-snap.snap" "$run/sr-$name-resume.snap" || fail "$name: the resumed world snapshots differently"
}
# Venus×0.05 refits first at day 7, so Lucid's snapshot carries the refit
# models; Horus and Tiresias carry policy state; FIFO runs under the chaos
# spec.
check lucid -trace venus -sched lucid -scale 0.05
check horus -trace venus -sched horus -scale 0.05
check tiresias -trace venus -sched tiresias -scale 0.05
check fifo -trace venus -sched fifo -scale 0.05 -chaos "$faults"
# A fork: a FIFO snapshot resumed under SJF, with fresh SJF policy state. A
# snapshot resumed under other world flags is refused.
"$sim" -trace venus -sched fifo -scale 0.02 -snapshot-at 86400 -snapshot-out "$run/fork.snap" >/dev/null
"$sim" -trace venus -sched sjf -scale 0.02 -resume "$run/fork.snap" >/dev/null
exits 1 "$sim" -trace saturn -sched lucid -scale 0.05 -resume "$run/sr-lucid-snap.snap"
# World flags outside their range are refused before anything is built.
exits 2 "$sim" -trace venus -sched fifo -scale 0.02 -util X
exits 2 "$sim" -trace venus -sched fifo -scale 0
exits 2 "$bin/lucidbench" -exp tab6 -scale 0

# The experiment harness, every experiment once, fanned out over the worker
# pool. A typo'd id fails the whole selection with exit 2 before anything
# runs.
"$bin/lucidbench" -list >/dev/null
"$bin/lucidbench" -exp all -scale 0.05 -parallel 4 -metrics-out "$run/lucidbench.prom" >/dev/null
exits 2 "$bin/lucidbench" -exp tab6,updaet -scale 0.05
if ! grep -q 'unknown experiment "updaet"' "$run/exit.txt" || grep -q '^=== ' "$run/exit.txt"; then
	fail "lucidbench -exp tab6,updaet: $(cat "$run/exit.txt")"
fi

# lucidd. Coverage counters are written only when a process exits, so every
# endpoint is hit in each process that drains.
up() {
	for _ in $(seq 1 100); do
		curl -sf "http://$1/healthz" >/dev/null && return 0
		sleep 0.2
	done
	fail "lucidd on $1 did not come up"
}
stop() {
	kill "$1"
	wait "$1" || true
}
a=127.0.0.1:18470
state="$run/state"
every() {
	curl -sf -XPOST "$a/jobs" -d '{"name":"train-a","user":"u","vc":"vc0","gpus":2}' >/dev/null
	curl -sf -XPOST "$a/jobs" -d '{"name":"train-b","user":"u","vc":"vc1","gpus":1}' >/dev/null
	for _ in 1 2 3; do
		curl -sf -XPOST "$a/metrics" -d '{"job":1,"gpu_util":12,"gpu_mem_mb":1400,"gpu_mem_util":8}' >/dev/null
	done
	curl -sf -XPOST "$a/agents" -d '{"name":"agent-a","vc":"vc0","node":0}' >/dev/null
	curl -sf -XPOST "$a/agents" -d '{"name":"agent-b","vc":"vc1","node":1}' >/dev/null
	for q in jobs 'jobs?vc=vc0' schedule 'schedule?vc=vc0' agents 'agents?vc=vc1' models/packing trace 'trace?format=jsonl' healthz statusz metrics; do
		curl -sf "$a/$q" >/dev/null
	done
	curl -sf -XPOST "$a/chaos" -d '{"action":"fail-job","job":2}' >/dev/null
	curl -sf -XPOST "$a/chaos" -d '{"action":"evict-agent","agent":"agent-a"}' >/dev/null
	curl -sf -XPOST "$a/chaos" -d '{"action":"delay","delay_ms":1}' >/dev/null
	curl -sf -XPOST "$a/chaos" -d '{"action":"delay","delay_ms":0}' >/dev/null
	curl -sf "$a/jobs" >/dev/null
}

# Kill and recover on the sharded layout: jobs submitted into two VCs (two
# shards), a metric sample, two agents heartbeating and one of them
# chaos-evicted, then SIGKILL: no drain, no final snapshot.
"$bin/lucidd" -addr "$a" -shards 4 -state-dir "$state" -chaos 2>>"$run/lucidd.log" &
pid=$!
up "$a"
curl -sf -XPOST "$a/jobs" -d '{"name":"train-a","user":"ci","vc":"vc0","gpus":2}' >/dev/null
curl -sf -XPOST "$a/jobs" -d '{"name":"train-b","user":"ci","vc":"vc1","gpus":1}' >/dev/null
curl -sf -XPOST "$a/metrics" -d '{"job":1,"gpu_util":11,"gpu_mem_mb":1200,"gpu_mem_util":7}' >/dev/null
curl -sf -XPOST "$a/agents" -d '{"name":"agent-doomed","vc":"vc0","node":0}' >/dev/null
curl -sf -XPOST "$a/agents" -d '{"name":"agent-survivor","vc":"vc1","node":1}' >/dev/null
curl -sf -XPOST "$a/chaos" -d '{"action":"evict-agent","agent":"agent-doomed"}' >/dev/null
# Telemetry is acked 202 once queued: a read flushes every shard's queue to
# the WAL before the kill (the eviction flushes only the shards it visits).
curl -sf "$a/jobs" >/dev/null
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
# One state directory per shard, and the layout refuses another shard count
# rather than misroute.
test -d "$state/shard-0" && test -d "$state/shard-3" || fail "no per-shard state directories in $state"
exits 1 timeout 10 "$bin/lucidd" -addr 127.0.0.1:18473 -shards 2 -state-dir "$state"
grep -q 'bound to the shard count' "$run/exit.txt" || fail "lucidd -shards 2 on a 4-shard state dir: $(cat "$run/exit.txt")"
# Every shard recovers from its own WAL: everything acknowledged before the
# kill is served again, and the replayed eviction keeps the agent out of the
# listing. The scrape shows request and fsync latency, the queue, the
# recovery summed over shards, and the per-shard gauges.
"$bin/lucidd" -addr "$a" -shards 4 -state-dir "$state" -chaos 2>>"$run/lucidd.log" &
pid=$!
up "$a"
body=$(curl -sf "$a/jobs")
for p in '"name":"train-a"' '"name":"train-b"' '"samples":1'; do
	grep -q "$p" <<<"$body" || fail "after kill -9, GET /jobs has no $p: $body"
done
body=$(curl -sf "$a/agents")
grep -q '"name":"agent-survivor"' <<<"$body" || fail "after kill -9, GET /agents has no agent-survivor: $body"
if grep -q 'agent-doomed' <<<"$body"; then
	fail "the replayed evict-agent left agent-doomed in the listing: $body"
fi
curl -sf "$a/statusz" >/dev/null || fail "after kill -9, GET /statusz failed"
body=$(curl -sf "$a/metrics")
for p in '^# TYPE lucidd_http_request_seconds histogram' '^# TYPE lucidd_wal_fsync_seconds histogram' \
	'^lucidd_queue_depth 2' '^lucidd_recovered_wal_records 6' '^lucidd_shards 4' \
	'^lucidd_shard_jobs{shard=' '^lucidd_ingest_queue_depth{shard='; do
	grep -q "$p" <<<"$body" || fail "after kill -9, GET /metrics has no line matching $p"
done
# Then every endpoint, a drained shutdown, and a reboot from the snapshot
# the drain wrote.
every
stop "$pid"
"$bin/lucidd" -addr "$a" -shards 4 -state-dir "$state" -chaos 2>>"$run/lucidd.log" &
pid=$!
up "$a"
every
stop "$pid"

# -ingest-batch and synchronous telemetry ingest are gone: the help text
# lists neither.
exits 0 "$bin/lucidd" -h
grep -q 'ingest-queue' "$run/exit.txt" || fail "lucidd -h printed no help text"
if grep -qi 'ingest-batch\|synchronous' "$run/exit.txt"; then
	fail "lucidd -h still lists -ingest-batch or synchronous ingest"
fi
# The load harness against the default queue depth, then against a durable
# daemon whose queues are 2 deep under 4 workers, so that 429 backpressure
# fires. Every 429 counts as a rejection, not an error, and -verify-acks
# finds every 201-acked job still served by GET /jobs.
"$bin/lucidd" -addr 127.0.0.1:18471 -shards 4 2>>"$run/lucidd.log" &
pid=$!
up 127.0.0.1:18471
"$bin/lucidload" -addr http://127.0.0.1:18471 -agents 256 -vcs 8 -workers 4 -duration 3s -verify-acks >"$run/load-1.txt"
stop "$pid"
for p in 'req/s' 'errors=0' 'dropped=0'; do
	grep -q "$p" "$run/load-1.txt" || fail "lucidload at the default queue depth printed no $p"
done
"$bin/lucidd" -addr 127.0.0.1:18472 -shards 4 -state-dir "$run/state-q2" -ingest-queue 2 2>>"$run/lucidd.log" &
pid=$!
up 127.0.0.1:18472
"$bin/lucidload" -addr http://127.0.0.1:18472 -agents 256 -vcs 8 -workers 4 -duration 3s -verify-acks >"$run/load-2.txt"
stop "$pid"
for p in 'errors=0' 'rejected429=[1-9]' 'dropped=0'; do
	grep -Eq "$p" "$run/load-2.txt" || fail "lucidload at -ingest-queue 2 printed no $p"
done

# The examples, the trace generator and the benchmark's smoke run.
for d in examples/*; do
	"$bin/$(basename "$d")" >/dev/null
done
"$bin/tracegen" -trace venus -jobs 500 >/dev/null
(cd "$run" && "$bin/bench" -tiny -trace 1 >/dev/null)

go tool covdata func -i "$GOCOVERDIR" >"$out/func.txt"
go tool covdata percent -i "$GOCOVERDIR" >"$out/percent.txt"
tail -n 1 "$out/func.txt"
