#!/usr/bin/env bash
# reach.sh builds every command, every example and the benchmark with Go's
# binary coverage, runs them the way CI and the docs run them, and writes the
# per-function coverage of cmd/, internal/ and examples/ that
# TestReachability judges:
#
#   bash internal/apiguard/reach.sh OUT
#   go test ./internal/apiguard/ -run TestReachability -reach OUT/func.txt
#
# OUT must not exist or be empty. A binary whose main package is not in
# -coverpkg writes no coverage, so bench/ is instrumented too; the test
# judges only cmd/, internal/ and examples/, and bench/'s own dead code is
# the benchmark's business. Everything runs on loopback ports 18470–18472.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:?usage: reach.sh OUT}"
mkdir -p "$out/bin" "$out/cover" "$out/run"
out="$(cd "$out" && pwd)"
bin="$out/bin" run="$out/run"
export GOCOVERDIR="$out/cover"

go build -cover -coverpkg=./cmd/...,./internal/...,./examples/...,./bench -o "$bin/" ./cmd/... ./examples/... ./bench

# Simulator: chaos with invariants, both engines' decision traces, replay,
# snapshots (Horus, and Lucid past its first refit), a fork, and the
# refusals the docs promise.
for s in fifo lucid tiresias horus; do
	"$bin/lucidsim" -trace venus -sched "$s" -scale 0.05 -invariants \
		-chaos "nodefail=2,jobcrash=4,gpufail=0.5,retries=3,backoff=60,stragglers=0.25,slowdown=0.5" >"$run/chaos-$s.txt"
	if grep -q 'violation:' "$run/chaos-$s.txt"; then
		echo "reach: invariant violations under -sched $s" >&2
		exit 1
	fi
done
for e in event tick; do
	"$bin/lucidsim" -engine "$e" -trace venus -sched all -scale 0.05 \
		-decision-trace "$run/t-$e.jsonl" -metrics-out "$run/m-$e.prom" >/dev/null
done
"$bin/lucidsim" -summarize "$run/t-event.lucid.jsonl" >/dev/null
for s in horus tiresias; do
	"$bin/lucidsim" -trace venus -sched "$s" -scale 0.02 -snapshot-at 86400 -snapshot-out "$run/$s.snap" >/dev/null
	"$bin/lucidsim" -trace venus -sched "$s" -scale 0.02 -resume "$run/$s.snap" >/dev/null
done
# Venus×0.05 refits first at day 7, so this snapshot carries the refit models.
"$bin/lucidsim" -trace venus -sched lucid -scale 0.05 -snapshot-at 700000 -snapshot-out "$run/lucid.snap" >/dev/null
"$bin/lucidsim" -trace venus -sched lucid -scale 0.05 -resume "$run/lucid.snap" >/dev/null
"$bin/lucidsim" -trace venus -sched fifo -scale 0.02 -resume-at 86400 -with-scheduler sjf >/dev/null
if "$bin/lucidsim" -trace saturn -sched lucid -scale 0.05 -resume "$run/lucid.snap" >/dev/null 2>&1; then
	echo "reach: a snapshot resumed under the wrong world flags" >&2
	exit 1
fi

# The experiment harness, every experiment once.
"$bin/lucidbench" -list >/dev/null
"$bin/lucidbench" -exp all -scale 0.05 >/dev/null

# lucidd: every endpoint, a drained shutdown, a reboot from the snapshot it
# wrote, a kill -9 and a reboot from the WAL. Coverage counters are written
# only when a process exits, so every endpoint is hit again in the last
# process, which drains.
up() {
	for _ in $(seq 1 100); do
		curl -sf "http://$1/healthz" >/dev/null && return 0
		sleep 0.2
	done
	echo "reach: lucidd on $1 did not come up" >&2
	return 1
}
stop() {
	kill "$1"
	wait "$1" || true
}
a=127.0.0.1:18470
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
for boot in drain kill drain; do
	"$bin/lucidd" -addr "$a" -shards 4 -state-dir "$run/state" -chaos 2>>"$run/lucidd.log" &
	pid=$!
	up "$a"
	every
	if [ "$boot" = kill ]; then
		kill -9 "$pid"
		wait "$pid" 2>/dev/null || true
	else
		stop "$pid"
	fi
done

# The load harness at the default queue depth, then at a 2-deep queue that
# answers 429.
"$bin/lucidd" -addr 127.0.0.1:18471 -shards 4 2>>"$run/lucidd.log" &
pid=$!
up 127.0.0.1:18471
"$bin/lucidload" -addr http://127.0.0.1:18471 -agents 256 -vcs 8 -workers 4 -duration 2s -verify-acks >"$run/load-1.txt"
stop "$pid"
"$bin/lucidd" -addr 127.0.0.1:18472 -shards 4 -state-dir "$run/state-q2" -ingest-queue 2 2>>"$run/lucidd.log" &
pid=$!
up 127.0.0.1:18472
"$bin/lucidload" -addr http://127.0.0.1:18472 -agents 256 -vcs 8 -workers 4 -duration 2s -verify-acks >"$run/load-2.txt"
stop "$pid"

# The examples, the trace generator and the benchmark's smoke run.
for d in examples/*; do
	"$bin/$(basename "$d")" >/dev/null
done
"$bin/tracegen" -trace venus -jobs 500 >/dev/null
(cd "$run" && "$bin/bench" -tiny -trace 1 >/dev/null)

go tool covdata func -i "$GOCOVERDIR" >"$out/func.txt"
go tool covdata percent -i "$GOCOVERDIR" >"$out/percent.txt"
tail -n 1 "$out/func.txt"
