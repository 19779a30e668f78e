// Command lucidd is a miniature non-intrusive control plane demonstrating
// deployment properties A1/A2: jobs are registered with plain metadata (no
// user-code hooks), resource metrics arrive as NVIDIA-SMI-style samples
// pushed by node agents, and the scheduler's view — Sharing Scores, duration
// estimates, priority order — is served over plain HTTP. Nothing here
// touches the training process.
//
//	go run ./cmd/lucidd -addr :8080
//	curl -XPOST localhost:8080/jobs -d '{"name":"train-v1","user":"alice","vc":"vc0","gpus":2}'
//	curl -XPOST localhost:8080/metrics -d '{"job":1,"gpu_util":55,"gpu_mem_mb":2600,"gpu_mem_util":38}'
//	curl -XPOST localhost:8080/agents -d '{"name":"agent-0","node":0}'
//	curl localhost:8080/schedule
//	curl localhost:8080/metrics        # GET: Prometheus scrape of the daemon itself
//
// The process is hardened against failing clients: request bodies are
// capped, slow-loris connections hit read/write deadlines, agents that stop
// heartbeating are evicted, and SIGINT/SIGTERM drain in-flight requests
// before the listener closes. -chaos additionally mounts POST /chaos for
// fault-injection during integration tests.
//
// With -shards N the control plane is partitioned into per-VC shards: each
// shard owns its slice of the job/agent tables behind its own mutex, VCs are
// hash-routed to shards, cluster-wide reads fan out and merge, and GET
// /metrics//healthz never touch a shard lock. With -state-dir the daemon is
// additionally durable: every mutating request is logged to a write-ahead
// log under <state-dir>/shard-<i>/ (job submissions fsynced before the ack),
// periodically compacted into a snapshot, and recovered shard-by-shard on
// boot — a SIGKILL loses nothing that was acknowledged, a torn WAL tail on
// one shard never touches a sibling — and snapshotted once more after a
// clean SIGTERM drain. A state dir is bound to the shard count that created
// it. Drive it with cmd/lucidload to measure sustained req/s and latency.
//
// Every state change is one logged op through one apply function. A
// telemetry POST (/metrics, /agents) is answered 202 once its op sits on its
// shard's queue of at most -ingest-queue ops (default 4,096), which whoever
// next holds the shard mutex drains through that function in ack order: the
// shard's drainer, fsyncing only once 64 records are unsynced, or a read
// flushing it; full queues shed load with 429 + Retry-After instead of
// blocking. Job submissions are applied inline (fsynced before the 201).
// Reads flush the queue first, so /jobs, /schedule and /agents observe every
// acked sample.
//
// GET /metrics serves the daemon's own instruments (request latency and
// status codes per endpoint, WAL append/fsync latency, snapshot cost, queue
// depth, agent count, recovery stats) in Prometheus text format; -pprof-addr
// mounts net/http/pprof on a separate listener — keep it loopback-only.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/lucidd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 1, "per-VC state shards (VCs are hash-routed; a state dir is bound to its shard count)")
	chaos := flag.Bool("chaos", false, "mount the POST /chaos fault-injection endpoint (testing only)")
	stale := flag.Duration("agent-stale-after", 90*time.Second, "evict agents silent for longer than this")
	maxBody := flag.Int64("max-body-bytes", 1<<20, "reject request bodies larger than this")
	drain := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	stateDir := flag.String("state-dir", "", "directory for WAL + snapshot durability (empty = in-memory only)")
	ingestQueue := flag.Int("ingest-queue", 4096, "per-shard telemetry queue depth: samples/heartbeats are acked with 202 once queued, and a full queue answers 429+Retry-After")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private")
	flag.Parse()

	srv, err := lucidd.NewServerWith(lucidd.Options{
		Shards:          *shards,
		MaxBodyBytes:    *maxBody,
		AgentStaleAfter: *stale,
		EnableChaos:     *chaos,
		StateDir:        *stateDir,
		IngestQueue:     *ingestQueue,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *stateDir != "" {
		records, torn, fromSnap := srv.Recovery()
		log.Printf("lucidd state dir %s: recovered %d WAL records across %d shard(s) (snapshot=%v, torn tail=%d bytes)",
			*stateDir, records, srv.Shards(), fromSnap, torn)
		for _, r := range srv.ShardRecoveries() {
			if r.Records > 0 || r.TornBytes > 0 || r.FromSnapshot {
				log.Printf("lucidd shard %d: %d WAL records (snapshot=%v, torn tail=%d bytes)",
					r.Shard, r.Records, r.FromSnapshot, r.TornBytes)
			}
		}
	}

	log.Printf("lucidd telemetry ingest: per-shard queue %d (drained in ack order; overload answers 429)", srv.IngestQueue())

	if *pprofAddr != "" {
		// pprof gets its own listener (typically loopback-only), never the
		// public mux: profiles leak source paths and heap contents. The
		// handlers are mounted explicitly on a fresh mux rather than via the
		// net/http/pprof import side effect on DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("lucidd pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("lucidd draining (up to %s)", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain the application first (new requests 503, in-flight finish),
		// then close the listener and idle connections.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()

	if *chaos {
		log.Printf("lucidd listening on %s (CHAOS ENDPOINT ENABLED)", *addr)
	} else {
		log.Printf("lucidd listening on %s", *addr)
	}
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Print("lucidd stopped")
}
