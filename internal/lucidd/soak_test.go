package lucidd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// soakStatus is the slice of /statusz the soak test watches.
type soakStatus struct {
	Jobs    int `json:"jobs"`
	Shards  int `json:"shards"`
	ByShard []struct {
		Shard   int `json:"shard"`
		Durable *struct {
			WALRecords  int64 `json:"wal_records"`
			Compactions int64 `json:"compactions"`
		} `json:"durable"`
	} `json:"by_shard"`
}

// TestSoakShardedDrainRecover is the concurrency soak: a loadgen fleet
// hammers a durable 4-shard server over loopback HTTP from many goroutines
// with the full mixed workload, a SIGTERM-style drain lands mid-run while requests are still in
// flight, and then the state dir is rebooted. The contract being soaked:
//
//   - zero dropped acks — every job the server 201-acknowledged, at any point
//     up to and including the drain, is present after recovery;
//   - monotonic WAL — sampled per shard throughout the run, a shard's WAL
//     record count only moves backwards when its compaction count moved
//     forwards (a reset without a snapshot would be data loss);
//   - clean recovery on every shard — the post-drain boot replays nothing and
//     finds no torn bytes on any shard.
//
// The run under -race in CI is what exercises the lock discipline: workers,
// the statusz poller and the drain all race against the shard mutexes.
func TestSoakShardedDrainRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	dir := t.TempDir()
	const shards = 4
	// A deliberately small telemetry queue: the soak also exercises
	// the queue drains (drainers, flushes, the final flush on Shutdown)
	// under -race, and lets real 429 backpressure land — which
	// loadgen must classify as Rejected, never as an error.
	srv, err := NewServerWith(Options{Shards: shards, StateDir: dir, compactEvery: 32,
		IngestQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Poll /statusz concurrently with the load, recording per-shard
	// (wal_records, compactions) pairs for the monotonicity check.
	type walSample struct{ records, compactions int64 }
	var (
		pollMu  sync.Mutex
		history = map[int][]walSample{}
	)
	pollDone := make(chan struct{})
	stopPoll := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(5 * time.Millisecond):
			}
			req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return // draining — the run is over
			}
			var st soakStatus
			if json.Unmarshal(rec.Body.Bytes(), &st) != nil {
				continue
			}
			pollMu.Lock()
			for _, sh := range st.ByShard {
				if sh.Durable != nil {
					history[sh.Shard] = append(history[sh.Shard],
						walSample{sh.Durable.WALRecords, sh.Durable.Compactions})
				}
			}
			pollMu.Unlock()
		}
	}()

	// The load: mixed ops from 6 workers. The run is cancelled after the
	// drain, so workers spend the tail of the run observing 503s (counted as
	// Rejected).
	loadCtx, stopLoad := context.WithCancel(context.Background())
	defer stopLoad()
	resCh := make(chan *loadgen.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := loadgen.Run(loadCtx, loadgen.Options{
			BaseURL: ts.URL, Agents: 96, VCs: 6, Workers: 6,
			Duration: 30 * time.Second, // backstop; the cancel ends the run first
			Seed:     99,
		})
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	// Let the fleet run, then drain mid-flight. Over loopback 1.5 s carries
	// about the request volume 600 ms did when the fleet called the handler
	// in-process (≈ 15,000 requests on two cores).
	time.Sleep(1500 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("mid-run drain failed: %v", err)
	}
	stopLoad()
	close(stopPoll)
	<-pollDone

	var res *loadgen.Result
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(15 * time.Second):
		t.Fatal("load workers did not stop after drain")
	}
	if res.Errors != 0 {
		t.Fatalf("soak run saw %d hard errors (per-op: %+v)", res.Errors, res.PerOp)
	}
	if len(res.AckedJobs) == 0 {
		t.Fatal("soak run acknowledged no jobs — nothing was soaked")
	}
	if res.Rejected503 == 0 {
		t.Error("no request was refused with 503 during the drain")
	}

	// Monotonic WAL: per shard, records may only drop when compactions rose —
	// which says something only if compactions happened. With a 32-record
	// floor and the log outgrowing twice a small snapshot every few dozen ops,
	// every shard compacts many times in 1.5 s of load.
	pollMu.Lock()
	for shard, samples := range history {
		if last := samples[len(samples)-1]; last.compactions < 2 {
			t.Errorf("shard %d compacted %d times during the soak: the WAL monotonicity check below is vacuous", shard, last.compactions)
		}
		for i := 1; i < len(samples); i++ {
			prev, cur := samples[i-1], samples[i]
			if cur.records < prev.records && cur.compactions <= prev.compactions {
				t.Errorf("shard %d WAL went backwards without a compaction: %+v -> %+v",
					shard, prev, cur)
			}
			if cur.compactions < prev.compactions {
				t.Errorf("shard %d compaction count went backwards: %+v -> %+v", shard, prev, cur)
			}
		}
	}
	pollMu.Unlock()

	// Reboot and audit the ledger: every acked job recovered, on every shard
	// a clean (snapshot-only, zero-torn) recovery after the clean drain.
	srv2, err := NewServerWith(Options{Shards: shards, StateDir: dir, compactEvery: 32})
	if err != nil {
		t.Fatalf("post-drain reboot: %v", err)
	}
	recs := srv2.ShardRecoveries()
	if len(recs) != shards {
		t.Fatalf("recovered %d shards, want %d", len(recs), shards)
	}
	for _, r := range recs {
		if r.Records != 0 || r.TornBytes != 0 {
			t.Errorf("shard %d dirty after clean drain: %+v", r.Shard, r)
		}
	}
	var jobs []jobState
	if err := json.Unmarshal([]byte(jobsBody(t, srv2)), &jobs); err != nil {
		t.Fatal(err)
	}
	have := make(map[int]bool, len(jobs))
	for _, js := range jobs {
		have[js.ID] = true
	}
	dropped := 0
	for _, id := range res.AckedJobs {
		if !have[id] {
			dropped++
			t.Errorf("job %d was 201-acknowledged but missing after recovery", id)
		}
	}
	if dropped == 0 {
		t.Logf("soak: %d reqs (%d acked jobs, %d rejected during drain) — zero dropped acks across %d shards",
			res.Requests, len(res.AckedJobs), res.Rejected, shards)
	}
}
