package lucidd

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// parityClock pins the server clock so heartbeat timestamps (and therefore
// /agents bodies) are identical across the servers under comparison.
func parityClock() func() time.Time {
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return fixed }
}

// parityOps generates one seeded, randomized op sequence — submissions,
// samples, heartbeats, chaos kills and chaos evictions spread across VCs — and
// applies it to srv. Ops are issued sequentially so the sequence (including
// which job IDs get sampled and killed) is identical for every server it is
// replayed on.
// Telemetry POSTs accept 200 (sync ingest) or 202 (async ingest); anything
// else — in particular a 429, which would silently thin the op sequence —
// fails the run, so parity servers must be built with a queue large enough
// to never hit its high-water mark.
func parityOps(t *testing.T, srv *Server, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var acked []int
	for i := 0; i < n; i++ {
		vc := fmt.Sprintf("vc-%d", rng.Intn(5))
		switch roll := rng.Intn(11); {
		case roll < 3: // submit
			body := fmt.Sprintf(`{"name":"par-%d","user":"u%d","vc":"%s","gpus":%d}`,
				i, rng.Intn(3), vc, 1+rng.Intn(8))
			rec := do(t, srv, http.MethodPost, "/jobs", body)
			if rec.Code != http.StatusCreated {
				t.Fatalf("op %d submit: %d: %s", i, rec.Code, rec.Body)
			}
			var js jobState
			if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, js.ID)
		case roll < 7: // sample a previously acked job
			if len(acked) == 0 {
				continue
			}
			id := acked[rng.Intn(len(acked))]
			body := fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
				id, 10+rng.Intn(80), 1000+rng.Intn(12000), 5+rng.Intn(50))
			if rec := do(t, srv, http.MethodPost, "/metrics", body); rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
				t.Fatalf("op %d sample: %d: %s", i, rec.Code, rec.Body)
			}
		case roll < 9: // heartbeat — an agent's VC is a stable function of its
			// name: an agent that flaps between VCs migrates shards, leaving a
			// stale twin behind until the sweep (a documented non-goal).
			a := rng.Intn(24)
			body := fmt.Sprintf(`{"name":"agent-%d","vc":"vc-%d","node":%d}`, a, a%5, a)
			if rec := do(t, srv, http.MethodPost, "/agents", body); rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
				t.Fatalf("op %d heartbeat: %d: %s", i, rec.Code, rec.Body)
			}
		case roll < 10: // chaos kill
			if len(acked) == 0 {
				continue
			}
			body := fmt.Sprintf(`{"action":"fail-job","job":%d}`, acked[rng.Intn(len(acked))])
			if rec := do(t, srv, http.MethodPost, "/chaos", body); rec.Code != http.StatusOK {
				t.Fatalf("op %d fail-job: %d: %s", i, rec.Code, rec.Body)
			}
		default: // chaos evict — 404 when the agent never registered or is already gone
			body := fmt.Sprintf(`{"action":"evict-agent","agent":"agent-%d"}`, rng.Intn(24))
			if rec := do(t, srv, http.MethodPost, "/chaos", body); rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				t.Fatalf("op %d evict-agent: %d: %s", i, rec.Code, rec.Body)
			}
		}
	}
}

// get fetches a path and returns the body, failing on non-200.
func get(t *testing.T, s *Server, path string) string {
	t.Helper()
	rec := do(t, s, http.MethodGet, path, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestShardParity is the sharding, ingest-mode AND recovery correctness
// contract: the identical randomized op sequence pushed through {1,8} shards ×
// {sync,async ingest}, and through a durable server that is then abandoned
// without Shutdown and reopened from its WALs, must yield byte-identical
// observable state after a flush barrier — job listings, schedule order,
// per-tenant views, agent listings and population counts. Job IDs come from
// the global allocator, estimates from per-shard clones of one fitted model,
// async ingest preserves per-shard FIFO apply order with chaos ops barriered
// behind acknowledged telemetry, and replay feeds the logged ops through the
// same apply function — so nothing may depend on the shard count, the ingest
// mode or whether the state was built live. The CI race step runs this
// package under -race.
func TestShardParity(t *testing.T) {
	build := func(shards int, async bool, dir string) *Server {
		opts := Options{Shards: shards, EnableChaos: true, clock: parityClock(), StateDir: dir}
		if async {
			// Large enough that the sequential op stream can never trip
			// backpressure (parityOps fails on any 429).
			opts.IngestQueue = 4096
		}
		s, err := NewServerWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	variants := []struct {
		name      string
		shards    int
		async     bool
		recovered bool
	}{
		{"1-sync", 1, false, false},
		{"8-sync", 8, false, false},
		{"1-async", 1, true, false},
		{"8-async", 8, true, false},
		{"8-async-recovered", 8, true, true},
	}
	servers := make([]*Server, len(variants))
	for i, v := range variants {
		dir := ""
		if v.recovered {
			dir = t.TempDir()
		}
		servers[i] = build(v.shards, v.async, dir)
		if got := servers[i].Shards(); got != v.shards {
			t.Fatalf("%s: shard count = %d", v.name, got)
		}
		parityOps(t, servers[i], 1234, 400)
		// The explicit barrier: every acknowledged telemetry op must be
		// applied (and, when durable, fsynced) before the bodies below are
		// compared.
		servers[i].Flush()
		if v.recovered {
			// Kill -9 analogue: no Shutdown, no final snapshot — what is
			// compared below is pure WAL replay.
			servers[i] = build(v.shards, v.async, dir)
		}
	}

	paths := []string{"/jobs", "/schedule", "/agents"}
	for i := 0; i < 5; i++ {
		vc := fmt.Sprintf("vc-%d", i)
		paths = append(paths, "/jobs?vc="+vc, "/schedule?vc="+vc, "/agents?vc="+vc)
	}
	ref := servers[0]
	for _, p := range paths {
		want := get(t, ref, p)
		for i := 1; i < len(servers); i++ {
			if got := get(t, servers[i], p); got != want {
				t.Errorf("GET %s diverges between %s and %s:\n %s: %s\n %s: %s",
					p, variants[0].name, variants[i].name,
					variants[0].name, want, variants[i].name, got)
			}
		}
	}

	type counts struct {
		Jobs   int `json:"jobs"`
		Agents int `json:"agents"`
	}
	var stRef counts
	if err := json.Unmarshal([]byte(get(t, ref, "/statusz")), &stRef); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(servers); i++ {
		var st counts
		if err := json.Unmarshal([]byte(get(t, servers[i], "/statusz")), &st); err != nil {
			t.Fatal(err)
		}
		if st != stRef {
			t.Errorf("statusz counts diverge: %s %+v, %s %+v",
				variants[0].name, stRef, variants[i].name, st)
		}
	}
	if stRef.Jobs == 0 || stRef.Agents == 0 {
		t.Errorf("degenerate parity run (no population): %+v", stRef)
	}
}

// twoVCsOnDistinctShards finds two VC names routed to different shards.
func twoVCsOnDistinctShards(t *testing.T, s *Server) (string, string) {
	t.Helper()
	first := "vc-0"
	a := s.shardFor(first)
	for i := 1; i < 64; i++ {
		vc := fmt.Sprintf("vc-%d", i)
		if s.shardFor(vc) != a {
			return first, vc
		}
	}
	t.Fatal("no VC pair hashing to distinct shards in 64 tries")
	return "", ""
}

// TestSlowShardDoesNotBlockSibling is the satellite-fix regression test: with
// one shard's mutex held (a wedged or slow tenant), a sibling shard's
// heartbeat path, its tenant-scoped agent listing, and the lock-free
// Prometheus scrape must all still complete. Before the sharding refactor a
// single mutex serialized all of these behind the stall.
func TestSlowShardDoesNotBlockSibling(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	vcSlow, vcLive := twoVCsOnDistinctShards(t, s)

	// Wedge vcSlow's shard the hard way: grab its mutex and sit on it.
	slow := s.shardFor(vcSlow)
	slow.mu.Lock()
	released := make(chan struct{})
	defer func() { <-released }()
	defer slow.mu.Unlock()

	type outcome struct {
		what string
		code int
	}
	results := make(chan outcome, 3)
	go func() {
		defer close(released)
		rec := do(t, s, http.MethodPost, "/agents",
			fmt.Sprintf(`{"name":"live-1","vc":"%s","node":1}`, vcLive))
		results <- outcome{"heartbeat " + vcLive, rec.Code}
		rec = do(t, s, http.MethodGet, "/agents?vc="+vcLive, "")
		results <- outcome{"agents?vc=" + vcLive, rec.Code}
		rec = do(t, s, http.MethodGet, "/metrics", "")
		results <- outcome{"metrics scrape", rec.Code}
	}()
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.code != http.StatusOK {
				t.Errorf("%s returned %d with a sibling shard wedged", r.what, r.code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sibling-shard request blocked behind a wedged shard (%d/3 completed)", i)
		}
	}
}

// TestShardRecoveryEdgeCases boots one server over a state dir where the two
// shards crashed in different, independently-nasty states: shard A has a
// snapshot plus a torn WAL tail, shard B has no snapshot at all (WAL-only).
// Both must recover in the same boot, each reporting its own stats, with the
// aggregate summing them.
func TestShardRecoveryEdgeCases(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServerWith(Options{Shards: 2, StateDir: dir, compactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	vcA, vcB := twoVCsOnDistinctShards(t, s1)
	shardA, shardB := s1.shardFor(vcA).idx, s1.shardFor(vcB).idx

	// Shard A: four submits — crosses compactEvery=3, so it has a snapshot
	// and a short post-compaction WAL.
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"name":"a-%d","vc":"%s","gpus":1}`, i, vcA)
		if rec := do(t, s1, http.MethodPost, "/jobs", body); rec.Code != http.StatusCreated {
			t.Fatalf("submit a-%d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	// Shard B: two submits — never compacts, recovery is pure WAL replay.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"name":"b-%d","vc":"%s","gpus":2}`, i, vcB)
		if rec := do(t, s1, http.MethodPost, "/jobs", body); rec.Code != http.StatusCreated {
			t.Fatalf("submit b-%d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	// The two recovery shapes below rest on exactly this: the floor fired once
	// on shard A (no snapshot yet, so the ratio asks for nothing) and never on B.
	if a, b := s1.shards[shardA].store.compactions, s1.shards[shardB].store.compactions; a != 1 || b != 0 {
		t.Fatalf("compactions before the crash: shard %d %d, shard %d %d, want 1 and 0", shardA, a, shardB, b)
	}
	want := jobsBody(t, s1)
	// Crash without Shutdown, then tear shard A's WAL tail.
	torn := []byte{0xba, 0xad, 0xf0, 0x0d}
	walA := filepath.Join(dir, shardDirName(shardA), walFileName)
	f, err := os.OpenFile(walA, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewServerWith(Options{Shards: 2, StateDir: dir, compactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := jobsBody(t, s2); got != want {
		t.Errorf("multi-shard recovery lost state:\n got %s\nwant %s", got, want)
	}
	recs := s2.ShardRecoveries()
	if len(recs) != 2 {
		t.Fatalf("ShardRecoveries = %d entries, want 2", len(recs))
	}
	byShard := map[int]ShardRecovery{}
	for _, r := range recs {
		byShard[r.Shard] = r
	}
	a, b := byShard[shardA], byShard[shardB]
	if !a.FromSnapshot || a.TornBytes != int64(len(torn)) || a.Records != 1 {
		t.Errorf("shard %d (snapshot+torn tail) recovery = %+v, want snapshot, 1 record, %d torn bytes",
			shardA, a, len(torn))
	}
	if b.FromSnapshot || b.TornBytes != 0 || b.Records != 2 {
		t.Errorf("shard %d (WAL-only) recovery = %+v, want no snapshot, 2 records, 0 torn", shardB, b)
	}
	records, tornBytes, fromSnap := s2.Recovery()
	if records != a.Records+b.Records || tornBytes != a.TornBytes || !fromSnap {
		t.Errorf("aggregate Recovery() = (%d, %d, %v), want (%d, %d, true)",
			records, tornBytes, fromSnap, a.Records+b.Records, a.TornBytes)
	}
	// New submissions must not collide with IDs either shard recovered.
	rec := do(t, s2, http.MethodPost, "/jobs", fmt.Sprintf(`{"name":"post","vc":"%s","gpus":1}`, vcB))
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js.ID != 7 {
		t.Errorf("post-recovery ID = %d, want 7 (6 jobs acknowledged before the crash)", js.ID)
	}
}

// TestStateDirShardCountBinding: VC→shard routing is a hash mod the shard
// count, so reopening a state dir with a different count would silently send
// recovered tenants to the wrong shard. Boot must refuse instead.
func TestStateDirShardCountBinding(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServerWith(Options{Shards: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, http.MethodPost, "/jobs", `{"name":"j","vc":"vc-0","gpus":1}`); rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d", rec.Code)
	}
	if _, err := NewServerWith(Options{Shards: 3, StateDir: dir}); err == nil {
		t.Fatal("reopening a 2-shard state dir with -shards 3 succeeded; want refusal")
	}
	// The matching count still works.
	if _, err := NewServerWith(Options{Shards: 2, StateDir: dir}); err != nil {
		t.Fatalf("reopening with the original shard count failed: %v", err)
	}
}

// TestShardForIsFNV1a: the inline hash routes every VC name where hash/fnv's
// FNV-1a did, at every shard count, so existing state dirs keep their tenants
// on their shards. Names: the VC spellings of the trace generators, the load
// generator and the benchmark, then random bytes.
func TestShardForIsFNV1a(t *testing.T) {
	names := []string{""}
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("vc%d", i), fmt.Sprintf("vc%02d", i), fmt.Sprintf("vc-%d", i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		names = append(names, string(b))
	}
	for _, n := range []int{2, 3, 4, 8, 16, 17} {
		s := &Server{shards: make([]*shard, n)}
		for i := range s.shards {
			s.shards[i] = &shard{idx: i}
		}
		for _, vc := range names {
			h := fnv.New32a()
			h.Write([]byte(vc))
			if got, want := s.shardFor(vc).idx, int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("%d shards: VC %q routed to shard %d, hash/fnv says %d", n, vc, got, want)
			}
		}
	}
}
