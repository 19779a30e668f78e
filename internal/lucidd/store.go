package lucidd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/snap"
)

// Durability layer. When Options.StateDir is set, every mutating request is
// logged to an append-only WAL (internal/snap framing) after it is applied,
// and the WAL is periodically compacted into a snapshot envelope. State is
// sharded, and so is durability: shard i keeps its WAL and snapshot under
// <StateDir>/shard-<i>/, appends under its own mutex only, and recovers
// independently at boot — a torn tail on one shard's WAL never delays or
// damages a sibling shard's recovery. On boot each shard loads its snapshot,
// feeds its WAL records back through applyOpsLocked — the one function every
// live mutation went through when the record was written, so replay cannot
// drift from the live path — and truncates any torn tail: a SIGKILLed daemon
// recovers every acknowledged submission on every shard.
//
// Who writes, who fsyncs. A record is staged under the shard mutex right after
// the mutation it describes, and every record of a hold is written in one
// write() before the unlock (snap.WAL.Write; a hold past 64 KiB of records
// writes the earlier ones on the way), so log order is state order and a killed
// process still loses nothing a released hold applied (the page cache outlives
// it). If that write fails, so does every op the hold logged. The fsync —
// what a power cut needs — is never issued under the shard mutex: every hold
// that appended ends by reading its commit point (commitPointLocked: the
// sequence number of its last append) and calls shard.commit after the unlock,
// saying whether anyone must see it durable. Whether the disk is asked at all
// is one rule, snap.WAL.Commit's, for inline handlers and queue drains alike:
//
//   - must: a job submission (the 201 is written only after its record is
//     fsynced: an acknowledged job survives any crash), a durability barrier
//     (/chaos, Flush and Shutdown see everything acknowledged before them
//     applied and durable). Only these three make telemetry durable on
//     demand: a list read applies the queue, commits without must and waits
//     only for the shard's ledger, its last submission (ingest.go);
//   - otherwise — metric samples, heartbeats, chaos ops — only once
//     WAL.SyncEvery (64) records are unsynced: losing the last few dozen
//     telemetry records in a power cut is harmless, the agents re-send, while
//     an fsync per sample, or per drain, serializes ingest on disk latency and
//     makes the one fsync a submission waits for queue behind sixteen nobody
//     asked for.
//
// Concurrent commits on one shard group: one fsync covers every append made
// before it started (snap.WAL.SyncTo). /statusz wal_unsynced and the
// lucidd_wal_unsynced_records gauge show the tail.
//
// Deliberately NOT persisted: the decision-trace recorder (a per-process
// flight recorder; /trace documents the current incarnation), the chaos
// delay knob, and the derived Score/EstSec fields (recomputed from the
// recovered profiles by the same deterministic models).
const (
	snapFileName = "state.snap"
	walFileName  = "wal.log"
	// snapKind is the envelope kind for lucidd state snapshots.
	snapKind = "lucidd-state"
	// defaultCompactEvery is the floor of the compaction rule: a WAL shorter
	// than this many records is never worth a snapshot.
	defaultCompactEvery = 1024
	// compactRatio is k in the compaction rule: a shard is re-snapshotted, and
	// its WAL reset, when the WAL holds at least compactEvery records AND at
	// least k × the bytes of the shard's last snapshot envelope (0 before the
	// first, so the first compaction fires on the floor alone). A fixed record
	// count rewrites a large state as often as a small one; the ratio makes the
	// cost proportional. Per WAL byte logged, compaction writes 1/k snapshot
	// bytes, so bytes written per WAL byte = 1 + 1/k: 1.5 at k = 2, against ≈ 3
	// under the count-only rule on ctl_ingest's working set (a 100 KB WAL
	// triggered a 200 KB snapshot). The price is recovery: a boot replays at
	// most k × snapshot + floor (+ one record) of WAL. Measured on ctl_ingest
	// (DESIGN.md §3j has the table): k = 1 / 2 / 4 → 163 / 85 / 40 compactions
	// a run with throughput inside one spread; k = 2 halves the write volume
	// for a worst-case replay of twice the snapshot.
	compactRatio = 2
)

// walOp is one mutation — the unit applyOpsLocked applies and the WAL logs.
// Op selects the variant; unused fields stay at their zero value and are
// omitted from the JSON.
type walOp struct {
	// "job", "metrics", "agent", "evict-agent", "fail-job"; and the two
	// variants that are never logged: "sweep", the stale-agent sweep, and
	// "abort-job", which withdraws a submission whose commit failed.
	Op string `json:"op"`

	// job: the registration with its server-assigned ID, so replay
	// reproduces the same ID sequence the clients were told.
	ID   int    `json:"id,omitempty"`
	Name string `json:"name,omitempty"` // job name, or agent name for agent ops
	User string `json:"user,omitempty"`
	VC   string `json:"vc,omitempty"` // job VC, or agent VC for agent ops
	GPUs int    `json:"gpus,omitempty"`
	AMP  bool   `json:"amp,omitempty"`

	// metrics: one sample for job ID.
	GPUUtil    float64 `json:"gpu_util,omitempty"`
	GPUMemMB   float64 `json:"gpu_mem_mb,omitempty"`
	GPUMemUtil float64 `json:"gpu_mem_util,omitempty"`

	// agent: registration/heartbeat; UnixNano is the heartbeat time so the
	// staleness detector works across restarts.
	Node     int   `json:"node,omitempty"`
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// persistedJob is a jobState minus the derived fields (Score, EstSec), which
// the recovery path recomputes through refreshLocked.
type persistedJob struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	User     string  `json:"user"`
	VC       string  `json:"vc,omitempty"`
	GPUs     int     `json:"gpus"`
	AMP      bool    `json:"amp,omitempty"`
	Samples  int     `json:"samples,omitempty"`
	Profile  profile `json:"profile"`
	Restarts int     `json:"restarts,omitempty"`
}

// persistedAgent is an agentState with the heartbeat as unix nanos.
type persistedAgent struct {
	Name     string `json:"name"`
	VC       string `json:"vc,omitempty"`
	Node     int    `json:"node"`
	UnixNano int64  `json:"unix_nano"`
}

// shardSnap is the snapshot payload: one shard's full durable state at
// compaction. NextID records the global allocator's high-water mark as seen
// at snapshot time, so a boot never re-issues an ID any shard handed out.
type shardSnap struct {
	NextID int              `json:"next_id"`
	Jobs   []persistedJob   `json:"jobs"`
	Agents []persistedAgent `json:"agents"`
}

// store binds one shard to its state directory (the log itself is shard.wal).
// Fields are read and written with the shard's mu held, which also serializes
// WAL appends with the state mutations they describe.
type store struct {
	dir          string
	compactEvery int64 // floor of the compaction rule, in WAL records
	snapBytes    int64 // envelope size of the last snapshot written or loaded; 0 before the first
	compactions  int64
	snapTime     time.Time // last snapshot write (or boot, if none yet)
	recovered    snap.RecoverStats
	hadSnapshot  bool
}

// shardDirName returns the per-shard state subdirectory name.
func shardDirName(idx int) string { return fmt.Sprintf("shard-%d", idx) }

// openStores prepares the sharded state directory and recovers every shard.
// A state dir is bound to the shard count that created it: VC→shard routing
// is a hash mod the count, so booting the same directory with a different
// count would silently misroute recovered tenants — refuse instead.
func (s *Server) openStores(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("lucidd: state dir: %w", err)
	}
	existing := 0
	for {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(existing))); err != nil {
			break
		}
		existing++
	}
	if existing > 0 && existing != len(s.shards) {
		return fmt.Errorf("lucidd: state dir %s holds %d shard(s) but -shards is %d; "+
			"a state dir is bound to the shard count that created it", dir, existing, len(s.shards))
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.openStore(filepath.Join(dir, shardDirName(sh.idx)))
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("lucidd: shard %d: %w", sh.idx, err)
		}
	}
	// Publish aggregate recovery stats to the metrics registry.
	records, torn, _ := s.Recovery()
	fromSnap := 0
	for _, r := range s.ShardRecoveries() {
		if r.FromSnapshot {
			fromSnap++
		}
	}
	s.met.recRecords.Set(float64(records))
	s.met.recTorn.Set(float64(torn))
	s.met.recSnap.Set(float64(fromSnap))
	return nil
}

// openStore loads this shard's snapshot (if any), replays its WAL, and
// leaves the shard ready to log. Called with sh.mu held from openStores,
// before the server is shared.
func (sh *shard) openStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	st := &store{dir: dir, compactEvery: sh.srv.opts.compactEvery, snapTime: sh.srv.opts.clock()}
	if st.compactEvery <= 0 {
		st.compactEvery = defaultCompactEvery
	}

	snapPath := filepath.Join(dir, snapFileName)
	if raw, err := os.ReadFile(snapPath); err == nil {
		payload, rerr := snap.ReadEnvelope(bytes.NewReader(raw), snapKind)
		if rerr != nil {
			return fmt.Errorf("read snapshot %s: %w", snapPath, rerr)
		}
		var ss shardSnap
		if jerr := json.Unmarshal(payload, &ss); jerr != nil {
			return fmt.Errorf("decode snapshot: %w", jerr)
		}
		sh.loadSnapLocked(ss)
		st.hadSnapshot = true
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("read snapshot: %w", err)
	}

	// Replay is lenient about dangling references (a metrics op for a job a
	// later compaction evicted cannot happen — the WAL resets at every
	// snapshot — but leniency costs nothing and keeps recovery total).
	wal, stats, err := snap.OpenWALFS(sh.srv.opts.fs, filepath.Join(dir, walFileName), func(payload []byte) error {
		var op [1]walOp
		if jerr := json.Unmarshal(payload, &op[0]); jerr != nil {
			return fmt.Errorf("decode wal op: %w", jerr)
		}
		sh.applyOpsLocked(op[:], time.Time{}, nil) // events dropped: /trace documents this incarnation only
		return nil
	})
	if err != nil {
		return err
	}
	wal.OnSync = func(d time.Duration) { sh.srv.met.walFsync.Observe(d.Seconds()) }
	wal.OnWrite = func(d time.Duration) { sh.srv.met.walAppend.Observe(d.Seconds()) }
	sh.wal = wal
	st.recovered = stats
	sh.store = st
	return nil
}

// loadSnapLocked overwrites the shard state from a snapshot payload,
// recomputing the derived score/estimate fields.
func (sh *shard) loadSnapLocked(ss shardSnap) {
	sh.srv.bumpNextID(ss.NextID - 1)
	sh.jobs = make(map[int]*jobState, len(ss.Jobs))
	sh.order = make([]*jobState, 0, len(ss.Jobs))
	profiled := 0
	for _, pj := range ss.Jobs {
		js := &jobState{ID: pj.ID, Name: pj.Name, User: pj.User, VC: pj.VC,
			GPUs: pj.GPUs, AMP: pj.AMP, Samples: pj.Samples, Profile: pj.Profile,
			Restarts: pj.Restarts}
		sh.jobs[js.ID] = js
		sh.srv.jobShard.Store(js.ID, sh)
		sh.srv.bumpNextID(js.ID)
		sh.refreshLocked(js)
		sh.order = append(sh.order, js)
		if js.Samples >= minSamples {
			profiled++
		}
	}
	// One O(n log n) rebuild at snapshot load; incremental from here on.
	slices.SortFunc(sh.order, (*jobState).compare)
	sh.touched, sh.touchedAll = sh.touched[:0], true
	sh.agents = make(map[string]*agentState, len(ss.Agents))
	sh.aorder = make([]*agentState, 0, len(ss.Agents))
	sh.lruHead, sh.lruTail = nil, nil
	for _, pa := range ss.Agents {
		a := &agentState{Name: pa.Name, VC: pa.VC, Node: pa.Node,
			LastSeen: time.Unix(0, pa.UnixNano)}
		a.refreshFrag()
		sh.agents[pa.Name] = a
		sh.aorder = append(sh.aorder, a)
	}
	slices.SortFunc(sh.aorder, (*agentState).compare)
	// Rebuild the heartbeat-order list oldest-first (name as the
	// deterministic tie-break for equal stamps) so the prefix invariant the
	// O(evicted) sweep relies on holds from the first post-boot request.
	byBeat := make([]*agentState, len(sh.aorder))
	copy(byBeat, sh.aorder)
	sort.SliceStable(byBeat, func(i, j int) bool { return byBeat[i].LastSeen.Before(byBeat[j].LastSeen) })
	for _, a := range byBeat {
		sh.lruPushBackLocked(a)
	}
	sh.nJobs.Store(int64(len(sh.jobs)))
	sh.nProfiled.Store(int64(profiled))
	sh.nAgents.Store(int64(len(sh.agents)))
}

// logOpLocked stages the record of ops[i] in this shard's WAL (if durability
// is on) — neither a write() nor an fsync: applyOpsLocked writes the hold's
// records at its end, and the hold's commit point asks for the fsync after the
// unlock. The record counts toward the compaction rule at once, so a WAL that
// has outgrown both the record floor and compactRatio × the last snapshot is
// compacted here, mid-hold if need be; the snapshot then holds what was staged.
func (sh *shard) logOpLocked(ops []walOp, i int) error {
	st := sh.store
	if st == nil {
		return nil
	}
	var err error
	if sh.record, err = appendWalOp(sh.record[:0], &ops[i]); err != nil {
		return fmt.Errorf("lucidd: encode wal op: %w", err)
	}
	if _, err = sh.wal.Log(sh.record); err != nil {
		return err
	}
	if sh.wal.Records() >= st.compactEvery && sh.wal.Bytes() >= compactRatio*st.snapBytes {
		return sh.compactLocked()
	}
	sh.logged = append(sh.logged, i)
	return nil
}

// commitPointLocked ends a hold of sh.mu that may have appended: it reads the
// sequence number of the shard's last append. The caller unlocks, then hands
// it to commit with whether somebody must see it durable.
func (sh *shard) commitPointLocked() int64 {
	if sh.store == nil {
		return 0
	}
	return sh.wal.Seq()
}

// commit is the write path's one commit point, called WITHOUT the shard mutex
// by every path that appended under it (applyOne, drain): records up to
// seq are fsynced if must, or if the unsynced tail has reached WAL.SyncEvery —
// snap.WAL.Commit holds the rule, and concurrent commits share fsyncs there.
// sh.wal is set before the server is shared and never cleared, so no lock is
// needed to read it.
func (sh *shard) commit(seq int64, must bool) error {
	if sh.wal == nil {
		return nil
	}
	return sh.wal.Commit(seq, must)
}

// compactLocked installs a fresh shard snapshot and resets the shard's WAL. An
// error up to the rename leaves the old snapshot and WAL: recovery replays a
// longer log. A failed WAL truncate after it leaves a snapshot that holds the
// WAL, and recovery replays it twice (ROADMAP 1(b3), defect (vi)). The
// snapshot's own fsync is the one fsync issued under a shard mutex: nothing
// may be applied between the state it captures and the truncation of the log
// that led to it (moving it off the mutex needs WAL segments). WAL.Reset
// publishes everything appended so far as durable, so a commit point read
// after a compaction costs no fsync.
func (sh *shard) compactLocked() error {
	if sh.store == nil {
		return nil
	}
	t := sh.srv.met.reg.StartTimer(sh.srv.met.snapshot)
	defer t.Stop()
	ss := shardSnap{NextID: int(sh.srv.nextID.Load()) + 1}
	for _, js := range sh.snapshotLocked() {
		ss.Jobs = append(ss.Jobs, persistedJob{ID: js.ID, Name: js.Name,
			User: js.User, VC: js.VC, GPUs: js.GPUs, AMP: js.AMP,
			Samples: js.Samples, Profile: js.Profile, Restarts: js.Restarts})
	}
	// Names are unique within a shard, so the listing index is in name
	// order — the canonical order of a snapshot's agent list.
	for _, a := range sh.aorder {
		ss.Agents = append(ss.Agents, persistedAgent{Name: a.Name, VC: a.VC,
			Node: a.Node, UnixNano: a.LastSeen.UnixNano()})
	}
	payload, err := json.Marshal(ss)
	if err != nil {
		return fmt.Errorf("lucidd: encode snapshot: %w", err)
	}
	var buf bytes.Buffer
	if err := snap.WriteEnvelope(&buf, snapKind, payload); err != nil {
		return err
	}
	if err := snap.WriteFile(sh.srv.opts.fs, filepath.Join(sh.store.dir, snapFileName), buf.Bytes()); err != nil {
		return fmt.Errorf("lucidd: write snapshot: %w", err)
	}
	if err := sh.wal.Reset(); err != nil {
		return fmt.Errorf("lucidd: reset wal after compaction: %w", err)
	}
	sh.logged = sh.logged[:0] // the snapshot holds them
	sh.store.snapBytes = int64(buf.Len())
	sh.store.snapTime = sh.srv.opts.clock()
	sh.store.hadSnapshot = true
	// The /statusz count and lucidd_compactions_total are bumped together,
	// here only, so they cannot disagree.
	sh.store.compactions++
	sh.srv.met.compacts.Inc()
	return nil
}

// closeStore snapshots this shard once more (so restart replays nothing) and
// closes its WAL. Called from Shutdown after the drain completes.
func (sh *shard) closeStore() error {
	sh.mu.Lock()
	if sh.store == nil {
		sh.mu.Unlock()
		return nil
	}
	err := sh.compactLocked()
	sh.store = nil
	sh.mu.Unlock()
	// Close fsyncs whatever a failed compaction left unsynced — off the mutex,
	// like every WAL fsync.
	if cerr := sh.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
