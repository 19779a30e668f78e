package lucidd

import (
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dtrace"
)

// scheduleCache keeps the cluster-wide GET /schedule body between reads. On
// ctl_read some 38 of 4,096 jobs change between two global reads, so a read
// patches the last body: it takes each shard's record of changed jobs
// (shard.touched), drops their old entries, merges in their new ones and
// copies each untouched run of the old body as one byte range. A shard marked
// whole makes the read a rebuild: the same pass from an empty cache, with the
// mergeSorted shard views as the new entries. Lock order: mu first, then at
// most one shard mutex at a time; no shard path takes mu, which guards all.
type scheduleCache struct {
	mu sync.Mutex
	// cur is the body last served and spare the one before: the next body is
	// built in spare's buffer unless a response still writes it.
	cur, spare *scheduleBody
	// keys[i] is entry i's key and offs[i] where its fragment starts in
	// cur.buf, offs[len(keys)] just past the closing ']'; offs is nil while
	// there is nothing to patch. The spare arrays are the last ones.
	keys, spareKeys []core.Key
	offs, spareOffs []int
	byID            map[int]*jobFrag // each entry's key, and the head's VC and GPUs
	// Per-read scratch: touched jobs' new fragments, their old entries' indexes.
	fresh []*jobFrag
	gone  []int
}

// scheduleBody is one generation of the body; writers counts responses writing buf.
type scheduleBody struct {
	buf     []byte
	writers atomic.Int32
}

func byKey(a, b *jobFrag) int { return a.key.Compare(b.key) }

// serveGlobalSchedule is GET /schedule without ?vc=, written in one call.
func (s *Server) serveGlobalSchedule(w http.ResponseWriter) {
	defer s.readBarrier("/schedule", s.shards).Stop()
	body, ev, err := s.composeSchedule()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if ev.Action != "" {
		s.rec.Record(ev)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.buf)
	body.writers.Add(-1)
}

// composeSchedule brings the cache up to date and returns the body, one writer
// counted on it, and the ActOrder event (zero for an empty queue). An error
// names a job encoding/json refuses; the records taken are then lost, so the
// cache is dropped and the next read rebuilds.
func (s *Server) composeSchedule() (*scheduleBody, dtrace.Event, error) {
	c := &s.sched
	c.mu.Lock()
	defer c.mu.Unlock()
	rebuild := c.offs == nil
	views := make([][]*jobFrag, len(s.shards))
	c.fresh, c.gone = c.fresh[:0], c.gone[:0]
	for i := 0; i < len(s.shards); i++ {
		var err error
		if views[i], err = c.visit(s.shards[i], rebuild); err != nil {
			c.offs = nil
			return nil, dtrace.Event{}, err
		}
		if views[i] != nil && !rebuild {
			rebuild, i = true, -1 // a shard marked whole: take every shard whole
		}
	}
	fresh, kind := c.fresh, "patch"
	if rebuild {
		fresh, kind, c.keys, c.gone = mergeSorted(views, byKey), "rebuild", c.keys[:0], c.gone[:0]
		c.byID = make(map[int]*jobFrag, len(fresh))
	} else {
		slices.Sort(c.gone)
		slices.SortFunc(fresh, byKey)
	}
	for _, f := range fresh {
		c.byID[f.key.ID] = f
	}
	c.patch(fresh)
	s.met.schedCompose.With(kind).Inc()
	var ev dtrace.Event
	if len(c.keys) > 0 {
		ev = s.orderEvent(c.byID[c.keys[0].ID], len(c.keys), func(i int) core.Key { return c.keys[i] })
	}
	c.cur.writers.Add(1)
	return c.cur, ev, nil
}

// visit takes what changed in sh since the last visit, under sh's mutex, and
// clears the record: sh's whole order as a non-nil view when all is set or sh
// was marked whole; else the touched jobs' entries leave byID for c.gone and
// their new fragments go to c.fresh.
func (c *scheduleCache) visit(sh *shard, all bool) (view []*jobFrag, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if all || sh.touchedAll {
		view, err = sh.copyJobFragsLocked("")
	} else {
		slices.Sort(sh.touched)
		for _, id := range slices.Compact(sh.touched) {
			if old, ok := c.byID[id]; ok {
				i, _ := slices.BinarySearchFunc(c.keys, old.key, core.Key.Compare)
				c.gone = append(c.gone, i)
				delete(c.byID, id)
			}
			if js, ok := sh.jobs[id]; ok {
				var f *jobFrag
				if f, err = js.listFrag(); err != nil {
					break
				}
				c.fresh = append(c.fresh, f)
			}
		}
	}
	sh.touched, sh.touchedAll = sh.touched[:0], false
	return view, err
}

// patch builds the next body in one sequential pass — the current entries but
// those at the ascending indexes c.gone, merged with fresh (sorted by key),
// each untouched run copied as one byte range — and makes it current.
func (c *scheduleCache) patch(fresh []*jobFrag) {
	next := c.spare
	if next == nil || next.writers.Load() != 0 {
		next = &scheduleBody{} // the old buffer stays with the response writing it
	}
	keys, offs, gone := c.keys, c.offs, append(c.gone, len(c.keys)) // a stop past the end
	out, nk, no := append(next.buf[:0], '['), c.spareKeys[:0], c.spareOffs[:0]
	for i, f := 0, 0; i < len(keys) || f < len(fresh); {
		end := gone[0]
		if i == end && i < len(keys) {
			gone, i = gone[1:], i+1
			continue
		}
		if f < len(fresh) {
			j, _ := slices.BinarySearchFunc(keys[i:end], fresh[f].key, core.Key.Compare)
			end = i + j
		}
		if len(nk) > 0 {
			out = append(out, ',')
		}
		if end == i { // fresh[f] sorts before every old entry left
			no, nk = append(no, len(out)), append(nk, fresh[f].key)
			out = append(out, fresh[f].json...)
			f++
			continue
		}
		delta := len(out) - offs[i]
		out = append(out, c.cur.buf[offs[i]:offs[end]-1]...)
		nk = append(nk, keys[i:end]...)
		for _, o := range offs[i:end] {
			no = append(no, o+delta)
		}
		i = end
	}
	next.buf = append(out, ']', '\n')
	c.spare, c.cur = c.cur, next
	c.spareKeys, c.keys = c.keys, nk
	c.spareOffs, c.offs = c.offs, append(no, len(next.buf)-1)
}

// orderEvent is the ordering decision a /schedule read records: who leads the
// queue of n and why, plus the runners-up (key(i), i ≥ 1) with their keys as
// counterfactuals. The key's Prio IS the score, as in the simulator's ActOrder.
func (s *Server) orderEvent(head *jobFrag, n int, key func(i int) core.Key) dtrace.Event {
	ev := dtrace.Event{Job: head.key.ID, Action: dtrace.ActOrder,
		Reason: "min-gpu-demand-x-estimate", VC: head.vc, GPUs: head.gpus,
		Score: head.key.Prio}
	for i := 1; i < n && len(ev.Alternatives) < s.rec.TopK(); i++ {
		k := key(i)
		ev.Alternatives = append(ev.Alternatives, dtrace.Alternative{
			Job: k.ID, Score: k.Prio, Reason: "behind-in-queue"})
	}
	return ev
}
