package sim

// tickEvent is a future engine wake-up bound to a job: a predicted
// completion or a requeue-backoff expiry, quantized to the tick grid. gen
// is for lazy invalidation: a completion carries the sequence number of the
// prediction it came from, and the job's placement record holds the number
// of its latest one (none once the job has left), so entries overtaken by a
// speed change, preemption or kill pop harmlessly. The backoff heap leaves
// gen 0.
type tickEvent struct {
	at  int64
	id  int
	gen uint64
}

// evheap is a binary min-heap of tickEvents ordered by (at, id, gen).
// Ordering is total over distinct events, so pop order — and therefore
// every downstream decision sequence — is deterministic no matter what
// order equal-timestamp events were pushed in. (container/heap would work
// too; a concrete type keeps the hot path free of interface calls.)
type evheap []tickEvent

func evLess(a, b tickEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.gen < b.gen
}

func (h *evheap) push(e tickEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

// peek returns the minimum without removing it; ok=false when empty.
func (h evheap) peek() (tickEvent, bool) {
	if len(h) == 0 {
		return tickEvent{}, false
	}
	return h[0], true
}

func (h *evheap) pop() tickEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess((*h)[l], (*h)[small]) {
			small = l
		}
		if r < n && evLess((*h)[r], (*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
