package sim

// liveWindow is an order-preserving set of submitted, non-terminal job
// indexes — the scan window behind Env.Pending. It replaces the old
// terminal-*prefix* cursor (pendLow), which stalled permanently on the first
// long-lived job: one early straggler kept every later job in the scan
// window for the rest of the run, making late scheduler calls O(total jobs).
// The window instead unlinks each job individually the moment it turns
// terminal (retired or retry-exhausted), so Pending scans exactly the live
// jobs regardless of completion order.
//
// Implementation: an intrusive doubly-linked list over job indexes. Jobs are
// appended at admission (admitArrivals walks the submit-sorted trace in
// index order) and never reordered, so iteration order is identical to the
// slice scan it replaces.
type liveWindow struct {
	head, tail int
	next, prev []int
	in         []bool
	n          int // members, maintained by push/remove
}

func newLiveWindow(n int) *liveWindow {
	w := &liveWindow{
		head: -1,
		tail: -1,
		next: make([]int, n),
		prev: make([]int, n),
		in:   make([]bool, n),
	}
	for i := range w.next {
		w.next[i] = -1
		w.prev[i] = -1
	}
	return w
}

// push appends index i at the tail. Idempotent: re-pushing a member is a
// no-op, preserving order.
func (w *liveWindow) push(i int) {
	if w.in[i] {
		return
	}
	w.in[i] = true
	w.n++
	w.prev[i] = w.tail
	w.next[i] = -1
	if w.tail >= 0 {
		w.next[w.tail] = i
	} else {
		w.head = i
	}
	w.tail = i
}

// remove unlinks index i. Idempotent for non-members.
func (w *liveWindow) remove(i int) {
	if !w.in[i] {
		return
	}
	w.in[i] = false
	w.n--
	if w.prev[i] >= 0 {
		w.next[w.prev[i]] = w.next[i]
	} else {
		w.head = w.next[i]
	}
	if w.next[i] >= 0 {
		w.prev[w.next[i]] = w.prev[i]
	} else {
		w.tail = w.prev[i]
	}
	w.next[i] = -1
	w.prev[i] = -1
}

// count reports the number of members; Env.Pending sizes its result from it.
func (w *liveWindow) count() int { return w.n }
