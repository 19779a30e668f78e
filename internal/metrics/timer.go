package metrics

import "time"

// Timer measures one interval into a histogram of seconds. It is a small
// value type — starting and stopping a timer allocates nothing — and both
// halves are nil-safe: StartTimer on a nil registry (or with a nil
// histogram) returns an inert Timer whose Stop is a no-op, so callers keep
// the one-nil-check contract without guarding every site.
type Timer struct {
	h     *Histogram
	now   func() time.Time
	start time.Time
}

// StartTimer begins timing into h using the registry's clock (swappable via
// SetClock for deterministic tests).
func (r *Registry) StartTimer(h *Histogram) Timer {
	if r == nil || h == nil {
		return Timer{}
	}
	now := r.clock()
	return Timer{h: h, now: now, start: now()}
}

// Stop observes the elapsed interval in seconds and returns it. Inert timers
// return 0 without observing.
func (t Timer) Stop() float64 {
	if t.h == nil {
		return 0
	}
	d := t.now().Sub(t.start).Seconds()
	if d < 0 {
		d = 0 // a clock stepping backwards must not poison the histogram
	}
	t.h.Observe(d)
	return d
}
