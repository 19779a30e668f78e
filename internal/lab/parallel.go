package lab

import (
	"runtime"
	"sync"

	"repro/internal/sim"
)

// The parallel harness fans independent simulation runs out across a
// bounded worker pool. Every run is shared-nothing by construction —
// sim.New clones the trace's jobs, each scheduler instance is freshly
// built, and Lucid runs get a private Models.Clone() — so parallel and
// serial execution produce byte-identical results (metrics and decision-
// trace digests; TestParallelMatchesSerial proves it under -race).
// Determinism comes from indexing: workers write results into their own
// slot of a pre-sized slice, and reports are rendered from that slice in
// canonical order, never from completion order.

var (
	parMu sync.RWMutex
	parN  int // 0 = GOMAXPROCS
)

// SetParallelism bounds the number of concurrent simulation runs across
// the experiment harness. n ≤ 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	parMu.Lock()
	parN = n
	parMu.Unlock()
}

// Parallelism reports the current worker bound.
func Parallelism() int {
	parMu.RLock()
	n := parN
	parMu.RUnlock()
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachPar runs fn(i) for every i in [0, n) on at most Parallelism()
// goroutines: the harness worker pool. fn must confine its writes to
// per-index state; because results are assembled by index, serial
// (-parallel 1) and parallel execution are byte-identical.
func ForEachPar(n int, fn func(i int)) {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// collectPar evaluates fn over [0, n) in parallel and returns the results
// in index order.
func collectPar[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEachPar(n, func(i int) { out[i] = fn(i) })
	return out
}

// firstErr returns the lowest-index non-nil error, so the reported failure
// is independent of scheduling order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMany executes the named runs over the world concurrently, returning
// results in input order. Schedulers are constructed by the caller (one
// fresh instance per run); the world itself is only read.
func (w *World) RunMany(runs []NamedRun) []*sim.Result {
	return collectPar(len(runs), func(i int) *sim.Result { return w.Run(runs[i]) })
}
