package lab

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// The world cache memoizes BuildWorld process-wide. A world — two emitted
// trace months, then Lucid's GA²M models and the GBDT estimator, each fit on
// the history month at its first use — is a large share of every end-to-end
// experiment's wall-clock, and the suite rebuilds identical worlds
// constantly (tab4, tab5, fig8 and fig9 all want the same three; eight
// studies all want Venus at the same scale). A cached World is shared across experiments and
// across goroutines, which is safe because a World is read-only after
// construction: runs clone the trace's jobs (sim.New) and the models
// (World.NewLucid / Schedulers), the models and the GBDT estimator are each
// fit once under a sync.Once at their first use, and the estimator's
// prediction cache is mutex-guarded.
//
// GenSpec is a flat comparable struct, so (spec, scale) keys directly.
type worldKey struct {
	spec  trace.GenSpec
	scale float64
}

type worldEntry struct {
	once sync.Once
	w    *World
	err  error
}

var (
	worldCache   sync.Map // worldKey → *worldEntry
	worldBuilds  atomic.Int64
	worldBuildNs atomic.Int64 // Σ BuildWorld wall time over worldBuilds
	worldHits    atomic.Int64
	modelFits    atomic.Int64 // lazy fits of Lucid's models (World.Models)
	modelFitNs   atomic.Int64 // Σ their wall time
)

// GetWorld returns the memoized world for (spec, scale), building it on
// first use. Concurrent callers for the same key block on one build;
// callers for distinct keys build in parallel. The returned World must be
// treated as immutable — run schedulers against clones only.
func GetWorld(spec trace.GenSpec, scale float64) (*World, error) {
	k := worldKey{spec: spec, scale: scale}
	e, loaded := worldCache.LoadOrStore(k, &worldEntry{})
	ent := e.(*worldEntry)
	if loaded {
		worldHits.Add(1)
	}
	ent.once.Do(func() {
		worldBuilds.Add(1)
		start := time.Now()
		ent.w, ent.err = BuildWorld(spec, scale)
		worldBuildNs.Add(int64(time.Since(start)))
	})
	return ent.w, ent.err
}

// GetWorlds builds (or fetches) one world per spec in parallel, preserving
// input order. The first error (by spec order) wins.
func GetWorlds(specs []trace.GenSpec, scale float64) ([]*World, error) {
	worlds := make([]*World, len(specs))
	errs := make([]error, len(specs))
	ForEachPar(len(specs), func(i int) {
		worlds[i], errs[i] = GetWorld(specs[i], scale)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return worlds, nil
}

// WorldCacheStats reports lifetime cache traffic: worlds built from
// scratch vs. requests served from the cache, and the wall seconds the
// builds took in total (summed across concurrent builds). A model fit at
// first use is part of the run that first asks for the model, not of the
// build (see ModelFitStats).
func WorldCacheStats() (builds, hits int64, buildSec float64) {
	return worldBuilds.Load(), worldHits.Load(), time.Duration(worldBuildNs.Load()).Seconds()
}

// ModelFitStats reports the fits of Lucid's models that worlds made at
// their first World.Models call, and the wall seconds they took in total
// (summed across concurrent fits). They are part of the first Lucid run over
// each world, not of its build.
func ModelFitStats() (fits int64, fitSec float64) {
	return modelFits.Load(), time.Duration(modelFitNs.Load()).Seconds()
}

// ResetWorldCache drops every cached world and memoized Table 4 sweep
// (benchmarks use it to measure cold builds; long-lived processes can use
// it to bound memory).
func ResetWorldCache() {
	worldCache.Range(func(k, _ any) bool {
		worldCache.Delete(k)
		return true
	})
	sweepCache.Range(func(k, _ any) bool {
		sweepCache.Delete(k)
		return true
	})
}
