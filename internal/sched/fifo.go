package sched

import "repro/internal/sim"

// FIFO is the conventional first-in-first-out policy of Yarn/Kubernetes
// default queues (§4.1 baseline 1): per-VC arrival order with strict
// head-of-line blocking and no backfill. "Simple but typically performs
// poorly due to its runtime-agnostic scheduling paradigm."
type FIFO struct{}

// NewFIFO returns the policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements sim.Scheduler.
func (*FIFO) Name() string { return "FIFO" }

// Tick places each VC's queue head; a blocked head blocks its whole VC.
func (*FIFO) Tick(env *sim.Env) {
	for _, q := range env.Queues() {
		placeStrict(env, q.Jobs) // a queue is already in arrival order
	}
}
