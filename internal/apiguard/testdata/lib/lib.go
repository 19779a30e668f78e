// Package lib declares what the guard judges; cmd/use is its only user.
package lib

import "fmt"

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Gauge.Inc shares its name with Counter.Inc, which has a caller.
type Gauge struct{ n int }

func (g *Gauge) Inc() { g.n++ }

// Level's String is reached only through fmt.Stringer.
type Level int

func (l Level) String() string { return fmt.Sprint(int(l)) }

// Probe's String is reached through fmt.Stringer, but nothing outside its
// own receiver names Probe.
type Probe struct{}

func (Probe) String() string { return "probe" }

// Vec's Push is called on a Vec[int]; nothing calls Unused.
type Vec[T any] struct{ xs []T }

func (v *Vec[T]) Push(x T)    { v.xs = append(v.xs, x) }
func (v *Vec[T]) Unused() int { return len(v.xs) }

const Unused = 1

type Config struct{ Leaves int }

// Params.Leaves shares its name with Config.Leaves, which is written;
// Params' own method and a test write Depth.
type Params struct{ Leaves, Depth int }

func (p *Params) norm() { p.Depth = 3 }

// Spec is written by an unkeyed literal, Options through &o.Workers.
type Spec struct{ Lo, Hi int }

type Options struct{ Workers int }

// Both constructors fix Pool.Size at 4, one through a constant expression;
// Cap is a parameter, the constructors set Mode to different constants, and
// a method also writes Depth.
type Pool struct{ Size, Cap, Mode, Depth int }

func NewPool(c int) *Pool { return &Pool{Size: 4, Cap: c, Mode: 1, Depth: 1} }

func NewSmallPool() *Pool {
	p := NewPool(1)
	p.Size, p.Mode = 2*2, 2
	return p
}

func (p *Pool) Deepen() { p.Depth++ }
