package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrOutOfOrder fails a Chain whose source yields an item scheduled before
// its predecessor.
var ErrOutOfOrder = errors.New("sim: source out of order")

// Chain pulls items from src one at a time and runs each through serve at
// the instant at(item) returns. Only after serve returns true is the next
// item pulled and scheduled, so at most one admission is ever outstanding —
// the pattern every streaming runner in the repo uses to keep the event
// queue O(1) deep regardless of stream length.
//
// The chain is allocation-free per item: one state struct and one pre-bound
// event closure are reused for the whole stream. (The naive formulation —
// a recursive closure capturing each pulled item — costs a fresh closure
// per request, which profiling showed was one of the top allocation sites
// on the 1M-request streaming path.)
//
// at must be nondecreasing along the source: every streaming runner's
// contract is that its source yields arrivals in order. An item scheduled
// before its predecessor fails the engine with ErrOutOfOrder rather than
// being clamped to the current instant.
//
// serve returning false abandons the stream: nothing further is pulled and
// onEnd does not run. onEnd, if non-nil, runs exactly once when src is
// exhausted.
func Chain[T any](eng *Engine, src Source[T], at func(T) time.Duration, serve func(*Engine, T) bool, onEnd func()) {
	c := &chain[T]{src: src, at: at, serve: serve, onEnd: onEnd, last: math.MinInt64}
	c.fire = c.run // bind the event closure once, not per item
	c.admit(eng)
}

type chain[T any] struct {
	src   Source[T]
	at    func(T) time.Duration
	serve func(*Engine, T) bool
	onEnd func()
	item  T // the single in-flight item, valid between admit and run
	last  time.Duration
	fire  func(*Engine)
}

func (c *chain[T]) admit(e *Engine) {
	v, ok := c.src.Next()
	if !ok {
		if c.onEnd != nil {
			c.onEnd()
		}
		return
	}
	t := c.at(v)
	if t < c.last {
		e.Fail(fmt.Errorf("%w: item at %v after one at %v", ErrOutOfOrder, t, c.last))
		return
	}
	c.last = t
	c.item = v
	e.At(t, c.fire)
}

func (c *chain[T]) run(e *Engine) {
	if c.serve(e, c.item) {
		c.admit(e)
	}
}
