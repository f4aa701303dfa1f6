// Package effects exercises the summary computation: each function's
// want comment states the effect set the probe analyzer must report.
package effects

import (
	"sync"

	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

type thing struct{ n int }

// A bare charge with no balancing free: the caller inherits the
// obligation (tracker-wrapper shape).
func chargeOnly(t mine.MemTracker) { // want `effects: chargesNet charges$`
	t.Alloc(64)
}

// Charge and free on the same path: no net effect toward the caller,
// but the charge itself is uncovered by any span.
func balanced(t mine.MemTracker) { // want `effects: charges$`
	t.Alloc(64)
	t.Free(64)
}

// A free with no local charge balances the caller's token.
func release(t mine.MemTracker, n int64) { // want `effects: releases$`
	t.Free(n)
}

// Acquire shape: charges and hands the resource out.
func acquire(t mine.MemTracker) *thing { // want `effects: chargesNet charges$`
	th := &thing{}
	t.Alloc(128)
	return th
}

// A charge covered by a span the function opens itself carries no
// obligation outward.
func spanCovered(r *obs.Recorder, t mine.MemTracker) { // want `effects: none$`
	sp := r.Start("work")
	t.Alloc(9)
	t.Free(9)
	sp.End()
}

// The PR-6 shape: the span is closed before the charge runs, so the
// charge is bare even though the function uses spans.
func spanBare(r *obs.Recorder, t mine.MemTracker) { // want `effects: charges$`
	sp := r.Start("work")
	sp.End()
	t.Alloc(9)
	t.Free(9)
}

// Starting a goroutine is not a summary effect (goroutinesafe checks
// spawns on its own).
func spawn() { // want `effects: none$`
	go func() {}()
}

func spawnVia() { // want `effects: none$`
	spawn()
}

func emit(s mine.Sink) error { // want `effects: emitsSink$`
	return s.Emit(nil, 1)
}

// A call through a plain function value is genuinely unknown.
func dyn(f func()) { // want `effects: dynamic$`
	f()
}

func emitVia(s mine.Sink) error { // want `effects: emitsSink$`
	return emit(s)
}

// Parameter writes come from pointsto's write mask, which the probe
// prints next to the summary.
func scribble(th *thing) { // want `effects: writes\(0x1\)$`
	th.n = 7
}

func scribbleVia(th *thing) { // want `effects: writes\(0x1\)$`
	scribble(th)
}

func (th *thing) poke() { // want `effects: writes\(0x1\)$`
	th.n++
}

// Rebinding the parameter variable itself is not a write through it.
func rebind(th *thing) { // want `effects: none$`
	th = &thing{}
	_ = th
}

func idx(b []byte, i int) byte { // want `effects: unbounded\(0x2\)$`
	return b[i]
}

func idxChecked(b []byte, i int) byte { // want `effects: none$`
	if i < len(b) {
		return b[i]
	}
	return 0
}

func idxVia(b []byte, i int) byte { // want `effects: unbounded\(0x2\)$`
	return idx(b, i)
}

func pget(p *sync.Pool) *thing { // want `effects: getsPooled$`
	return p.Get().(*thing)
}

func pgetVia(p *sync.Pool) *thing { // want `effects: getsPooled$`
	th := pget(p)
	return th
}

func pput(p *sync.Pool, th *thing) { // want `effects: puts\(0x2\)$`
	p.Put(th)
}

func pputVia(p *sync.Pool, th *thing) { // want `effects: puts\(0x2\)$`
	pput(p, th)
}

// Mutual recursion converges to the union of both bodies' effects.
func pingPong(s mine.Sink, depth int) { // want `effects: emitsSink$`
	if depth == 0 {
		return
	}
	pong(s, depth-1)
}

func pong(s mine.Sink, depth int) { // want `effects: emitsSink$`
	_ = s.Emit(nil, 1)
	pingPong(s, depth)
}
