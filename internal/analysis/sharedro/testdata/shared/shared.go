// Fixture for the sharedro analyzer: RunSharded worker closures may
// read captured shared state but never write it, directly or through
// a callee that writes a parameter.
package fixture

import "cfpgrowth/internal/mine"

type dec struct {
	n   int
	buf []uint32
}

// fill writes its receiver: callers see writes(0x1) in the summary.
func (d *dec) fill() { d.n++ }

// scribble writes through its parameter: writes(0x1).
func scribble(d *dec) { d.n = 7 }

// aliasScribble writes through a local alias of its parameter: only an
// alias-aware write mask sees it.
func aliasScribble(d *dec) {
	b := d.buf
	b[0] = 1
}

// peek only reads.
func peek(d *dec) int { return d.n }

func use(int) {}

func directWrites(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		top.n = job // want `^worker closure writes top, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts$`
		return nil
	})
}

func elementWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		top.buf[0] = uint32(job) // want `^worker closure writes top, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts$`
		return nil
	})
}

func incWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		top.n++ // want `^worker closure writes top, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts$`
		return nil
	})
}

func receiverWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		top.fill() // want `^call to fill writes through top, which is captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts$`
		return nil
	})
}

func paramWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		scribble(top) // want `^call to scribble writes through top, which is captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts$`
		return nil
	})
}

func copyWrite(workers int, shards [][]int, ctl *mine.Control, top []uint32) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		copy(top, []uint32{1}) // want `^copy writes into top, which is captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts$`
		return nil
	})
}

func calleeAliasWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		aliasScribble(top) // want `^call to aliasScribble writes through top, which is captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts$`
		return nil
	})
}

func localAliasWrite(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		b := top.buf
		b[0] = uint32(job) // want `^worker closure writes b, which may point into top, captured from the spawning scope and shared across RunSharded workers; an unsynchronized write here is a data race — make it worker-local or write it before the pool starts$`
		return nil
	})
}

func localAliasCall(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		m := top
		scribble(m) // want `^call to scribble writes through m, which may point into top, captured from the spawning scope and shared across RunSharded workers; workers may only read shared decodes — give each worker its own copy or do the write before the pool starts$`
		return nil
	})
}

func readsOnly(workers int, shards [][]int, ctl *mine.Control, top *dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		use(top.n)
		use(peek(top))
		return nil
	})
}

// perWorker state indexed by the closure's parameters is partitioned
// by construction and exempt, including through locals derived from
// the partitioned access.
func perWorker(workers int, shards [][]int, ctl *mine.Control, ds []*dec) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		ds[worker].n = job
		ds[worker].fill()
		m := ds[worker]
		m.n++
		scribble(m)
		return nil
	})
}

// The synchronized layers are their own contract: stopping the shared
// Control from a worker is how first-error-wins works.
func stopsControl(workers int, shards [][]int, ctl *mine.Control) error {
	return mine.RunSharded(workers, shards, ctl, func(worker, shard, job int) error {
		ctl.Probe(int64(job))
		return nil
	})
}

// Writes in an ordinary function literal (not a RunSharded worker)
// are out of scope.
func notAWorker(top *dec) {
	f := func() { top.n = 1 }
	f()
}
