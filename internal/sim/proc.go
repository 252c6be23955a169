// The go1.23 constraint marks this file as the one that needs iter.Pull,
// which the module's go 1.22 line predates; the toolchain line in go.mod
// selects a Go that has it.

//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a sequential program whose execution is
// interleaved with others only at explicit virtual-time operations
// (Advance, Wait, ...). Its body runs as a coroutine (iter.Pull), resumed by
// whichever goroutine runs the engine; the parking operations (Advance,
// Yield, Cond.Wait, Detach) must only be called from the proc's own body.
type Proc struct {
	eng      *Engine
	name     string
	daemon   bool
	finished bool
	parkedAt string // wait reason while parked on a Cond (diagnostics)

	// wakeFn, allocated once at spawn, deposits this proc into the engine's
	// wake slot when its scheduled wakeup event fires. Carrying the wakeup
	// as a func() keeps the event struct at four fields, which the compiler
	// can hold in registers (see the event comment in sim.go).
	wakeFn func()

	// gateFn, also allocated once at spawn, is the wakeup event of
	// AdvanceWhile: it asks again whether to stay parked and either
	// re-pushes itself gateD later or wakes the proc as wakeFn would.
	gateFn func()
	gateD  Time
	again  func() bool

	// next resumes the body from the dispatcher (Engine.dispatch); yield,
	// called by the body in Engine.exec, suspends it and returns control
	// there.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start makes fn the body of p's coroutine. The body starts on the first
// resume (its spawn wakeup) and, when it finishes, simply returns to
// whichever dispatcher resumed it last. The stop function is never needed: a
// finished body has already returned, and a proc parked forever (daemon or
// Detach) stays suspended for the life of the process.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.finished = true
		if !p.daemon {
			p.eng.live--
		}
	})
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Detach permanently parks the calling process and never returns. The
// process is reclassified as a daemon — it no longer counts toward the
// engine's live-workload total, so the run can complete (and deadlock
// detection stays meaningful) while the coroutine stays suspended forever.
// It models a fail-stop node: the program simply ceases, mid-call, with
// reason recorded for diagnostics.
func (p *Proc) Detach(reason string) {
	if !p.daemon {
		p.daemon = true
		p.eng.live--
	}
	p.parkedAt = reason
	// No wakeup is ever scheduled: park runs the scheduler loop until the
	// baton moves elsewhere, then yields and is never resumed.
	p.park()
	panic("sim: detached process resumed")
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park deschedules p: the proc keeps the baton and runs the scheduler loop
// itself, returning as soon as p's next wakeup fires (possibly without ever
// leaving its coroutine — see Engine.exec).
func (p *Proc) park() {
	p.eng.exec(p)
}

// Advance charges d nanoseconds of virtual time to this process: the
// process is descheduled and resumes once the clock has moved d forward.
// Advance(0) is a yield: same-time events queued before it run first.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p, p.eng.now+d)
	p.park()
}

// AdvanceWhile charges d like Advance(d), then keeps charging d for as long
// as again reports true, without resuming the process in between: each time
// the wakeup fires, again runs inline in the event loop and, on true,
// re-pushes the wakeup d later. That push is exactly the one the process
// would have made by returning from Advance(d) and calling it once more
// before anything else ran, so event keys, EventsRun and the order of every
// other event stay what the loop
//
//	for { p.Advance(d); if !again() { break } }
//
// would produce. again therefore stands for everything that loop body does
// between two Advance calls; it must not park, and it must return false
// rather than act when the process itself has work to do. It runs on the
// proc's own engine (its shard, in a Group).
func (p *Proc) AdvanceWhile(d Time, again func() bool) {
	if d < 0 {
		d = 0
	}
	p.gateD = d
	p.again = again
	p.eng.push(p.eng.now+d, p.gateFn)
	p.park()
	p.again = nil
}

// gate is the AdvanceWhile wakeup (see gateFn).
func (p *Proc) gate() {
	e := p.eng
	if p.again() {
		e.push(e.now+p.gateD, p.gateFn)
		return
	}
	e.wake = p
}

// Yield lets all already-scheduled same-time events run before continuing.
func (p *Proc) Yield() { p.Advance(0) }

// Cond is a FIFO condition variable for simulated processes. The zero value
// is ready to use after setting Name (used in deadlock diagnostics).
type Cond struct {
	Name    string
	waiters []*Proc
}

// Wait parks the calling process until a Signal or Broadcast wakes it.
// Wakeups are FIFO and never spurious, but as with any condition variable
// the guarded predicate should be re-checked in a loop: another process may
// run between the wakeup being scheduled and the waiter resuming.
func (c *Cond) Wait(p *Proc) {
	p.parkedAt = c.Name
	c.waiters = append(c.waiters, p)
	p.park()
	p.parkedAt = ""
}

// Signal wakes the longest-waiting process, if any. The wakeup is scheduled
// at the current virtual time; it is safe to call from engine callbacks or
// from other processes. When the woken process would be the very next event
// anyway — run queue drained, no same-time heap events, no handoff already
// pending — it skips the queues entirely and is parked in the engine's
// handoff slot, which every scheduler loop consumes first. Any event pushed
// after this Signal carries a larger seq and would run after the wakeup
// regardless, so the fast path preserves the exact serial order.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	e := p.eng
	if e.handoff == nil && e.runqHead == len(e.runq) &&
		(len(e.events) == 0 || e.events[0].at > e.now) {
		e.handoff = p
		return
	}
	e.schedule(p, e.now)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.eng.schedule(p, p.eng.now)
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of processes parked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }
