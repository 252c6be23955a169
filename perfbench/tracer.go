package main

import (
	"runtime/metrics"
	"time"
)

// Phases of a rep. Set-up and run are timed and their allocations counted;
// verification is timed on its own and excluded from both.
const (
	phSetup = iota
	phRun
	phVerify
)

var phaseNames = [...]string{"setup", "run", "verify"}

// span is one call from the benchmark into a layer, or (Parent == -1) one
// whole rep. Times are host nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase,omitempty"`
	Rep    int    `json:"rep"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times every call a rep makes into a layer. It always sums host
// time per phase and the bytes allocated in set-up and run; with on set it
// also keeps a span per call, in memory until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	rep   int
	root  int

	phase [3]time.Duration // host time per phase, this rep
	alloc uint64           // bytes allocated by set-up and run calls, this rep
	ms    []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), rep: -1,
		ms: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) beginRep() {
	t.rep++
	t.phase = [3]time.Duration{}
	t.alloc = 0
	if t.on {
		t.root = len(t.spans)
		t.spans = append(t.spans, span{Name: "rep", Rep: t.rep, Parent: -1, Start: t.now()})
	}
}

func (t *tracer) endRep() {
	if t.on {
		t.spans[t.root].End = t.now()
	}
}

func (t *tracer) setup(name string, fn func()) float64  { return t.call(phSetup, name, fn) }
func (t *tracer) run(name string, fn func()) float64    { return t.call(phRun, name, fn) }
func (t *tracer) verify(name string, fn func()) float64 { return t.call(phVerify, name, fn) }

// call runs fn as one span and returns its host seconds.
func (t *tracer) call(ph int, name string, fn func()) float64 {
	var a0 uint64
	if ph != phVerify {
		a0 = t.allocated()
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	t.phase[ph] += d
	if ph != phVerify {
		t.alloc += t.allocated() - a0
	}
	if t.on {
		s := start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Name: name, Phase: phaseNames[ph], Rep: t.rep,
			Parent: t.root, Start: s, End: s + d.Nanoseconds()})
	}
	return d.Seconds()
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) allocated() uint64 {
	metrics.Read(t.ms)
	return t.ms[0].Value.Uint64()
}
