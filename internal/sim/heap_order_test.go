package sim

import (
	"container/heap"
	"reflect"
	"testing"
	"unsafe"
)

// TestEventIsFourWords pins the event layout the scheduler's speed depends
// on: the compiler keeps a struct of up to four words in registers, and a
// fifth field costs ~4x on BenchmarkProcAdvance (see the event comment).
func TestEventIsFourWords(t *testing.T) {
	n := reflect.TypeOf(event{}).NumField()
	size := unsafe.Sizeof(event{})
	if want := 3*unsafe.Sizeof(Time(0)) + unsafe.Sizeof(uintptr(0)); n != 4 || size != want {
		t.Fatalf("event has %d fields, %d bytes; want 4 fields, %d bytes", n, size, want)
	}
}

// refEvent / refHeap reimplement the kernel's original container/heap
// scheduler: boxed events ordered by (at, seq). The inline 4-ary heap and
// the same-time run queue must reproduce this execution order exactly —
// byte-identical goldens depend on it.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refEngine is the trivially-correct scheduler the real engine is checked
// against.
type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
}

// scheduler is the common surface the cascade generator drives.
type scheduler interface {
	At(t Time, fn func())
}

// cascade generates a randomized event cascade on s and records execution
// order in *order: each event appends its id, then reschedules 0-2 children
// at now+delta, where delta is often 0 (the run-queue path in the real
// engine) and frequently collides with other timestamps (exercising the
// (at, seq) FIFO tie-break).
type cascade struct {
	s      scheduler
	now    func() Time
	rng    *Rand
	nextID int
	budget int
	order  []int
}

func (c *cascade) fire(self int) func() {
	return func() {
		c.order = append(c.order, self)
		kids := c.rng.Intn(3)
		for k := 0; k < kids && c.budget > 0; k++ {
			c.budget--
			c.nextID++
			var d Time
			switch c.rng.Intn(4) {
			case 0: // same time as the running event
				d = 0
			case 1: // collision-prone small offsets
				d = Time(c.rng.Intn(3))
			default:
				d = Time(c.rng.Intn(50))
			}
			c.s.At(c.now()+d, c.fire(c.nextID))
		}
	}
}

func (c *cascade) seedRoots() {
	for i := 0; i < 40; i++ {
		c.nextID++
		t := Time(c.rng.Intn(20))
		if i%5 == 0 {
			t = 0 // burst of same-time roots
		}
		c.s.At(t, c.fire(c.nextID))
	}
}

// TestEventOrderMatchesContainerHeap drives identical randomized cascades
// through the real engine and the container/heap reference and requires the
// exact same execution order, across many seeds.
func TestEventOrderMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		eng := NewEngine(1)
		got := &cascade{s: eng, now: eng.Now, rng: NewRand(seed * 977), budget: 3000}
		got.seedRoots()
		if err := eng.Run(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ref := &refEngine{}
		want := &cascade{s: ref, now: func() Time { return ref.now }, rng: NewRand(seed * 977), budget: 3000}
		want.seedRoots()
		ref.Run()

		if len(got.order) != len(want.order) {
			t.Fatalf("seed %d: ran %d events, reference ran %d", seed, len(got.order), len(want.order))
		}
		for i := range got.order {
			if got.order[i] != want.order[i] {
				t.Fatalf("seed %d: divergence at event %d: engine ran id %d, reference id %d",
					seed, i, got.order[i], want.order[i])
			}
		}
	}
}
