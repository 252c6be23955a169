package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAdvanceMovesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Go("p", func(p *Proc) {
		p.Advance(1500)
		at = p.Now()
	})
	e.RunAll()
	if at != 1500 {
		t.Fatalf("proc saw t=%v, want 1500", at)
	}
	if e.Now() != 1500 {
		t.Fatalf("engine at t=%v, want 1500", e.Now())
	}
}

func TestEventOrderingSameTimeIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			e.Go(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Advance(Time(10 * (len(n) + i))) // same durations across runs
					log = append(log, n)
				}
			})
		}
		e.RunAll()
		return log
	}
	first := strings.Join(run(), ",")
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), ","); got != first {
			t.Fatalf("nondeterministic interleaving: %q vs %q", got, first)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "q"}
	var woke []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		e.Go(n, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, n)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Advance(100)
		c.Signal()
		p.Advance(100)
		c.Signal()
		c.Signal()
	})
	e.RunAll()
	if strings.Join(woke, ",") != "w1,w2,w3" {
		t.Fatalf("wake order %v, want FIFO", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "gate"}
	n := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Advance(10)
		c.Broadcast()
	})
	e.RunAll()
	if n != 5 {
		t.Fatalf("broadcast woke %d of 5", n)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "never"}
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run(0)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("diagnosis missing proc/cond name: %v", err)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	c := &Cond{Name: "work"}
	e.GoDaemon("hw", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Go("app", func(p *Proc) { p.Advance(10) })
	if err := e.Run(0); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

// procPanic is a distinctive panic value: the tests below check that the
// very value raised inside a process reaches the Run caller.
type procPanic struct{ at Time }

// recoverRun calls run and returns whatever it panicked with.
func recoverRun(run func()) (r any) {
	defer func() { r = recover() }()
	run()
	return nil
}

// TestProcPanicReachesRunCaller: a panic inside a process propagates out of
// Engine.Run with its value intact, after the events before it ran.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Go("bystander", func(p *Proc) {
		for {
			p.Advance(7)
		}
	})
	e.Go("faulty", func(p *Proc) {
		p.Advance(100)
		panic(procPanic{at: p.Now()})
	})
	r := recoverRun(func() { _ = e.Run(0) })
	if r != (procPanic{at: 100}) {
		t.Fatalf("Run panicked with %#v, want procPanic{at: 100}", r)
	}
}

func TestServerFIFOAndOccupancy(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e)
	var done []Time
	e.Go("g", func(p *Proc) {
		s.Submit(100, func() { done = append(done, e.Now()) })
		s.Submit(50, func() { done = append(done, e.Now()) })
		p.Advance(30)
		s.Submit(10, func() { done = append(done, e.Now()) })
	})
	e.RunAll()
	want := []Time{100, 150, 160}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v (all: %v)", i, done[i], want[i], done)
		}
	}
	if s.Busy != 160 {
		t.Fatalf("busy=%v, want 160", s.Busy)
	}
}

func TestServerSubmitAtWaitsForRelease(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e)
	var at Time
	e.Go("g", func(p *Proc) {
		s.SubmitAt(500, 100, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 600 {
		t.Fatalf("completion at %v, want 600", at)
	}
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(1000, func() { fired = true })
	if err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 500 {
		t.Fatalf("clock at %v, want horizon 500", e.Now())
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	sum := 0
	e.Go("outer", func(p *Proc) {
		p.Advance(10)
		p.Engine().Go("inner", func(q *Proc) {
			q.Advance(5)
			sum += int(q.Now())
		})
		p.Advance(100)
		sum += int(p.Now())
	})
	e.RunAll()
	if sum != 15+110 {
		t.Fatalf("sum=%d, want %d", sum, 15+110)
	}
}

func TestRandDeterministicAndUniform(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Crude uniformity check on Intn.
	r := NewRand(123)
	counts := make([]int, 8)
	for i := 0; i < 80000; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d has %d of 80000 (expected ~10000)", i, c)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRand(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeUnits(t *testing.T) {
	tt := Time(1500)
	if tt.Microseconds() != 1.5 {
		t.Fatalf("1500ns = %vus, want 1.5", tt.Microseconds())
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Fatal("2e9 ns != 2 s")
	}
}
