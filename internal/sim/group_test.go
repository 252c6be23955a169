package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// groupPair builds a 2-shard group with one edge each way delivering into
// the given callbacks.
func groupPair(aToB, bToA func(any)) (*Group, *Engine, *Engine, *Edge, *Edge) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	ab := g.Edge(a, b, aToB)
	ba := g.Edge(b, a, bToA)
	return g, a, b, ab, ba
}

func TestGroupCrossDeliveryTiming(t *testing.T) {
	var gotAt Time
	var gotPayload any
	g, a, b, ab, _ := groupPair(nil, nil)
	_ = b
	ab.fn = func(p any) {
		gotAt = ab.dst.Now()
		gotPayload = p
	}
	a.At(1000, func() { ab.Send(a.Now()+500, "ping") })
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotPayload != "ping" || gotAt != 1500 {
		t.Fatalf("delivery = %v at t=%v, want ping at 1500", gotPayload, gotAt)
	}
	if a.Now() != b.Now() {
		t.Fatalf("shard clocks differ after run: %v vs %v", a.Now(), b.Now())
	}
}

// TestGroupPingPongMatchesLatencyChain bounces a token across shards N times
// and checks the exact finish time: each leg costs one lookahead.
func TestGroupPingPongMatchesLatencyChain(t *testing.T) {
	const rounds = 100
	hops := 0
	var g *Group
	var ab, ba *Edge
	fwd := func(any) {
		hops++
		if hops < rounds {
			ba.Send(ba.src.Now()+500, hops)
		}
	}
	bwd := func(any) {
		hops++
		if hops < rounds {
			ab.Send(ab.src.Now()+500, hops)
		}
	}
	g, a, _, ab, ba := groupPair(nil, nil)
	ab.fn, ba.fn = fwd, bwd
	a.At(0, func() { ab.Send(500, 0) })
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if hops != rounds {
		t.Fatalf("hops = %d, want %d", hops, rounds)
	}
	if want := Time(rounds * 500); a.Now() != want {
		t.Fatalf("finish at %v, want %v", a.Now(), want)
	}
}

// TestGroupDrainTieBreak pushes two same-timestamp entries from different
// source shards at one destination and checks the edge-creation order breaks
// the tie.
func TestGroupDrainTieBreak(t *testing.T) {
	g := NewGroup(1, 3, 500)
	a, b, c := g.Engines()[0], g.Engines()[1], g.Engines()[2]
	var order []string
	ac := g.Edge(a, c, func(p any) { order = append(order, p.(string)) })
	bc := g.Edge(b, c, func(p any) { order = append(order, p.(string)) })
	// Same push time, same delivery time, on both shards.
	b.At(100, func() { bc.Send(600, "from-b") })
	a.At(100, func() { ac.Send(600, "from-a") })
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "from-a" || order[1] != "from-b" {
		t.Fatalf("tie broken as %v, want [from-a from-b] (edge creation order)", order)
	}
}

func TestGroupProcsAndSoloWindows(t *testing.T) {
	g := NewGroup(7, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	var sum Time
	a.Go("worker-a", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(3)
		}
		sum = p.Now()
	})
	_ = b // shard b stays empty: every window is solo
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if sum != 3000 {
		t.Fatalf("worker finished at %v, want 3000", sum)
	}
	st := g.Stats()
	if st.Windows != 0 || st.SoloWindows == 0 {
		t.Fatalf("stats = %+v, want only solo windows", st)
	}
	// With no cross traffic the lone busy shard should run to completion in
	// one extended solo window, not one window per event.
	if st.SoloWindows > 2 {
		t.Fatalf("%d solo windows for an isolated shard, want 1", st.SoloWindows)
	}
}

func TestGroupDeadlockReportsAllShards(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	var ca, cb Cond
	ca.Name, cb.Name = "never-a", "never-b"
	a.Go("stuck-a", func(p *Proc) { ca.Wait(p) })
	b.Go("stuck-b", func(p *Proc) { cb.Wait(p) })
	err := g.Run(0)
	if err == nil {
		t.Fatal("deadlocked group returned nil error")
	}
	for _, want := range []string{"stuck-a", "stuck-b", "never-a", "never-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock error %q missing %q", err, want)
		}
	}
}

func TestGroupHorizonStopsAndSetsClocks(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	ran := 0
	a.At(1000, func() { ran++ })
	b.At(9000, func() { ran++ })
	if err := g.Run(5000); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("%d events ran before horizon, want 1", ran)
	}
	if a.Now() != 5000 || b.Now() != 5000 {
		t.Fatalf("clocks = %v/%v, want horizon 5000", a.Now(), b.Now())
	}
}

// TestGroupSoloCrossSendReBoundsWindow checks the solo fast path cannot run
// past its own cross-shard sends: the receiver must observe each arrival at
// its correct time even when the sender was the only busy shard.
func TestGroupSoloCrossSendReBoundsWindow(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	var arrivals []Time
	ab := g.Edge(a, b, func(any) { arrivals = append(arrivals, b.Now()) })
	a.Go("sender", func(p *Proc) {
		for i := 0; i < 10; i++ {
			ab.Send(p.Now()+500, i)
			p.Advance(2000)
		}
	})
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 10 {
		t.Fatalf("%d arrivals, want 10", len(arrivals))
	}
	for i, at := range arrivals {
		if want := Time(i*2000 + 500); at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

// TestGroupSoloExtensionCoversIdleGap pins the solo fast path's extension
// contract under the decentralized barrier: when only one shard has work
// before the window end, its solo window extends to one lookahead past the
// second-earliest pending time — it must NOT pay one window per event while
// the other shard idles toward a far-future wakeup.
func TestGroupSoloExtensionCoversIdleGap(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	var bAt Time
	steps := 0
	a.Go("busy", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(3)
			steps++
		}
	})
	b.At(100000, func() { bAt = b.Now() })
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if steps != 1000 || bAt != 100000 {
		t.Fatalf("steps=%d bAt=%v, want 1000 / 100000", steps, bAt)
	}
	st := g.Stats()
	if st.Windows != 0 {
		t.Fatalf("Windows = %d, want 0 (never two shards active at once)", st.Windows)
	}
	// One extended solo window carries shard a through all 1000 events (its
	// bound is 100000+500, far past its last event at 3000); one more runs
	// shard b's event. Without extension this would be ~600 windows.
	if st.SoloWindows > 3 {
		t.Fatalf("SoloWindows = %d, want <= 3 (solo bound must extend to second+lookahead)", st.SoloWindows)
	}
}

// TestGroupShardIdleMidRunRewakes drives a shard idle partway through the
// run (its published next time becomes +inf, so decisions exclude it from
// windows) and then re-activates it with cross traffic: the delivery must
// arrive at its exact time even though the shard was out of every barrier in
// between.
func TestGroupShardIdleMidRunRewakes(t *testing.T) {
	g := NewGroup(1, 3, 500)
	a, b, c := g.Engines()[0], g.Engines()[1], g.Engines()[2]
	var cTimes []Time
	ac := g.Edge(a, c, func(any) { cTimes = append(cTimes, c.Now()) })
	var ab, ba *Edge
	hops := 0
	ab = g.Edge(a, b, func(any) {
		hops++
		ba.Send(b.Now()+500, nil)
	})
	ba = g.Edge(b, a, func(any) {
		hops++
		if hops < 10 {
			ab.Send(a.Now()+500, nil)
		} else {
			ac.Send(a.Now()+500, nil) // re-activate the long-idle shard c
		}
	})
	c.At(50, func() {}) // c runs one early event, then sits idle
	a.At(0, func() { ab.Send(500, nil) })
	if err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(cTimes) != 1 || cTimes[0] != 5500 {
		t.Fatalf("idle shard deliveries = %v, want exactly one at 5500", cTimes)
	}
	if a.Now() != c.Now() || b.Now() != c.Now() {
		t.Fatalf("clocks differ after run: %v/%v/%v", a.Now(), b.Now(), c.Now())
	}
}

// TestGroupRerunAfterIdleShard runs the same group twice — the way
// hw.Cluster.RunChecked slices a long simulation into watchdog budgets —
// with a shard idle through the whole first run that only becomes active in
// the second. Regression test: worker goroutines are respawned per Run but
// each shard's barrier seq word persists across runs, so a fresh worker
// starting its await from zero fell straight through its first wait and
// read the previous run's sticky opExit — the shard's goroutine exited, and
// the first window that needed it deadlocked the whole group.
func TestGroupRerunAfterIdleShard(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	var got []Time
	ab := g.Edge(a, b, func(any) { got = append(got, b.Now()) })
	a.At(10, func() {}) // run 1: shard b never has work
	g.RunAll()
	a.At(20, func() { ab.Send(620, nil) }) // run 2: b re-enters the windows
	g.RunAll()
	if len(got) != 1 || got[0] != 620 {
		t.Fatalf("second-run deliveries = %v, want exactly one at 620", got)
	}
	if a.Now() != 620 || b.Now() != 620 {
		t.Fatalf("clocks after second run: %v/%v, want 620/620", a.Now(), b.Now())
	}
}

// TestGroupDrainOrderMatchesReferenceFuzz pins the batched per-edge drain
// against the per-entry reference: deliveries into one shard must execute in
// ascending (at, pushAt, causeAt*nedges+edgeIdx) key order — the order a
// per-entry merged drain (or a serial engine pushing chronologically) would
// produce — no matter how entries are batched across edges. Random traffic,
// deterministic seeds.
func TestGroupDrainOrderMatchesReferenceFuzz(t *testing.T) {
	type rec struct {
		edge    int
		at      Time
		payload int
	}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := NewRand(seed)
		nedges := 2 + rng.Intn(7)
		g := NewGroup(seed, 3, 500)
		dst := g.Engines()[2]
		var got []rec
		edges := make([]*Edge, nedges)
		for i := range edges {
			i := i
			src := g.Engines()[i%2]
			edges[i] = g.Edge(src, dst, func(p any) {
				got = append(got, rec{i, dst.Now(), p.(int)})
			})
		}
		// Stage random traffic directly: per edge, strictly increasing at
		// (one edge's sends are serialized by its source); pushAt anywhere
		// at least one lookahead back; causeAt <= pushAt.
		type keyed struct {
			key [3]uint64
			rec rec
		}
		var want []keyed
		payload := 0
		for i, ed := range edges {
			at := Time(0)
			n := 1 + rng.Intn(12)
			for j := 0; j < n; j++ {
				at += 500 + Time(rng.Intn(2000))
				pushAt := at - 500 - Time(rng.Intn(int(at-499)))
				causeAt := pushAt - Time(rng.Intn(int(pushAt+1)))
				payload++
				ed.staged.Push(crossEntry{at: at, pushAt: pushAt, causeAt: causeAt, payload: payload})
				want = append(want, keyed{
					key: [3]uint64{uint64(at), uint64(pushAt), uint64(causeAt)*uint64(nedges) + uint64(i)},
					rec: rec{i, at, payload},
				})
			}
		}
		g.prepare()
		g.drainShard(g.workers[2])
		dst.RunAll()
		sort.Slice(want, func(x, y int) bool {
			kx, ky := want[x].key, want[y].key
			if kx[0] != ky[0] {
				return kx[0] < ky[0]
			}
			if kx[1] != ky[1] {
				return kx[1] < ky[1]
			}
			return kx[2] < ky[2]
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d deliveries, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k].rec {
				t.Fatalf("seed %d: delivery %d = %+v, want %+v (batched drain broke key order)",
					seed, k, got[k], want[k].rec)
			}
		}
	}
}

// TestSignalHandoffOrder pins the Signal fast path's ordering contract:
// events pushed after a Signal still run after the woken process, exactly as
// the queue-based path ordered them.
func TestSignalHandoffOrder(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	c.Name = "order"
	var order []string
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		order = append(order, "waiter")
	})
	e.Go("signaler", func(p *Proc) {
		p.Yield() // let the waiter park
		c.Signal()
		e.At(e.Now(), func() { order = append(order, "callback") })
		p.Yield()
		order = append(order, "signaler")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"waiter", "callback", "signaler"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestGroupAwaitIgnoresStaleToken replays a late releaser: it bumps the
// worker's seq, the worker sees the bump while spinning and runs that
// command, and only when the worker has parked for its next command does the
// releaser reach its parked check and send a token. That token belongs to a
// command already run, so the worker must keep waiting for the next real
// release. Regression test: a worker that trusted the token re-ran its last
// command and arrived at the barrier twice, which let a decision-maker start
// while another shard was still inside its window.
func TestGroupAwaitIgnoresStaleToken(t *testing.T) {
	g := &Group{}
	w := &shardWorker{wake: make(chan struct{}, 1)}
	w.seq.Add(1) // the late releaser's bump, seen while spinning
	if got := w.await(0, 1); got != 1 {
		t.Fatalf("first await = %d, want 1", got)
	}
	done := make(chan uint32, 1)
	go func() { done <- w.await(1, 0) }()
	for w.parked.Load() != 1 {
		runtime.Gosched()
	}
	if w.parked.CompareAndSwap(1, 0) { // the late releaser's parked check
		w.wake <- struct{}{}
	}
	select {
	case s := <-done:
		t.Fatalf("await returned %d on a stale token, want it to wait for seq 2", s)
	case <-time.After(20 * time.Millisecond):
	}
	g.release(w, opWindow, 0)
	if s := <-done; s != 2 {
		t.Fatalf("await = %d after the real release, want 2", s)
	}
	if len(w.wake) != 0 || w.parked.Load() != 0 {
		t.Fatalf("after await: %d tokens queued, parked=%d; want none, 0", len(w.wake), w.parked.Load())
	}
}

// TestGroupProcPanicReachesRunCaller: a panic inside a process on a shard
// worker reaches the Group.Run caller through the group's abort path with
// its value intact, while the other shard keeps running windows.
func TestGroupProcPanicReachesRunCaller(t *testing.T) {
	g := NewGroup(1, 2, 500)
	a, b := g.Engines()[0], g.Engines()[1]
	a.Go("bystander", func(p *Proc) {
		for {
			p.Advance(7)
		}
	})
	b.Go("faulty", func(p *Proc) {
		p.Advance(1000)
		panic(procPanic{at: p.Now()})
	})
	r := recoverRun(func() { _ = g.Run(0) })
	if r != (procPanic{at: 1000}) {
		t.Fatalf("Group.Run panicked with %#v, want procPanic{at: 1000}", r)
	}
}

// exchangeNodes is the number of logical processes in exchangeWorkload.
const exchangeNodes = 6

// exchangeWorkload spawns one process per logical node on engs[node%len]
// (one engine: serial). Each process loops: compute (Advance), send a
// message to another node at least one lookahead ahead, then wait for its
// next incoming message. Messages travel through group Edges, or through
// AfterKeyed on a serial engine with the same (lane, lanes) key, so both
// modes order ties identically. Each node records (time, node, payload) for
// every receipt and resume; the records are per node, so shards never share
// a slice. crossRun counts, per node, the resumptions in a later run than
// the park, read through *run, which the caller bumps between runs.
func exchangeWorkload(engs []*Engine, g *Group, run *int) (trace [][]string, crossRun []int) {
	const rounds = 5 * (exchangeNodes - 1)
	const lookahead = 500
	eng := func(n int) *Engine { return engs[n%len(engs)] }
	trace = make([][]string, exchangeNodes)
	crossRun = make([]int, exchangeNodes)
	inbox := make([][]int, exchangeNodes)
	conds := make([]*Cond, exchangeNodes)
	for n := range conds {
		conds[n] = &Cond{Name: fmt.Sprintf("inbox-%d", n)}
	}
	deliver := func(dst int, payload int) {
		inbox[dst] = append(inbox[dst], payload)
		trace[dst] = append(trace[dst], fmt.Sprintf("%d n%d recv %d", eng(dst).Now(), dst, payload))
		conds[dst].Signal()
	}
	// One lane per ordered (src, dst) pair, in (src, dst) order; the
	// src == dst lanes exist but carry nothing.
	lane := func(src, dst int) int { return src*exchangeNodes + dst }
	const lanes = exchangeNodes * exchangeNodes
	var edges []*Edge
	if g != nil {
		for src := 0; src < exchangeNodes; src++ {
			for dst := 0; dst < exchangeNodes; dst++ {
				dst := dst
				edges = append(edges, g.Edge(eng(src), eng(dst), func(x any) { deliver(dst, x.(int)) }))
			}
		}
	}
	send := func(src, dst int, d Time, payload int) {
		e := eng(src)
		if g != nil {
			edges[lane(src, dst)].Send(e.Now()+d, payload)
			return
		}
		e.AfterKeyed(d, uint64(lane(src, dst)), lanes, func() { deliver(dst, payload) })
	}
	for n := 0; n < exchangeNodes; n++ {
		n := n
		eng(n).Go(fmt.Sprintf("n%d", n), func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(Time(50 + (n*37+i*11)%200))
				dst := (n + 1 + i%(exchangeNodes-1)) % exchangeNodes
				send(n, dst, Time(lookahead+(n*13+i*7)%100), n*1000+i)
				for len(inbox[n]) == 0 {
					parkedIn := *run
					conds[n].Wait(p)
					if *run != parkedIn {
						crossRun[n]++
					}
				}
				inbox[n] = inbox[n][1:]
				trace[n] = append(trace[n], fmt.Sprintf("%d n%d resume %d", p.Now(), n, i))
			}
		})
	}
	return trace, crossRun
}

// TestGroupProcResumesAcrossRuns drives processes on 2 and 3 shards, which
// exchange Edge traffic, through a ladder of Group.Run horizons — the way
// hw.Cluster.RunChecked slices a simulation into watchdog budgets. Shard
// workers are respawned per Run, so a process parked in one Run is resumed
// by a different goroutine in the next. The recorded trace must equal that
// of one Run(0) on a group of the same shape, and of a serial engine.
func TestGroupProcResumesAcrossRuns(t *testing.T) {
	flatten := func(trace [][]string) string {
		var all []string
		for _, tr := range trace {
			all = append(all, tr...)
		}
		return strings.Join(all, "\n")
	}
	run := 0
	e := NewEngine(1)
	serial, _ := exchangeWorkload([]*Engine{e}, nil, &run)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := flatten(serial)
	if want == "" {
		t.Fatal("serial run recorded nothing")
	}
	for _, shards := range []int{2, 3} {
		for _, ladder := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/ladder=%v", shards, ladder)
			g := NewGroup(1, shards, 500)
			run = 0
			trace, crossRun := exchangeWorkload(g.Engines(), g, &run)
			if !ladder {
				if err := g.Run(0); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				for horizon := Time(700); g.Pending() || run == 0; horizon += 700 {
					if err := g.Run(horizon); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					run++
				}
				resumed := 0
				for _, c := range crossRun {
					resumed += c
				}
				if run < 10 || resumed == 0 {
					t.Fatalf("%s: %d runs, %d cross-run resumptions; want a ladder that parks procs across runs",
						name, run, resumed)
				}
			}
			if got := flatten(trace); got != want {
				t.Fatalf("%s: trace differs from the serial engine\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}
}
