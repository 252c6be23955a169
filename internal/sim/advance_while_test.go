package sim

import (
	"fmt"
	"strings"
	"testing"
)

// advanceWhileWorkload runs one polling process beside processes and
// callbacks that tie with it at the same instants. The poller's "poll" is
// a period of Advance(100) followed by step, which logs the poll and every
// seventh time reports work; then the poller logs a wake, computes for 50
// and signals a waiter. useWhile selects how the poll loop parks: a plain
// Advance loop, or one AdvanceWhile call per stretch of empty polls.
func advanceWhileWorkload(useWhile bool) (string, int64, Time) {
	e := NewEngine(1)
	var log []string
	rec := func(who string) { log = append(log, fmt.Sprintf("%d %s", e.Now(), who)) }

	const polls = 200
	n := 0
	step := func() bool {
		n++
		rec("poll")
		return n%7 != 0 && n < polls
	}
	cond := &Cond{Name: "woken"}
	e.Go("poller", func(p *Proc) {
		for n < polls {
			if useWhile {
				p.AdvanceWhile(100, step)
			} else {
				for {
					p.Advance(100)
					if !step() {
						break
					}
				}
			}
			rec("wake")
			p.Advance(50)
			cond.Signal()
		}
	})
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 2*polls; i++ {
			p.Advance(100)
			rec("tick")
			if i%3 == 0 {
				p.Yield()
				rec("tick-yield")
			}
		}
	})
	e.Go("half", func(p *Proc) {
		for i := 0; i < 4*polls; i++ {
			p.Advance(50)
			rec("half")
		}
	})
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < polls/7; i++ {
			cond.Wait(p)
			rec("waiter")
		}
	})
	k := 0
	var chain func()
	chain = func() {
		rec("cb")
		if k++; k < 3*polls {
			e.After(100, chain)
		}
	}
	e.After(100, chain)
	for t := Time(0); t < 100*polls; t += 300 {
		e.At(t, func() { rec("at") })
	}
	e.RunAll()
	return strings.Join(log, "\n"), e.EventsRun, e.Now()
}

// TestAdvanceWhileMatchesAdvance checks that AdvanceWhile reproduces the
// Advance loop it stands for: the same (time, actor) trace, the same event
// count and the same finish time, with ties at every poll instant.
func TestAdvanceWhileMatchesAdvance(t *testing.T) {
	want, wantEv, wantEnd := advanceWhileWorkload(false)
	got, gotEv, gotEnd := advanceWhileWorkload(true)
	if got != want {
		t.Fatalf("trace differs from the Advance loop\ngot:\n%s\nwant:\n%s", got, want)
	}
	if gotEv != wantEv || gotEnd != wantEnd {
		t.Fatalf("EventsRun/finish = %d/%v, want %d/%v", gotEv, gotEnd, wantEv, wantEnd)
	}
	if !strings.Contains(want, "poll") || !strings.Contains(want, "waiter") {
		t.Fatal("workload recorded no polls or wakeups")
	}
}

// pollExchangeWorkload spawns one polling process per logical node on
// engs[node%len] (one engine: serial). Each process polls its inbox every
// period; an empty poll is logged, and each message is consumed, followed
// by a short computation and answered with a send to another node at least
// one lookahead ahead. Messages travel over group Edges, or AfterKeyed on a
// serial engine. A poller stops at a fixed time; traffic still in flight
// then lands in its inbox unanswered. useWhile runs each stretch of empty
// polls as one AdvanceWhile instead of an Advance loop.
func pollExchangeWorkload(engs []*Engine, g *Group, useWhile bool) [][]string {
	const nodes = 5
	const lookahead = 500
	const end = 12000 // each poller stops once its clock reaches end
	eng := func(n int) *Engine { return engs[n%len(engs)] }
	trace := make([][]string, nodes)
	inbox := make([][]int, nodes)
	deliver := func(dst, payload int) {
		inbox[dst] = append(inbox[dst], payload)
		trace[dst] = append(trace[dst], fmt.Sprintf("%d n%d recv %d", eng(dst).Now(), dst, payload))
	}
	lane := func(src, dst int) int { return src*nodes + dst }
	var edges []*Edge
	if g != nil {
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
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
		e.AfterKeyed(d, uint64(lane(src, dst)), nodes*nodes, func() { deliver(dst, payload) })
	}
	for n := 0; n < nodes; n++ {
		n := n
		period := Time(40 + 20*(n%3)) // periods 40/60/80 tie often
		empty := func() bool {
			if len(inbox[n]) > 0 || eng(n).Now() >= end {
				return false
			}
			trace[n] = append(trace[n], fmt.Sprintf("%d n%d poll", eng(n).Now(), n))
			return true
		}
		eng(n).Go(fmt.Sprintf("n%d", n), func(p *Proc) {
			send(n, (n+2)%nodes, lookahead+Time(n), 100*n)
			for p.Now() < end {
				if useWhile {
					p.AdvanceWhile(period, empty)
				} else {
					for {
						p.Advance(period)
						if !empty() {
							break
						}
					}
				}
				for len(inbox[n]) > 0 {
					x := inbox[n][0]
					inbox[n] = inbox[n][1:]
					trace[n] = append(trace[n], fmt.Sprintf("%d n%d got %d", p.Now(), n, x))
					p.Advance(Time(10 + x%50))
					send(n, (n+1+x%(nodes-1))%nodes, Time(lookahead+(n*13+x*7)%100), x+1)
				}
			}
		})
	}
	return trace
}

// TestGroupAdvanceWhileMatchesAdvance runs the polling exchange serially
// and on 2- and 3-shard groups, each with one Run(0) and with a ladder of
// Run horizons that park pollers across runs, with and without
// AdvanceWhile. Every trace must equal the serial Advance trace, and each
// group shape must run the same number of events in both modes.
func TestGroupAdvanceWhileMatchesAdvance(t *testing.T) {
	flatten := func(trace [][]string) string {
		var all []string
		for _, tr := range trace {
			all = append(all, tr...)
		}
		return strings.Join(all, "\n")
	}
	events := func(engs []*Engine) (n int64) {
		for _, e := range engs {
			n += e.EventsRun
		}
		return n
	}
	var want string
	var wantEv int64
	for _, useWhile := range []bool{false, true} {
		e := NewEngine(1)
		tr := pollExchangeWorkload([]*Engine{e}, nil, useWhile)
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		got := flatten(tr)
		if !useWhile {
			want, wantEv = got, e.EventsRun
			continue
		}
		if got != want || e.EventsRun != wantEv {
			t.Fatalf("serial: AdvanceWhile trace/events differ (%d vs %d events)\ngot:\n%s\nwant:\n%s",
				e.EventsRun, wantEv, got, want)
		}
	}
	if !strings.Contains(want, "poll") || !strings.Contains(want, "got 10") {
		t.Fatal("serial workload recorded no polls or too little traffic")
	}
	for _, shards := range []int{2, 3} {
		for _, ladder := range []bool{false, true} {
			var evs [2]int64
			for i, useWhile := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/ladder=%v/while=%v", shards, ladder, useWhile)
				g := NewGroup(1, shards, 500)
				tr := pollExchangeWorkload(g.Engines(), g, useWhile)
				if !ladder {
					if err := g.Run(0); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				} else {
					runs := 0
					for horizon := Time(330); g.Pending() || runs == 0; horizon += 330 {
						if err := g.Run(horizon); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						runs++
					}
					if runs < 10 {
						t.Fatalf("%s: only %d runs in the ladder", name, runs)
					}
				}
				if got := flatten(tr); got != want {
					t.Fatalf("%s: trace differs from the serial Advance run\ngot:\n%s\nwant:\n%s", name, got, want)
				}
				evs[i] = events(g.Engines())
			}
			if evs[0] != evs[1] {
				t.Fatalf("shards=%d/ladder=%v: %d events with Advance, %d with AdvanceWhile",
					shards, ladder, evs[0], evs[1])
			}
		}
	}
}
