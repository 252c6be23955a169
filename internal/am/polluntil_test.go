package am_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spam/internal/am"
	"spam/internal/faults"
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// pollRun is everything one run of pollWorkload observes.
type pollRun struct {
	stats    []am.Stats
	rto      [][]sim.Time
	finish   []sim.Time
	handlers []string // per node: handler invocations, in order
	end      sim.Time
	events   int64
	polls    int64 // polls made by the workload's own wait loops
	waits    int64 // iterations of those loops (process resumes)
	trace    string
	metrics  string
}

// pollWorkload runs a 3-node mix of request/reply round trips, multi-chunk
// async stores, store bursts, async gets and timed waits under plan. Every wait is the
// test's own loop: `for !cond() { ep.Poll(p) }`, or with useUntil the same
// loop around PollUntil with the wait's deadline. Each node ends with a
// bounded Drain. observe attaches a trace recorder and a metrics registry.
func pollWorkload(plan *faults.Plan, opt am.Options, useUntil, observe bool) pollRun {
	const nn = 3
	cfg := hw.DefaultConfig(nn)
	var rec *trace.Recorder
	if observe {
		rec = trace.New()
		cfg.Tracer = rec
	}
	c := hw.NewCluster(cfg)
	sys := am.NewWithOptions(c, opt)
	var reg *trace.Registry
	if observe {
		reg = trace.NewRegistry()
		sys.EnableMetrics(reg)
	}
	if plan != nil {
		plan.ApplyPerSource(c)
	}
	run := pollRun{
		stats:    make([]am.Stats, nn),
		rto:      make([][]sim.Time, nn),
		finish:   make([]sim.Time, nn),
		handlers: make([]string, nn),
	}
	logs := make([]strings.Builder, nn)
	note := func(ep *am.Endpoint, what string, src int, arg uint32) {
		fmt.Fprintf(&logs[ep.ID()], "%d %s from %d arg %d\n", ep.Node().Eng.Now(), what, src, arg)
	}
	replies := make([]int, nn)
	gets := make([]int, nn)
	replyH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		note(ep, "reply", tok.Src, args[0])
		replies[ep.ID()]++
	})
	reqH := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
		note(ep, "request", tok.Src, args[0])
		ep.Reply(p, tok, replyH, args[0])
	})
	storeH := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		note(ep, fmt.Sprintf("store %dB", n), tok.Src, arg)
	})
	getH := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
		note(ep, fmt.Sprintf("get %dB", n), tok.Src, arg)
		gets[ep.ID()]++
	})
	const segBytes = 1 << 15
	segs := make([]int, nn)
	for i, nd := range c.Nodes {
		segs[i] = nd.Mem.Add(make([]byte, segBytes))
	}
	for i := 0; i < nn; i++ {
		i := i
		r := sim.NewRand(uint64(40 + i))
		c.Spawn(i, "mix", func(p *sim.Proc, nd *hw.Node) {
			ep := sys.EPs[i]
			wait := func(done func() bool, until sim.Time) {
				for !done() {
					run.waits++
					if useUntil {
						run.polls += int64(ep.PollUntil(p, until))
					} else {
						ep.Poll(p)
						run.polls++
					}
				}
			}
			src := make([]byte, 20000)
			for op := 0; op < 40; op++ {
				dst := (i + 1 + r.Intn(nn-1)) % nn
				dead := func() bool { return ep.PeerErr(dst) != nil }
				switch r.Intn(5) {
				case 0:
					want := replies[i] + 1
					if ep.Request(p, dst, reqH, uint32(op)) != nil {
						continue
					}
					wait(func() bool { return replies[i] >= want || dead() }, sim.Forever)
				case 1:
					done := false
					n := 64 + r.Intn(len(src)-64)
					if ep.StoreAsync(p, dst, hw.Addr{Seg: segs[dst], Off: r.Intn(segBytes - n)}, src[:n],
						storeH, uint32(op), func(*sim.Proc, *am.Endpoint) { done = true }) != nil {
						continue
					}
					wait(func() bool { return done || dead() }, sim.Forever)
				case 2:
					want := gets[i] + 1
					n := 64 + r.Intn(6000)
					if ep.GetAsync(p, dst, hw.Addr{Seg: segs[dst], Off: r.Intn(segBytes - n)},
						hw.Addr{Seg: segs[i], Off: r.Intn(segBytes - n)}, n, getH, uint32(op)) != nil {
						continue
					}
					wait(func() bool { return gets[i] >= want || dead() }, sim.Forever)
				case 3:
					t := p.Now() + hw.US(float64(5+r.Intn(400)))
					wait(func() bool { return p.Now() >= t }, t)
				case 4:
					// A burst of stores to every peer overfills the send
					// FIFO, so queued chunks, retransmissions and explicit
					// acks wait on FIFO space rather than on the network.
					left := 0
					for k := 0; k < 6; k++ {
						to := (i + 1 + k%(nn-1)) % nn
						if ep.StoreAsync(p, to, hw.Addr{Seg: segs[to]}, src, storeH, uint32(op),
							func(*sim.Proc, *am.Endpoint) { left-- }) == nil {
							left++
						}
					}
					wait(func() bool { return left == 0 || ep.PeerErr((i+1)%nn) != nil || ep.PeerErr((i+2)%nn) != nil }, sim.Forever)
				}
			}
			ep.Drain(p, hw.US(50000))
			run.finish[i] = p.Now()
		})
	}
	c.Run()
	for i, ep := range sys.EPs {
		run.stats[i] = ep.Stats
		for j := 0; j < nn; j++ {
			run.rto[i] = append(run.rto[i], ep.RTO(j))
		}
		run.handlers[i] = logs[i].String()
	}
	run.end = c.Eng.Now()
	run.events = c.Eng.EventsRun
	if observe {
		var b strings.Builder
		for _, ev := range rec.Events() {
			fmt.Fprintf(&b, "%+v\n", ev)
		}
		run.trace = b.String()
		var m bytes.Buffer
		trace.WriteMetrics(&m, reg.Snapshot())
		run.metrics = m.String()
	}
	return run
}

// TestPollUntilMatchesPoll drives one workload with Poll wait loops and with
// PollUntil wait loops and requires identical results: every endpoint's
// Stats, per-peer RTO, finish times, handler traces, the event count, and —
// with observers attached — the trace and the metrics. The cases cover the
// lossless path, a loss plan whose keep-alive probe and backoff rounds fall
// inside stretches of idle polls, and a fail-stop kill, whose death
// declaration and Detach must land on the same poll. The narrow-window
// cases shrink both windows to one chunk plus four packets, so queue heads
// wait on the window through most idle polls.
func TestPollUntilMatchesPoll(t *testing.T) {
	narrow := am.DefaultOptions()
	narrow.WndRequest, narrow.WndReply = 40, 40
	noLoss := func() *faults.Plan { return nil }
	loss := func() *faults.Plan { return faults.NewPlan("loss", 7, faults.Loss(0.03)) }
	cases := []struct {
		name    string
		plan    func() *faults.Plan
		opt     am.Options
		observe bool
		lossy   bool // must make probe and backoff rounds
		kill    bool // must declare a peer dead
	}{
		{"lossless", noLoss, am.DefaultOptions(), false, false, false},
		{"lossless-observed", noLoss, am.DefaultOptions(), true, false, false},
		{"loss", loss, am.DefaultOptions(), false, true, false},
		{"loss-observed", loss, am.DefaultOptions(), true, true, false},
		{"narrow", noLoss, narrow, false, false, false},
		{"narrow-loss", loss, narrow, false, true, false},
		{"kill", func() *faults.Plan { return faults.NewPlan("kill", 9).WithKill(2, hw.US(3000)) },
			am.DefaultOptions(), false, false, true},
		{"kill-loss", func() *faults.Plan {
			return faults.NewPlan("kill-loss", 9, faults.Loss(0.02)).WithKill(1, hw.US(2000))
		}, am.DefaultOptions(), false, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := pollWorkload(tc.plan(), tc.opt, false, tc.observe)
			got := pollWorkload(tc.plan(), tc.opt, true, tc.observe)
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("Stats differ\n got: %+v\nwant: %+v", got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.rto, want.rto) {
				t.Errorf("RTOs differ: got %v, want %v", got.rto, want.rto)
			}
			if !reflect.DeepEqual(got.finish, want.finish) || got.end != want.end || got.events != want.events {
				t.Errorf("finish %v end %v events %d, want %v %v %d",
					got.finish, got.end, got.events, want.finish, want.end, want.events)
			}
			for i := range want.handlers {
				if got.handlers[i] != want.handlers[i] {
					t.Errorf("node %d handler trace differs\n got:\n%s\nwant:\n%s", i, got.handlers[i], want.handlers[i])
				}
			}
			if got.trace != want.trace || got.metrics != want.metrics {
				t.Errorf("observer output differs (trace %d vs %d bytes)\n got metrics:\n%s\nwant metrics:\n%s",
					len(got.trace), len(want.trace), got.metrics, want.metrics)
			}
			if got.polls != want.polls {
				t.Errorf("PollUntil reported %d polls, the Poll loops made %d", got.polls, want.polls)
			}
			if got.waits*2 > want.waits {
				t.Errorf("PollUntil loops resumed %d times for %d polls; want most idle polls absorbed",
					got.waits, want.waits)
			}
			var dead, probes, backoffs int64
			for _, st := range want.stats {
				dead += st.DeadPeers
				probes += st.Probes
				backoffs += st.Backoffs
			}
			if tc.kill && dead == 0 {
				t.Error("kill case declared no peer dead")
			}
			if tc.lossy && (probes == 0 || backoffs == 0) {
				t.Errorf("loss case made %d probes, %d backoff rounds; want both", probes, backoffs)
			}
		})
	}
}
