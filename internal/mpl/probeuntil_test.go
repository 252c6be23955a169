package mpl_test

import (
	"fmt"
	"strings"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpl"
	"spam/internal/sim"
)

// probeWorkload has 3 nodes exchange messages of up to 20 KB — enough to
// stall on message credits and on the packet window — while servicing the
// network from their own probe loops: timed waits between sends, then a
// loop that receives every message still owed. useUntil runs each loop on
// ProbeUntil with the loop's deadline instead of Probe. It returns every
// node's receive log, the finish times and event count, and the number of
// probe-loop iterations (process resumes).
func probeWorkload(useUntil bool) (logs []string, finish []sim.Time, events, iters int64) {
	const nn = 3
	const perPeer = 8
	c := hw.NewCluster(hw.DefaultConfig(nn))
	sys := mpl.New(c)
	logs = make([]string, nn)
	finish = make([]sim.Time, nn)
	for i := 0; i < nn; i++ {
		i := i
		r := sim.NewRand(uint64(70 + i))
		c.Spawn(i, "mix", func(p *sim.Proc, nd *hw.Node) {
			ep := sys.EPs[i]
			var log strings.Builder
			buf := make([]byte, 20000)
			received := 0
			probe := func(until sim.Time) bool {
				iters++
				if useUntil {
					return ep.ProbeUntil(p, mpl.AnySource, mpl.AnyTag, until)
				}
				return ep.Probe(p, mpl.AnySource, mpl.AnyTag)
			}
			recv := func() {
				n, src, tag := ep.Recv(p, mpl.AnySource, mpl.AnyTag, buf)
				received++
				fmt.Fprintf(&log, "%d got %dB from %d tag %d\n", p.Now(), n, src, tag)
			}
			for k := 0; k < perPeer*(nn-1); k++ {
				dst := (i + 1 + k%(nn-1)) % nn
				ep.SendH(p, dst, k, make([]byte, 1+r.Intn(len(buf)-1)))
				t := p.Now() + hw.US(float64(20+r.Intn(600)))
				for p.Now() < t {
					if probe(t) {
						recv()
					}
				}
			}
			for received < perPeer*(nn-1) {
				if probe(sim.Forever) {
					recv()
				}
			}
			ep.DrainSends(p)
			finish[i] = p.Now()
			logs[i] = log.String()
		})
	}
	c.Run()
	return logs, finish, c.Eng.EventsRun, iters
}

// TestProbeUntilMatchesProbe requires ProbeUntil loops to reproduce the
// Probe loops they replace exactly — receive times, finish times and the
// event count — while resuming the process far less often.
func TestProbeUntilMatchesProbe(t *testing.T) {
	wantLogs, wantFinish, wantEv, wantIters := probeWorkload(false)
	gotLogs, gotFinish, gotEv, gotIters := probeWorkload(true)
	for i := range wantLogs {
		if gotLogs[i] != wantLogs[i] {
			t.Errorf("node %d receive log differs\n got:\n%s\nwant:\n%s", i, gotLogs[i], wantLogs[i])
		}
	}
	if fmt.Sprint(gotFinish) != fmt.Sprint(wantFinish) || gotEv != wantEv {
		t.Errorf("finish %v events %d, want %v %d", gotFinish, gotEv, wantFinish, wantEv)
	}
	if gotIters*4 > wantIters {
		t.Errorf("ProbeUntil loops ran %d iterations against %d Probe calls; want most idle polls absorbed",
			gotIters, wantIters)
	}
}
