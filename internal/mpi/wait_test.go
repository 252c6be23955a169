package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// waitOnePoll is Wait as a loop of single progress calls: the reference
// that Wait's folded progressUntil runs must reproduce.
func waitOnePoll(c *Comm, p *sim.Proc, req *Request) (Status, error) {
	for !req.done {
		if err := c.waitErr(req); err != nil {
			req.err = err
			c.cancel(req)
			return req.status, err
		}
		c.progress(p)
	}
	return req.status, nil
}

// waitWorkload runs 4 ranks through rounds of mixed-size exchanges —
// buffered, hybrid and rendezvous sends, so CTS handling and batched frees
// both occur — separated by computation, then a final receive that rank 3
// never sends, which must time out on the communicator deadline. wait is
// Comm.Wait or waitOnePoll. It returns a per-rank log (completions, errors,
// progress-call count) plus the AM stats and event count.
func waitWorkload(opt Options, wait func(*Comm, *sim.Proc, *Request) (Status, error)) (string, []am.Stats, int64) {
	const n = 4
	const rounds = 12
	cl := hw.NewCluster(hw.DefaultConfig(n))
	sys := New(cl, opt)
	logs := make([]strings.Builder, n)
	for i := 0; i < n; i++ {
		i, c := i, sys.Comms[i]
		r := sim.NewRand(uint64(90 + i))
		cl.Spawn(i, "mpi", func(p *sim.Proc, nd *hw.Node) {
			log := &logs[i]
			for round := 0; round < rounds; round++ {
				var reqs []*Request
				for k := 1; k < n; k++ {
					src := (i + n - k) % n
					reqs = append(reqs, c.Irecv(p, make([]byte, 24<<10), src, round*n+src))
				}
				for k := 1; k < n; k++ {
					dst := (i + k) % n
					size := []int{16, 200, 3000, 6000, 12000, 20000}[(round+k+i)%6]
					reqs = append(reqs, c.Isend(p, make([]byte, size), dst, round*n+i))
				}
				for _, req := range reqs {
					st, err := wait(c, p, req)
					fmt.Fprintf(log, "%d rank %d round %d: %+v %v\n", p.Now(), i, round, st, err)
				}
				p.Advance(hw.US(float64(r.Intn(300))))
			}
			c.SetDeadline(p.Now() + hw.US(2000))
			if i == 0 {
				_, err := wait(c, p, c.Irecv(p, make([]byte, 64), 3, 1<<20))
				var merr *Error
				if !errors.As(err, &merr) || merr.Code != ErrTimeout {
					err = fmt.Errorf("want a timeout, got %v", err)
				}
				fmt.Fprintf(log, "%d rank 0 deadline wait: %v\n", p.Now(), err)
			}
			fmt.Fprintf(log, "%d rank %d done after %d progress calls\n", p.Now(), i, c.tick)
		})
	}
	cl.Run()
	var b strings.Builder
	for i := range logs {
		b.WriteString(logs[i].String())
	}
	st := make([]am.Stats, n)
	for i, ep := range sys.AM.EPs {
		st[i] = ep.Stats
	}
	return b.String(), st, cl.Eng.EventsRun
}

// TestWaitMatchesProgressLoop requires Wait, whose progress calls fold idle
// polls into one PollUntil, to reproduce a Wait made of single progress
// calls exactly — completion times, the every-64th-call free flush (the
// progress-call counts must agree), the deadline timeout, AM stats and
// the event count — with and without the §4.2 optimizations.
func TestWaitMatchesProgressLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{{"unoptimized", Unoptimized()}, {"optimized", Optimized()}} {
		t.Run(tc.name, func(t *testing.T) {
			wantLog, wantSt, wantEv := waitWorkload(tc.opt, waitOnePoll)
			gotLog, gotSt, gotEv := waitWorkload(tc.opt, (*Comm).Wait)
			if gotLog != wantLog {
				t.Fatalf("log differs\n got:\n%s\nwant:\n%s", gotLog, wantLog)
			}
			if !reflect.DeepEqual(gotSt, wantSt) || gotEv != wantEv {
				t.Fatalf("stats/events differ: %d vs %d events\n got: %+v\nwant: %+v", gotEv, wantEv, gotSt, wantSt)
			}
			if strings.Contains(wantLog, "want a timeout") {
				t.Fatalf("the deadline wait did not time out:\n%s", wantLog)
			}
		})
	}
}
