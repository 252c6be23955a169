package mpif

import (
	"fmt"
	"strings"
	"testing"

	"spam/internal/hw"
	"spam/internal/mpi"
	"spam/internal/sim"
)

// waitOnePoll is Wait as a loop of single-probe progress calls: the
// reference that Wait's idle-poll runs must reproduce.
func waitOnePoll(c *Comm, p *sim.Proc, req *Request) (mpi.Status, error) {
	for !req.done || (req.sendH != nil && !req.sendH.Injected()) {
		if c.deadline > 0 && c.node().Eng.Now() >= c.deadline {
			return req.status, &mpi.Error{Code: mpi.ErrTimeout, Rank: c.Rank(), Peer: req.src}
		}
		c.progress(p, 0)
	}
	return req.status, nil
}

// waitWorkload runs 4 ranks through rounds of eager and rendezvous
// exchanges separated by computation, with receives posted after the sends
// so early arrivals park as unexpected messages, then a receive rank 3
// never sends, which must time out on the deadline. It returns the
// per-rank log and the event count.
func waitWorkload(wait func(*Comm, *sim.Proc, *Request) (mpi.Status, error)) (string, int64) {
	const n = 4
	const rounds = 10
	cl := hw.NewCluster(hw.DefaultConfig(n))
	sys := New(cl)
	logs := make([]strings.Builder, n)
	for i := 0; i < n; i++ {
		i, c := i, sys.Comms[i]
		r := sim.NewRand(uint64(30 + i))
		cl.Spawn(i, "mpif", func(p *sim.Proc, nd *hw.Node) {
			log := &logs[i]
			for round := 0; round < rounds; round++ {
				var reqs []*Request
				for k := 1; k < n; k++ {
					dst := (i + k) % n
					size := []int{16, 500, 3000, 9000, 20000}[(round+k+i)%5]
					reqs = append(reqs, c.Isend(p, make([]byte, size), dst, round*n+i))
				}
				p.Advance(hw.US(float64(r.Intn(200))))
				for k := 1; k < n; k++ {
					src := (i + n - k) % n
					reqs = append(reqs, c.Irecv(p, make([]byte, 24<<10), src, round*n+src))
				}
				for _, req := range reqs {
					st, err := wait(c, p, req)
					fmt.Fprintf(log, "%d rank %d round %d: %+v %v\n", p.Now(), i, round, st, err)
				}
			}
			c.SetDeadline(p.Now() + hw.US(2000))
			if i == 0 {
				_, err := wait(c, p, c.Irecv(p, make([]byte, 64), 3, 1<<20))
				fmt.Fprintf(log, "%d rank 0 deadline wait: %v\n", p.Now(), err)
			}
		})
	}
	cl.Run()
	var b strings.Builder
	for i := range logs {
		b.WriteString(logs[i].String())
	}
	return b.String(), cl.Eng.EventsRun
}

// TestWaitMatchesProgressLoop requires Wait, whose progress calls after the
// first run idle polls through ProbeUntil, to reproduce a Wait made of
// single-probe progress calls exactly: completion times, the deadline
// timeout and the event count.
func TestWaitMatchesProgressLoop(t *testing.T) {
	wantLog, wantEv := waitWorkload(waitOnePoll)
	gotLog, gotEv := waitWorkload((*Comm).Wait)
	if gotLog != wantLog || gotEv != wantEv {
		t.Fatalf("log or events (%d vs %d) differ\n got:\n%s\nwant:\n%s", gotEv, wantEv, gotLog, wantLog)
	}
	if !strings.Contains(wantLog, "deadline wait: mpi") {
		t.Fatalf("the deadline wait did not time out:\n%s", wantLog)
	}
}
