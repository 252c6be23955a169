package kv

import (
	"testing"

	"spam/internal/sim"
)

// TestClientPollDeadline pins the run loop's PollUntil deadline: the
// earliest pending arrival, retry or batch flush, and a single poll (0)
// whenever the loop already has queued work for its next pass.
func TestClientPollDeadline(t *testing.T) {
	cases := []struct {
		name string
		set  func(cl *client)
		want sim.Time
	}{
		{"nothing pending", func(cl *client) {}, sim.Forever},
		{"next arrival", func(cl *client) { cl.nextAt = 700 }, 700},
		{"arrival without a free slot", func(cl *client) {
			cl.nextAt = 700
			cl.free.Pop()
		}, sim.Forever},
		{"arrival past the budget", func(cl *client) {
			cl.nextAt = 700
			cl.issued = cl.budget
		}, sim.Forever},
		{"retry before arrival", func(cl *client) {
			cl.nextAt = 700
			cl.retryq.Push(retryEnt{si: 1, at: 650})
			cl.retryq.Push(retryEnt{si: 2, at: 900})
		}, 650},
		{"arrival before retry", func(cl *client) {
			cl.nextAt = 600
			cl.retryq.Push(retryEnt{si: 1, at: 650})
		}, 600},
		{"front batch flush earliest", func(cl *client) {
			cl.nextAt = 700
			cl.retryq.Push(retryEnt{si: 1, at: 650})
			cl.batches[1].deadline = 620
			cl.batches[0].deadline = 640
			cl.armq.Push(1)
			cl.armq.Push(0)
		}, 620},
		{"batch flush after the rest", func(cl *client) {
			cl.nextAt = 700
			cl.batches[0].deadline = 800
			cl.armq.Push(0)
		}, 700},
		{"ready marked after the drain (cache hit in startOp)", func(cl *client) {
			cl.nextAt = 700
			cl.ready.Push(3)
		}, 0},
		{"batch round ready", func(cl *client) { cl.bready.Push(0) }, 0},
		{"dispatch deferred on the in-flight cap", func(cl *client) { cl.defq.Push(2) }, 0},
		{"batch round deferred", func(cl *client) { cl.bdefq.Push(1) }, 0},
	}
	for _, tc := range cases {
		cl := &client{budget: 10, issued: 4, nextAt: sim.Forever, batches: make([]wbatch, 2)}
		cl.free.Push(5)
		tc.set(cl)
		if got := cl.pollDeadline(); got != tc.want {
			t.Errorf("%s: pollDeadline = %v, want %v", tc.name, got, tc.want)
		}
	}
}
