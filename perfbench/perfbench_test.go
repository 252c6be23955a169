package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"spam/internal/trace"
)

func TestCountAtMostInvertsQuantile(t *testing.T) {
	var h trace.Histogram
	for i := int64(0); i < 5000; i++ {
		h.Observe(i * i % 70001)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.Quantile(q)
		c := countAtMost(&h, v)
		rank := int64(q * float64(h.Count()-1))
		if c < rank+1 || (c < h.Count() && h.Quantile(float64(c)/float64(h.Count()-1)) <= v) {
			t.Errorf("q=%v: countAtMost(%d) = %d, rank %d", q, v, c, rank)
		}
	}
	if got := countAtMost(&h, h.Min()-1); got != 0 {
		t.Errorf("below the minimum: %d", got)
	}
	if got := countAtMost(&h, h.Max()); got != h.Count() {
		t.Errorf("at the maximum: %d of %d", got, h.Count())
	}
}

func TestClassify(t *testing.T) {
	const src = "/src/spam/internal/"
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"spam/internal/am.(*Endpoint).Poll", src + "am/recv.go"}, {"main.main", "/src/spam/perfbench/main.go"}}, "am"},
		{[]frame{{"spam/internal/splitc/apps.MatMul.func1", src + "splitc/apps/mm.go"}}, "splitc"},
		{[]frame{{"main.init.LU.func3.3", src + "nas/lu.go"}}, "nas"},
		{[]frame{{"main.splitcRep", "/src/spam/perfbench/workloads.go"}}, "other"},
		{[]frame{{"spam/internal/gam.New", src + "gam/gam.go"}}, "other"},
		{[]frame{{"sort.Sort", "/go/src/sort/sort.go"}}, "other"},
		{[]frame{{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"}, {"spam/internal/hw.(*Node).Memcpy", src + "hw/node.go"}}, "go.other"},
		{[]frame{{"runtime.futex", ""}, {"runtime.notesleep", ""}, {"runtime.stopm", ""}, {"runtime.findRunnable", ""}, {"runtime.schedule", ""}}, "go.sched"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, "go.gc"},
		{[]frame{{"internal/runtime/maps.(*Map).getWithKey", "/go/src/internal/runtime/maps/map.go"}, {"spam/internal/kv.(*client).run", src + "kv/client.go"}}, "go.other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	counts, total, err := fold(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if total == 0 || sum != total || counts["other"] == 0 {
		t.Fatalf("folded %v: sum %d, total %d (x=%v)", counts, sum, total, x)
	}
}
