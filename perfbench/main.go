// Command perfbench is the repository benchmark. It runs one named workload
// through the public Go APIs for a fixed host-time budget, checks every
// result, and prints each metric by name with its unit; the last line of
// standard output is one JSON object.
//
//	perfbench --workload splitc|nas|kv-read|kv-write --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON holds the end-to-end metrics of BENCHMARK.json,
// from untraced reps. With --trace 1 it holds the per-layer metrics: half
// the budget runs untraced, the other half records spans around every call
// into a layer and a CPU profile folded by package. Spans and profile are
// written under .bench_build/out. Run it from the repository root
// through perfbench/run.sh, which builds it first.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const outDir = ".bench_build/out"

// metric is one named value. n and beyond, when set, are the sample count
// behind it and the samples lying beyond a percentile.
type metric struct {
	name      string
	value     float64
	unit      string
	n, beyond int64
}

func simMetric(name string, v float64, unit string) metric {
	return metric{name: name, value: v, unit: unit}
}

// endToEnd and perLayer are the metrics the JSON line carries, in the
// order and with the units of BENCHMARK.json, which main checks against.
var endToEnd = []metric{
	{name: "wall_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
}

// repValue picks each end-to-end metric out of one rep.
var repValue = map[string]func(rep) float64{
	"wall_s":   func(x rep) float64 { return x.run },
	"setup_s":  func(x rep) float64 { return x.setup },
	"alloc_mb": func(x rep) float64 { return x.allocMB },
}

var perLayer = func() []metric {
	ms := []metric{
		{name: "sim_s", unit: "sim_s"},
		{name: "kv_achieved_rps", unit: "req/sim_s"},
		{name: "kv_goodput_rps", unit: "req/sim_s"},
		{name: "kv_fail_frac", unit: "frac"},
		{name: "kv_p50_us", unit: "sim_us"},
		{name: "kv_p99_us", unit: "sim_us"},
		{name: "kv_p999_us", unit: "sim_us"},
		{name: "kv_get_p99_us", unit: "sim_us"},
		{name: "kv_put_p99_us", unit: "sim_us"},
		{name: "splitc.am_over_mpl", unit: "ratio"},
		{name: "nas.am_over_f", unit: "ratio"},
		{name: "sim.events", unit: "count"},
		{name: "sim.ns_per_event", unit: "ns/event"},
		{name: "am.polls", unit: "count"},
		{name: "am.empty_poll_frac", unit: "frac"},
		{name: "am.packets", unit: "count"},
		{name: "am.retransmits", unit: "count"},
		{name: "am.ns_per_packet", unit: "ns/packet"},
		{name: "kv.lock_grant_frac", unit: "frac"},
		{name: "kv.lock_retries", unit: "count"},
		{name: "kv.backoffs", unit: "count"},
		{name: "kv.conflicts", unit: "count"},
		{name: "kv.deferrals", unit: "count"},
		{name: "kv.hit_frac", unit: "frac"},
		{name: "kv.coalesced", unit: "count"},
		{name: "kv.invals", unit: "count"},
		{name: "kv.batched_put_frac", unit: "frac"},
		{name: "kv.batch_avg", unit: "ops"},
		{name: "kv.combined_puts", unit: "count"},
		{name: "kv.host_us_per_req", unit: "us/req"},
		{name: "go.sched_pct", unit: "%"},
		{name: "go.gc_pct", unit: "%"},
		{name: "go.other_pct", unit: "%"},
	}
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".self_pct", unit: "%"})
	}
	return append(ms,
		metric{name: "other.self_pct", unit: "%"},
		metric{name: "span.setup_s", unit: "s"},
		metric{name: "span.run_s", unit: "s"},
		metric{name: "span.verify_s", unit: "s"},
		metric{name: "trace.overhead_pct", unit: "%"})
}()

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: splitc, nas, kv-read or kv-write")
	seed := flag.Uint64("seed", 1, "workload seed (the KV run seed; splitc and nas have no seeded input)")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced, profiled run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload splitc|nas|kv-read|kv-write, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if err := checkSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	var err error
	if *traced == 0 {
		err = res.measure(w, *seed, budget, newTracer(false))
	} else {
		err = res.traced(w, *seed, budget)
	}
	if err != nil {
		fmt.Println("FAIL:", err)
		res.failed = 1
		res.attempted = max(res.attempted, 1)
	}
	res.print()
	ms := res.endToEnd()
	if *traced == 1 {
		ms = res.perLayer
	}
	line := map[string]any{"correct": err == nil, "attempted": res.attempted, "failed": res.failed}
	mj := map[string]any{}
	for _, m := range ms {
		mj[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line["metrics"] = mj
	b, jerr := json.Marshal(line)
	if jerr != nil { // a NaN or infinite value
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(b))
	if err != nil {
		return 1
	}
	return 0
}

// rep is one measured rep: host seconds per phase and MB allocated.
type rep struct {
	setup, run, verify, allocMB float64
	o                           *outcome
}

type result struct {
	reps, tracedReps     []rep
	first                *outcome // the first rep's, which every later rep must repeat
	attempted, failed    int
	perLayer             []metric
	foldCounts           map[string]int64
	foldTotal            int64
	spans                []span
	spanFile, profileOut string
}

// measure runs reps of w until the budget is spent, at least two, and
// fails as soon as a rep's check fails or its simulated results differ
// from the first rep's.
func (r *result) measure(w *workload, seed uint64, budget time.Duration, tr *tracer) error {
	start := time.Now()
	var done []rep
	for len(done) < 2 || time.Since(start)+time.Since(start)/time.Duration(len(done)) <= budget {
		runtime.GC() // every rep starts from a collected heap
		tr.beginRep()
		o, err := w.rep(seed, tr)
		tr.endRep()
		if err != nil {
			return err
		}
		r.attempted += o.ops
		if r.first == nil {
			r.first = o
		}
		if err := sameResults(r.first, o); err != nil {
			return err
		}
		done = append(done, rep{tr.phase[phSetup].Seconds(), tr.phase[phRun].Seconds(),
			tr.phase[phVerify].Seconds(), float64(tr.alloc) / 1e6, o})
	}
	if tr.on {
		r.tracedReps = done
	} else {
		r.reps = done
	}
	return nil
}

// sameResults is the determinism gate: every simulated metric and every
// program counter must repeat exactly on every rep.
func sameResults(a, b *outcome) error {
	if len(a.sim) != len(b.sim) || len(a.counts) != len(b.counts) {
		return fmt.Errorf("rep results differ in shape")
	}
	for i := range a.sim {
		if a.sim[i] != b.sim[i] {
			return fmt.Errorf("simulated %s differs across reps: %v then %v", a.sim[i].name, a.sim[i].value, b.sim[i].value)
		}
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return fmt.Errorf("counter %s differs across reps: %v then %v", k, v, b.counts[k])
		}
	}
	if a.events != b.events || a.pkts != b.pkts || a.reqs != b.reqs {
		return fmt.Errorf("event, packet or request counts differ across reps")
	}
	return nil
}

// traced spends half the budget on untraced reps and half on reps with
// spans and a CPU profile, then derives the per-layer metrics.
func (r *result) traced(w *workload, seed uint64, budget time.Duration) error {
	if err := r.measure(w, seed, budget/2, newTracer(false)); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr := newTracer(true)
	err := r.measure(w, seed, budget/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	r.profileOut = filepath.Join(outDir, w.name+"-cpu.pprof")
	r.spanFile = filepath.Join(outDir, w.name+"-spans.json")
	if err := os.WriteFile(r.profileOut, prof.Bytes(), 0o644); err != nil {
		return err
	}
	r.spans = tr.spans
	sj, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.spanFile, sj, 0o644); err != nil {
		return err
	}
	counts, total, err := fold(prof.Bytes())
	if err != nil {
		return err
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if total == 0 || sum != total {
		return fmt.Errorf("profile: %d folded samples of %d", sum, total)
	}
	r.foldCounts, r.foldTotal = counts, total
	r.derivePerLayer()
	return nil
}

// derivePerLayer fills r.perLayer: the simulated results and counters of
// the first rep, host costs per unit of simulated work from the untraced
// reps, the profile shares, and the traced reps' phase times. A metric a
// workload does not exercise reads 0.
func (r *result) derivePerLayer() {
	o := r.first
	vals := map[string]float64{}
	for _, m := range o.sim {
		vals[m.name] = m.value
	}
	for k, v := range o.counts {
		vals[k] = v
	}
	run := median(col(r.reps, repValue["wall_s"]))
	if o.events > 0 {
		vals["sim.ns_per_event"] = run * 1e9 / float64(o.events)
	}
	if o.pkts > 0 {
		vals["am.ns_per_packet"] = median(col(r.reps, func(x rep) float64 { return x.o.runAM })) * 1e9 / float64(o.pkts)
	}
	if o.reqs > 0 {
		vals["kv.host_us_per_req"] = run * 1e6 / float64(o.reqs)
	}
	for k, c := range r.foldCounts {
		name := k + ".self_pct"
		if k == "go.sched" || k == "go.gc" || k == "go.other" {
			name = k + "_pct"
		}
		vals[name] = 100 * float64(c) / float64(r.foldTotal)
	}
	vals["span.setup_s"] = median(col(r.tracedReps, repValue["setup_s"]))
	vals["span.run_s"] = median(col(r.tracedReps, repValue["wall_s"]))
	vals["span.verify_s"] = median(col(r.tracedReps, func(x rep) float64 { return x.verify }))
	vals["trace.overhead_pct"] = 100 * (vals["span.run_s"]/run - 1)
	for _, m := range perLayer {
		m.value = vals[m.name]
		r.perLayer = append(r.perLayer, m)
	}
}

// endToEnd reports the medians over the untraced reps.
func (r *result) endToEnd() []metric {
	if len(r.reps) == 0 {
		return nil
	}
	var ms []metric
	for _, m := range endToEnd {
		m.value = median(col(r.reps, repValue[m.name]))
		ms = append(ms, m)
	}
	return ms
}

// print writes the human-readable report: host metrics with their rep
// count and quartiles, then the simulated results and program counters
// with their sample counts.
func (r *result) print() {
	if len(r.reps) == 0 {
		return
	}
	fmt.Printf("%-28s %14s %-10s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.endToEnd() {
		vs := col(r.reps, repValue[m.name])
		q1, q3 := quartiles(vs)
		fmt.Printf("%-28s %14.6g %-10s median of %d reps, quartiles %.6g..%.6g\n", m.name, m.value, m.unit, len(vs), q1, q3)
	}
	for _, m := range r.first.sim {
		extra := ""
		if m.n > 0 {
			extra = fmt.Sprintf("n=%d", m.n)
		}
		if m.beyond > 0 {
			extra += fmt.Sprintf(" beyond=%d", m.beyond)
		}
		fmt.Printf("%-28s %14.6g %-10s %s\n", m.name, m.value, m.unit, extra)
	}
	keys := make([]string, 0, len(r.first.counts))
	for k := range r.first.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %14.6g\n", k, r.first.counts[k])
	}
	for _, m := range r.perLayer {
		fmt.Printf("%-28s %14.6g %-10s traced\n", m.name, m.value, m.unit)
	}
	if r.spanFile != "" {
		printSpans(r.spans)
		fmt.Printf("# spans: %s, profile: %s (%d samples)\n", r.spanFile, r.profileOut, r.foldTotal)
	}
}

// printSpans sums the traced host time by span name. "rep (self)" is the
// time inside reps not covered by any call into a layer: the benchmark's
// own bookkeeping between calls.
func printSpans(spans []span) {
	type agg struct {
		calls int
		ns    int64
	}
	by := map[string]*agg{}
	add := func(name string, ns int64) {
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
		}
		a.calls++
		a.ns += ns
	}
	for _, s := range spans {
		if s.Parent < 0 {
			add("rep (self)", s.End-s.Start)
			continue
		}
		add(s.Phase+" "+s.Name, s.End-s.Start)
		by["rep (self)"].ns -= s.End - s.Start
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].ns > by[names[j]].ns })
	for _, n := range names {
		fmt.Printf("# span %-44s %6d calls %12.6f s\n", n, by[n].calls, float64(by[n].ns)/1e9)
	}
}

// checkSpec fails when BENCHMARK.json names other metrics or units than
// this program reports.
func checkSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, l := range []struct {
		key  string
		have []entry
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(l.have) != len(l.want) {
			return fmt.Errorf("%s: %s lists %d metrics, the benchmark reports %d", path, l.key, len(l.have), len(l.want))
		}
		for i, m := range l.want {
			if l.have[i].Name != m.name || l.have[i].Unit != m.unit {
				return fmt.Errorf("%s: %s[%d] is %s (%s), the benchmark reports %s (%s)",
					path, l.key, i, l.have[i].Name, l.have[i].Unit, m.name, m.unit)
			}
		}
	}
	return nil
}

func col(rs []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, x := range rs {
		out[i] = f(x)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile, by linear interpolation
// between order statistics.
func quartiles(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}
