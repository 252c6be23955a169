package main

import (
	"fmt"
	"math"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/kv"
	"spam/internal/kv/load"
	"spam/internal/mpi"
	"spam/internal/mpif"
	"spam/internal/nas"
	"spam/internal/splitc"
	"spam/internal/splitc/apps"
	"spam/internal/trace"
)

// A workload builds, runs and verifies one instance of itself per rep.
// Every call into a layer's public entry points goes through tr.setup,
// tr.run or tr.verify, which time it as one span of that phase.
type workload struct {
	name string
	rep  func(seed uint64, tr *tracer) (*outcome, error)
}

// outcome is what one rep produced. sim holds the simulated-clock results
// (identical on every rep of a run, or the run fails); counts holds the
// program's own per-layer counters, also deterministic. runAM is the host
// time of the run phase spent on the SP AM side, for am.ns_per_packet.
type outcome struct {
	sim    []metric
	counts map[string]float64
	ops    int // simulation runs executed in the rep
	runAM  float64
	events int64 // engine events (splitc and nas; kv hides its cluster)
	pkts   int64 // AM packets sent
	reqs   int64 // KV requests issued
}

var workloads = []workload{
	{"splitc", splitcRep},
	{"nas", nasRep},
	{"kv-read", kvRep(load.ReadMostlyMix(), 100e3, 40_000)},
	{"kv-write", kvRep(load.WriteHeavyMix(), 200e3, 20_000)},
}

// Split-C suite on 8 nodes: the paper's six programs, scaled so one rep of
// all twelve (program, platform) runs takes one to two seconds of host time.
const (
	scProcs = 8
	scMMLgN = 4
	scMMLgB = 32
	scMMSmN = 8
	scMMSmB = 8
	scKeys  = 1 << 13
)

type scApp struct {
	name string
	heap int
	run  func(pl splitc.Platform) apps.Result
	ref  func() uint64 // serial reference checksum, nil when none exists
}

func splitcApps() []scApp {
	return []scApp{
		{"mm lg", apps.MatMulHeap(scMMLgN, scMMLgB, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, scMMLgN, scMMLgB) },
			func() uint64 { return apps.MatMulSerialChecksum(scMMLgN, scMMLgB) }},
		{"mm sm", apps.MatMulHeap(scMMSmN, scMMSmB, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.MatMul(pl, scMMSmN, scMMSmB) },
			func() uint64 { return apps.MatMulSerialChecksum(scMMSmN, scMMSmB) }},
		{"smpsort sm", apps.SampleSortHeap(scKeys, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, scKeys, false) }, nil},
		{"smpsort lg", apps.SampleSortHeap(scKeys, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.SampleSort(pl, scKeys, true) }, nil},
		{"rdxsort sm", apps.RadixSortHeap(scKeys, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, scKeys, false) }, nil},
		{"rdxsort lg", apps.RadixSortHeap(scKeys, scProcs),
			func(pl splitc.Platform) apps.Result { return apps.RadixSort(pl, scKeys, true) }, nil},
	}
}

// splitcRep runs the suite on SP AM and on SP MPL. The platforms build their
// own default clusters, which take hw.DefaultNodePar; serial checks that
// it left them unsharded. The apps draw their keys from fixed per-rank
// streams, so the seed does not reach this workload.
func splitcRep(_ uint64, tr *tracer) (*outcome, error) {
	out := &outcome{counts: map[string]float64{}}
	var simAM, simMPL float64
	var st am.Stats
	for _, a := range splitcApps() {
		var spam *splitc.SPAMPlatform
		var mpl *splitc.MPLPlatform
		tr.setup("splitc.NewSPAM", func() { spam = splitc.NewSPAM(scProcs, a.heap) })
		tr.setup("splitc.NewMPL", func() { mpl = splitc.NewMPL(scProcs, a.heap) })
		if err := serial(spam.Cluster, mpl.Cluster); err != nil {
			return nil, err
		}
		var ra, rm apps.Result
		out.runAM += tr.run("splitc.Run "+a.name+" on SP AM", func() { ra = a.run(spam) })
		tr.run("splitc.Run "+a.name+" on SP MPL", func() { rm = a.run(mpl) })
		out.ops += 2
		var err error
		tr.verify("checksums "+a.name, func() {
			if ra.Checksum != rm.Checksum {
				err = fmt.Errorf("splitc %s: SP AM checksum %#x != SP MPL %#x", a.name, ra.Checksum, rm.Checksum)
				return
			}
			if a.ref != nil {
				if want := a.ref(); ra.Checksum != want {
					err = fmt.Errorf("splitc %s: checksum %#x != serial reference %#x", a.name, ra.Checksum, want)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		simAM += ra.TotalSec
		simMPL += rm.TotalSec
		out.sim = append(out.sim,
			simMetric("sim_s."+a.name+".am", ra.TotalSec, "sim_s"),
			simMetric("sim_s."+a.name+".mpl", rm.TotalSec, "sim_s"))
		if err := lossless(spam.Cluster, mpl.Cluster); err != nil {
			return nil, fmt.Errorf("splitc %s: %w", a.name, err)
		}
		out.events += spam.Cluster.Eng.EventsRun + mpl.Cluster.Eng.EventsRun
		addStats(&st, spam.Sys.Totals())
	}
	if err := spurious(st); err != nil {
		return nil, fmt.Errorf("splitc: %w", err)
	}
	out.sim = append(out.sim, simMetric("sim_s", simAM+simMPL, "sim_s"))
	out.counts["splitc.am_over_mpl"] = simAM / simMPL
	sharedCounts(out, st)
	return out, nil
}

// NAS kernels on 16 thin nodes. FT is the Alltoall transpose and LU the
// small-message wavefront; both are scaled from the paper's Class A so one
// rep of the four (kernel, MPI) runs takes about a second of host time.
const nasProcs = 16

var nasKernels = []struct {
	name string
	k    nas.Kernel
}{
	{"FT", nas.FT(nas.FTConfig{N: 32, Iters: 2})},
	{"LU", nas.LU(nas.LUConfig{N: 32, Iters: 2})},
}

func nasCluster(seed uint64) *hw.Cluster {
	cfg := hw.DefaultConfig(nasProcs)
	cfg.Seed = seed
	cfg.NodePar = 1
	return hw.NewCluster(cfg)
}

// nasRep runs every kernel on MPI-AM and on MPI-F. The seed reaches the
// cluster, whose engine stream no layer draws from on the lossless fabric.
func nasRep(seed uint64, tr *tracer) (*outcome, error) {
	out := &outcome{counts: map[string]float64{}}
	var simAM, simF float64
	var st am.Stats
	for _, k := range nasKernels {
		var ca, cf *hw.Cluster
		var sa *mpi.System
		var sf *mpif.System
		tr.setup("hw.NewCluster", func() { ca = nasCluster(seed) })
		tr.setup("mpi.New", func() { sa = mpi.New(ca, mpi.Optimized()) })
		tr.setup("hw.NewCluster", func() { cf = nasCluster(seed) })
		tr.setup("mpif.New", func() { sf = mpif.New(cf) })
		pa := make([]mpi.PT, len(sa.Comms))
		for i, c := range sa.Comms {
			pa[i] = c
		}
		pf := make([]mpi.PT, len(sf.Comms))
		for i, c := range sf.Comms {
			pf[i] = c
		}
		var ra, rf nas.Result
		out.runAM += tr.run("nas.Run "+k.name+" on MPI-AM", func() { ra = nas.Run(ca, pa, k.name, "MPI-AM", k.k) })
		tr.run("nas.Run "+k.name+" on MPI-F", func() { rf = nas.Run(cf, pf, k.name, "MPI-F", k.k) })
		out.ops += 2
		var err error
		tr.verify("checksums "+k.name, func() {
			for i, e := range append(append([]error{}, ra.Errs...), rf.Errs...) {
				if e != nil {
					err = fmt.Errorf("nas %s: rank %d: %w", k.name, i%nasProcs, e)
					return
				}
			}
			if ra.Checksum != rf.Checksum || math.IsNaN(ra.Checksum) {
				err = fmt.Errorf("nas %s: MPI-AM checksum %v != MPI-F %v", k.name, ra.Checksum, rf.Checksum)
			}
		})
		if err != nil {
			return nil, err
		}
		simAM += ra.Seconds
		simF += rf.Seconds
		out.sim = append(out.sim,
			simMetric("sim_s."+k.name+".mpi-am", ra.Seconds, "sim_s"),
			simMetric("sim_s."+k.name+".mpi-f", rf.Seconds, "sim_s"))
		if err := lossless(ca, cf); err != nil {
			return nil, fmt.Errorf("nas %s: %w", k.name, err)
		}
		out.events += ca.Eng.EventsRun + cf.Eng.EventsRun
		addStats(&st, sa.AM.Totals())
	}
	if err := spurious(st); err != nil {
		return nil, fmt.Errorf("nas: %w", err)
	}
	out.sim = append(out.sim, simMetric("sim_s", simAM+simF, "sim_s"))
	out.counts["nas.am_over_f"] = simAM / simF
	sharedCounts(out, st)
	return out, nil
}

// KV service: 4 servers and 4 client nodes, 65 536 keys at Zipf 1.3, one
// million virtual clients, open loop at a fixed offered rate. The seed is
// the service's run seed, from which internal/kv/load draws the arrivals.
// Each run issues enough requests that at least ten PUTs lie beyond the
// PUT p99 and ten operations beyond the p999.

// goodLimit is the latency limit of kv_goodput_rps: 1 ms of simulated time.
const goodLimit = 1_000_000 // ns

func kvRep(mix load.Mix, rate float64, requests int) func(uint64, *tracer) (*outcome, error) {
	return func(seed uint64, tr *tracer) (*outcome, error) {
		cfg := kv.Config{
			Servers:        4,
			ClientNodes:    4,
			Keys:           1 << 16,
			Zipf:           1.3,
			VirtualClients: 1 << 20,
			Mix:            mix,
			Rate:           rate,
			Requests:       requests,
			Seed:           seed,
			NodePar:        1,
		}
		var svc *kv.Service
		var err error
		tr.setup("kv.New", func() { svc, err = kv.New(cfg) })
		if err != nil {
			return nil, fmt.Errorf("kv.New: %w", err)
		}
		var r *kv.Result
		wall := tr.run("kv.(*Service).Run", func() { r, err = svc.Run() })
		if err != nil {
			return nil, fmt.Errorf("kv run: %w", err)
		}
		tr.verify("kv.(*Service).CheckInvariants", func() { err = svc.CheckInvariants() })
		if err != nil {
			return nil, fmt.Errorf("kv invariants: %w", err)
		}
		switch {
		case r.StaleServed != 0:
			return nil, fmt.Errorf("kv: %d reads served past their lease", r.StaleServed)
		case r.Issued != r.Completed+r.Conflicts+r.Unavail:
			return nil, fmt.Errorf("kv: issued %d != completed %d + conflicts %d + unavailable %d",
				r.Issued, r.Completed, r.Conflicts, r.Unavail)
		case r.Makespan <= 0:
			return nil, fmt.Errorf("kv: empty makespan")
		}
		if err := spurious(r.AM); err != nil {
			return nil, fmt.Errorf("kv: %w", err)
		}
		out := &outcome{counts: map[string]float64{}, ops: 1, runAM: wall, reqs: r.Issued}
		if out.sim, err = kvSim(r); err != nil {
			return nil, err
		}
		so := r.ServerOps
		c := out.counts
		c["kv.lock_grant_frac"] = ratio(float64(so.Locks-so.LockDenied), float64(so.Locks))
		c["kv.lock_retries"] = float64(r.LockRetries)
		c["kv.backoffs"] = float64(r.Backoffs)
		c["kv.conflicts"] = float64(r.Conflicts)
		c["kv.deferrals"] = float64(r.Deferrals)
		c["kv.hit_frac"] = r.HitRate()
		c["kv.coalesced"] = float64(r.Coalesced)
		c["kv.invals"] = float64(r.InvalsRecv)
		c["kv.batched_put_frac"] = ratio(float64(r.BatchedPuts), float64(r.Puts))
		c["kv.batch_avg"] = r.BatchSize.Mean()
		c["kv.combined_puts"] = float64(r.CombinedPuts)
		sharedCounts(out, r.AM)
		return out, nil
	}
}

// kvSim derives the simulated end-to-end metrics of one KV run. Latencies
// are of OK and NotFound replies, timed from the scheduled arrival; the
// quantiles interpolate inside the histogram's factor-2 log2 buckets.
func kvSim(r *kv.Result) ([]metric, error) {
	span := r.Makespan.Seconds()
	within := countAtMost(&r.Lat, goodLimit)
	ms := []metric{
		simMetric("sim_s", span, "sim_s"),
		simMetric("kv_achieved_rps", r.Throughput(), "req/sim_s"),
		{name: "kv_goodput_rps", value: float64(within) / span, unit: "req/sim_s", n: r.Lat.Count()},
		{name: "kv_fail_frac", value: ratio(float64(r.Conflicts+r.Unavail), float64(r.Issued)), unit: "frac", n: r.Issued},
	}
	for _, q := range []struct {
		name string
		h    *trace.Histogram
		q    float64
	}{
		{"kv_p50_us", &r.Lat, 0.5},
		{"kv_p99_us", &r.Lat, 0.99},
		{"kv_p999_us", &r.Lat, 0.999},
		{"kv_get_p99_us", &r.LatGet, 0.99},
		{"kv_put_p99_us", &r.LatWrite, 0.99},
	} {
		v := q.h.Quantile(q.q)
		m := metric{name: q.name, value: float64(v) / 1e3, unit: "sim_us",
			n: q.h.Count(), beyond: q.h.Count() - countAtMost(q.h, v)}
		if m.beyond < 10 {
			return nil, fmt.Errorf("%s: only %d of %d samples lie beyond it; issue more requests", m.name, m.beyond, m.n)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// countAtMost inverts h.Quantile: the number of observations the histogram
// places at or below v. Quantile is monotone in its rank, so a binary search
// finds the last rank whose estimate is still at most v.
func countAtMost(h *trace.Histogram, v int64) int64 {
	n := h.Count()
	if n == 0 || h.Quantile(0) > v {
		return 0
	}
	lo, hi := int64(0), n-1 // Quantile at rank lo is <= v
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.Quantile(float64(mid)/float64(n-1)) <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo + 1
}

// serial fails unless every cluster runs on one engine: the benchmark
// measures the program, not how the host schedules PDES shards.
func serial(cs ...*hw.Cluster) error {
	for _, c := range cs {
		if n := c.Shards(); n != 1 {
			return fmt.Errorf("cluster runs %d PDES shards, want 1", n)
		}
	}
	return nil
}

// lossless fails if any cluster lost a packet: the benchmark runs the
// fault-free fabric, whose switch and adapters must deliver every packet.
func lossless(cs ...*hw.Cluster) error {
	for _, c := range cs {
		if lost := c.Losses(); lost.TotalLost() != 0 {
			return fmt.Errorf("packets lost on the fault-free fabric: %+v", lost)
		}
	}
	return nil
}

// spurious fails unless every AM retransmit reached its receiver as a
// duplicate. Retransmits do happen on the fault-free fabric, when a busy
// peer's acknowledgement outlasts the retransmission timeout; one that was
// not a duplicate would mean the original packet was lost.
func spurious(st am.Stats) error {
	if st.Retransmits != st.Duplicates {
		return fmt.Errorf("%d AM retransmits but %d duplicates received: a packet was lost", st.Retransmits, st.Duplicates)
	}
	return nil
}

func addStats(t *am.Stats, s am.Stats) {
	t.PacketsSent += s.PacketsSent
	t.Retransmits += s.Retransmits
	t.Duplicates += s.Duplicates
	t.Polls += s.Polls
	t.EmptyPolls += s.EmptyPolls
}

// sharedCounts records the counters every workload has: the AM layer's,
// and the engine's where the workload can reach its clusters.
func sharedCounts(out *outcome, st am.Stats) {
	out.pkts = st.PacketsSent
	out.counts["am.polls"] = float64(st.Polls)
	out.counts["am.empty_poll_frac"] = ratio(float64(st.EmptyPolls), float64(st.Polls))
	out.counts["am.packets"] = float64(st.PacketsSent)
	out.counts["am.retransmits"] = float64(st.Retransmits)
	if out.events > 0 {
		out.counts["sim.events"] = float64(out.events)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
