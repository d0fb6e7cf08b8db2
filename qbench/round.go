package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"

	"qgraph/internal/qcut"
)

// round is one set-up, window, commit probe and check on a fresh
// deployment.
type round struct {
	w         *workload
	setup     setupTimes
	win       *window     // read and write workloads
	srv       serveResult // serve_hot
	muts      []mutRec    // the write stream, or the commit probe
	heapMiB   float64
	attempted int
	failed    int
	refPer    time.Duration
	rt        runtimeSample // over the window
	replay    replayResult
	vStart    int
	vEnd      int
	eStart    int
	eEnd      int

	// Traced round only.
	dir            string
	spans          *spanLog
	winNet, allNet netCounters // over the window; window plus probe
	walStats       walDelta
	srvCtr         serveCounters
	repartitions   int64
	intersections  int
	snapshotMS     float64
	qcutRes        qcut.Result
	qcutMS         float64
	imbalance      float64
}

// runRound sets up, measures a window of n queries (requests), probes
// commits on workloads without writes, and checks every result outside
// the window. A traced round (traceTo names its output directory) wraps
// the network in the counting transport and records spans and a CPU
// profile of the window.
func runRound(w *workload, seed uint64, n int, traceTo string) (*round, error) {
	r := &round{w: w, dir: traceTo}
	if traceTo != "" {
		r.spans = newSpanLog()
	}
	// What the harness keeps from earlier rounds is not the deployment's:
	// heap_end_mib counts from here.
	heap0 := liveHeapMiB()
	// read_adaptive has no warm-up: its window starts at the first query
	// from the hash partitioning, as in Fig. 6a.
	d, warm, err := deploy(w, seed, !w.adapt, r.spans)
	if err != nil {
		return nil, err
	}
	r.setup = d.times
	if warm != nil {
		f, _ := checkQueries(d.net.G, warm.queries)
		r.attempted += len(warm.queries) + len(warm.muts)
		r.failed += f + mutationFailures(warm.muts)
	}
	werr := r.window(d, seed, n)
	r.heapMiB -= heap0
	if err := d.close(); err != nil && werr == nil {
		werr = fmt.Errorf("close: %w", err)
	}
	return r, werr
}

// window runs the timed phase on d and everything that follows it.
func (r *round) window(d *deployment, seed uint64, n int) error {
	w := r.w
	traced := r.spans != nil
	dir := r.dir
	var prof *os.File
	if traced {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if prof, err = os.Create(filepath.Join(dir, "cpu.pprof")); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}
	net0 := d.netSnapshot()
	wal0 := d.eng.WALStats()
	srv0 := d.serveCounters()
	g0 := d.eng.GraphView()
	r.vStart, r.eStart = g0.NumVertices(), g0.NumEdges()
	winStart := time.Now()
	rt0 := readRuntime()
	if w.serve {
		r.srv = d.serveWindow(n, seed, r.spans)
	} else {
		r.win = d.drive(newSpecStream(d.net, seed, 0), n, r.spans)
	}
	r.rt = readRuntime().sub(rt0)
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	net1 := d.netSnapshot()
	r.srvCtr = d.serveCounters().sub(srv0)
	g1 := d.eng.GraphView()
	r.vEnd, r.eEnd = g1.NumVertices(), g1.NumEdges()

	r.heapMiB = liveHeapMiB()

	var snap qcut.Input
	if traced {
		t0 := time.Now()
		var err error
		if snap, err = d.eng.QcutSnapshot(); err != nil {
			return err
		}
		r.snapshotMS = float64(time.Since(t0)) / float64(time.Millisecond)
		r.intersections = len(snap.Intersections)
		r.repartitions = d.eng.RepartitionEpoch()
		r.imbalance = meanImbalance(d, winStart)
	}

	if w.writes {
		r.muts = r.win.muts
	} else {
		r.muts = d.commitProbe(r.spans)
	}
	r.allNet = d.netSnapshot().sub(net0)
	r.winNet = net1.sub(net0)
	r.walStats = walDeltaOf(wal0, d.eng.WALStats())

	// Correctness, outside the window.
	g := d.net.G
	if w.serve {
		r.attempted += len(r.srv.lats) + len(d.pool)
		r.failed += r.srv.failed + checkPool(g, d.pool)
		// The pool fits the cache and outlives the window: a request the
		// cache did not answer means the window measured something else.
		if misses := r.srvCtr.received - r.srvCtr.hits; misses > 0 {
			fmt.Fprintf(os.Stderr, "qbench: %d of %d requests missed the cache in the window\n", misses, r.srvCtr.received)
			r.failed += int(misses)
		}
	} else {
		f, ref := checkQueries(g, r.win.queries)
		r.attempted += len(r.win.queries)
		r.failed += f
		r.refPer = ref
	}
	r.attempted += len(r.muts)
	r.failed += mutationFailures(r.muts)
	rp, err := replay(g, d.batches, d.noops, d.eng.GraphView(), r.spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench: write replay:", err)
		r.failed++
	}
	r.replay = rp
	r.failed += rp.mismatches

	if traced {
		snap.Deadline = time.Now().Add(2 * time.Second)
		t0 := time.Now()
		r.qcutRes = qcut.Run(snap)
		t1 := time.Now()
		r.qcutMS = float64(t1.Sub(t0)) / float64(time.Millisecond)
		r.spans.add(0, 0, "qcut.run", t0, t1)
		if err := r.spans.write(filepath.Join(dir, "spans.jsonl")); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (spans.jsonl, cpu.pprof)\n", dir)
	}
	return nil
}

// netSnapshot reads the counting network (zero when untraced).
func (d *deployment) netSnapshot() netCounters {
	if d.counts == nil {
		return netCounters{}
	}
	return d.counts.snapshot()
}

// meanImbalance averages the recorder's Fig. 6e imbalance series over the
// bins that overlap the window.
func meanImbalance(d *deployment, winStart time.Time) float64 {
	rec := d.eng.Recorder()
	from := winStart.Sub(rec.Start())
	sum, n := 0.0, 0
	for _, pt := range rec.ImbalanceSeries(time.Second, workers) {
		if pt.Start+time.Second > from {
			sum += pt.Value
			n++
		}
	}
	return ratio(sum, float64(n))
}

// latencies returns the window's query (or request) latencies.
func (r *round) latencies() []time.Duration {
	if r.w.serve {
		return r.srv.lats
	}
	ls := make([]time.Duration, 0, len(r.win.queries))
	for _, q := range r.win.queries {
		ls = append(ls, q.lat)
	}
	return ls
}

func (r *round) elapsed() time.Duration {
	if r.w.serve {
		return r.srv.elapsed
	}
	return r.win.elapsed
}

// endToEnd reports the end-to-end metrics over the rounds. The host only
// ever slows a round down, so each speed metric is the mean over the
// faster half of the rounds (the highest query_qps, the lowest latency
// percentiles, each computed over one round's samples): rounds slowed by
// the host drop out until they are half of the run. setup_s and
// heap_end_mib are medians over the rounds. The count printed with each is
// the samples over all rounds.
func endToEnd(rs []*round) *report {
	out := &report{}
	over := func(name, unit string, pick func([]float64) float64, f func(*round) (float64, int)) {
		var xs []float64
		total := 0
		for _, r := range rs {
			v, n := f(r)
			xs = append(xs, v)
			total += n
		}
		out.add(name, unit, pick(xs), total)
	}
	median := func(xs []float64) float64 { return quantile(xs, 0.5) }
	pct := func(q float64, f func(*round) []float64) func(*round) (float64, int) {
		return func(r *round) (float64, int) {
			xs := f(r)
			return quantile(xs, q), len(xs)
		}
	}
	lat := func(r *round) []float64 { return msOf(r.latencies()) }
	over("setup_s", "s", median, func(r *round) (float64, int) { return r.setup.total.Seconds(), 1 })
	over("query_qps", "1/s", fasterHalf(true), func(r *round) (float64, int) {
		n := len(r.latencies())
		return float64(n) / r.elapsed().Seconds(), n
	})
	over("query_p50_ms", "ms", fasterHalf(false), pct(0.5, lat))
	over("query_p99_ms", "ms", fasterHalf(false), pct(0.99, lat))
	over("commit_p50_ms", "ms", fasterHalf(false), pct(0.5, commitMS))
	over("heap_end_mib", "MiB", median, func(r *round) (float64, int) { return r.heapMiB, 1 })
	return out
}

// fasterHalf returns the mean of the better half of xs (at least one
// value): the highest values if higher is better, else the lowest.
func fasterHalf(higher bool) func([]float64) float64 {
	return func(xs []float64) float64 {
		slices.Sort(xs)
		if higher {
			slices.Reverse(xs)
		}
		best := xs[:max(1, len(xs)/2)]
		sum := 0.0
		for _, x := range best {
			sum += x
		}
		return sum / float64(len(best))
	}
}

// commitMS is the round's commit latencies, in milliseconds.
func commitMS(r *round) []float64 {
	ds := make([]time.Duration, len(r.muts))
	for i, m := range r.muts {
		ds[i] = m.lat
	}
	return msOf(ds)
}

// commitP99 is the p99 of the rounds' pooled commit latencies, with its
// count.
func commitP99(rs []*round) (float64, int) {
	var c []float64
	for _, r := range rs {
		c = append(c, commitMS(r)...)
	}
	return quantile(c, 0.99), len(c)
}
