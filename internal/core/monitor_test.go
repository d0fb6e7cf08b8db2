package core

import (
	"bufio"
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"qgraph/internal/metrics"
	"qgraph/internal/obs"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/workload"
)

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// planeMax is the largest monitoring-plane size seen by a sampler.
type planeMax struct {
	pairs    int64
	scopes   int
	postings int
}

// samplePlane polls the controller's retained intersection pairs and every
// worker's remembered scopes and block-index postings in the background;
// the returned function stops it and reports the maxima.
func samplePlane(eng *Engine) (stop func() planeMax) {
	var max planeMax
	sample := func() {
		max.pairs = maxOf(max.pairs, eng.Controller().IntersectionPairs())
		for _, wk := range eng.Workers() {
			st := wk.MonitorStats()
			max.scopes = maxOf(max.scopes, st.Scopes)
			max.postings = maxOf(max.postings, st.Postings)
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() planeMax {
		close(quit)
		<-done
		return max
	}
}

func maxOf[T int | int64](a, b T) T {
	if b > a {
		return b
	}
	return a
}

// TestMonitoringPlaneBounded runs 10k SSSP/POI queries through a
// non-adaptive two-worker engine and checks that the Q-cut monitoring
// plane stays within the controller's window: retained intersection
// pairs, remembered finished scopes, and block-index postings are bounded
// by MaxWindowQueries plus the in-flight queries, and the live heap does
// not grow between the 2k mark and the end.
func TestMonitoringPlaneBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run regression test")
	}
	net := testRoad(t)
	// The recorder's rings grow to fixed caps; filling them first keeps
	// that bounded growth out of the heap comparison.
	rec := metrics.NewRecorder(time.Now())
	for i := 0; i < metrics.DefaultMaxQueries; i++ {
		rec.RecordQuery(metrics.QueryRecord{Kind: "sssp"})
	}
	for i := 0; i < metrics.DefaultMaxLoads; i++ {
		rec.RecordLoad(metrics.LoadSample{})
	}
	eng := startEngine(t, net.G, func(c *Config) {
		c.Workers = 2
		c.Recorder = rec
	})

	const (
		total    = 10000
		chunk    = 1000
		parallel = 16
		heapMark = 2000
	)
	tracked := protocol.DefaultMaxWindowQueries + parallel // windowed plus in-flight
	// Signature blocks are 64 consecutive vertex ids (worker sigShift).
	blocks := (net.G.NumVertices() + 63) / 64
	maxPairs := int64(tracked * (tracked - 1) / 2)
	maxPostings := tracked * blocks

	stopSampling := samplePlane(eng)
	gen := workload.NewRoadGen(net, 11)
	var mark uint64
	t0 := time.Now()
	for done := 0; done < total; done += chunk {
		specs := make([]query.Spec, chunk)
		for i := range specs {
			if i%4 == 3 {
				specs[i] = gen.POI()
			} else {
				specs[i] = gen.SSSP()
			}
		}
		results, err := eng.RunBatch(specs, parallel)
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		for _, r := range results {
			if r.Reason == protocol.FinishRejected || r.Reason == protocol.FinishCancelled {
				t.Fatalf("query %d ended with reason %d", r.Q, r.Reason)
			}
		}
		if done+chunk == heapMark {
			mark = liveHeap()
		}
	}
	seen := stopSampling()
	end := liveHeap()
	elapsed := time.Since(t0)

	t.Logf("%d queries in %v; max pairs %d (bound %d), scopes %d (bound %d), postings %d (bound %d); heap %.2f → %.2f MiB",
		total, elapsed.Round(time.Millisecond), seen.pairs, maxPairs, seen.scopes, protocol.DefaultMaxWindowQueries,
		seen.postings, maxPostings, float64(mark)/(1<<20), float64(end)/(1<<20))
	if seen.pairs == 0 {
		t.Errorf("controller never retained an intersection pair")
	}
	if seen.pairs > maxPairs {
		t.Errorf("controller retained %d intersection pairs, bound %d", seen.pairs, maxPairs)
	}
	if seen.scopes > protocol.DefaultMaxWindowQueries {
		t.Errorf("a worker remembered %d finished scopes, window %d", seen.scopes, protocol.DefaultMaxWindowQueries)
	}
	if seen.postings > maxPostings {
		t.Errorf("a worker's block index held %d postings, bound %d", seen.postings, maxPostings)
	}
	// Allocator and map-growth noise only: the unbounded plane grew by
	// hundreds of MiB over the same run.
	const slack = 1 << 20
	if end > mark+slack {
		t.Errorf("live heap grew from %.2f MiB at query %d to %.2f MiB at query %d",
			float64(mark)/(1<<20), heapMark, float64(end)/(1<<20), total)
	}
}

// TestQcutSnapshotWithoutAdapt guards the input of fig6g's hashSnapshot: a
// non-adaptive engine still collects intersections, and every pair in its
// Q-cut snapshot references a query the snapshot has a scope row for.
func TestQcutSnapshotWithoutAdapt(t *testing.T) {
	net := testRoad(t)
	specs, _ := hotspotSpecs(t, net, 64)
	eng := startEngine(t, net.G, func(c *Config) { c.Workers = 2 })
	if _, err := eng.RunBatch(specs, 16); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	snap, err := eng.QcutSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Intersections) == 0 {
		t.Fatalf("snapshot of %d scopes carries no intersections", len(snap.Scopes))
	}
	rows := make(map[query.ID]bool, len(snap.Scopes))
	for _, r := range snap.Scopes {
		rows[r.Q] = true
	}
	for _, is := range snap.Intersections {
		if !rows[is.Q1] || !rows[is.Q2] || is.Q1 == is.Q2 || is.Shared <= 0 {
			t.Fatalf("intersection %+v does not pair two scope rows", is)
		}
	}
}

// gaugeValue reads an unlabelled gauge from the registry's exposition.
func gaugeValue(t *testing.T, o *obs.Obs, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	o.Metrics.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}

// TestQcutIntersectionsGauge: qgraph_qcut_intersections reports the
// controller's retained pairs — non-zero once overlapping queries ran, and
// bounded by a small window plus the in-flight queries however many
// queries finish.
func TestQcutIntersectionsGauge(t *testing.T) {
	net := testRoad(t)
	specs, _ := hotspotSpecs(t, net, 240)
	o := obs.New(nil)
	const window, parallel = 16, 8
	eng := startEngine(t, net.G, func(c *Config) {
		c.Workers = 2
		c.Obs = o
		c.MaxWindowQueries = window
	})
	bound := float64((window + parallel) * (window + parallel - 1) / 2)
	for i := 0; i < len(specs); i += 80 {
		if _, err := eng.RunBatch(specs[i:i+80], parallel); err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		g := gaugeValue(t, o, "qgraph_qcut_intersections")
		if g <= 0 || g > bound {
			t.Fatalf("after %d queries qgraph_qcut_intersections = %v, want in (0, %v]", i+80, g, bound)
		}
	}
}
