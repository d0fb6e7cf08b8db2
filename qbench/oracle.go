package main

import (
	"math"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// reference answers spec on g single-threaded: graph.DijkstraTo for SSSP,
// the distance to the nearest tagged vertex for POI.
func reference(g *graph.Graph, spec query.Spec) float64 {
	if spec.Kind == query.KindPOI {
		_, d := graph.NearestTagged(g, spec.Source)
		return d
	}
	return graph.DijkstraTo(g, spec.Source, spec.Target)
}

// sameValue compares an engine value with the reference; both read
// query.NoResult (= graph.Inf) when no goal vertex is reachable.
func sameValue(got, want float64) bool {
	if want == graph.Inf || got == query.NoResult {
		return got == want
	}
	return math.Abs(got-want) <= 1e-6*math.Max(1, want)
}

// checkQueries compares every query result with the reference on the base
// graph (the write stream never changes a shortest path, see churn) and
// returns the failures and the mean reference time per query.
func checkQueries(g *graph.Graph, qs []qrec) (failed int, refPer time.Duration) {
	start := time.Now()
	for _, q := range qs {
		if q.err != nil || !finished(q.res.Reason) || !sameValue(q.res.Value, reference(g, q.spec)) {
			failed++
		}
	}
	if len(qs) > 0 {
		refPer = time.Since(start) / time.Duration(len(qs))
	}
	return failed, refPer
}

// finished reports whether a query ran to a real answer.
func finished(r protocol.FinishReason) bool {
	return r == protocol.FinishConverged || r == protocol.FinishEarly
}

// mutationFailures counts batches the engine refused or failed.
func mutationFailures(ms []mutRec) int {
	n := 0
	for _, m := range ms {
		if m.err != nil || m.res.Err != nil {
			n++
		}
	}
	return n
}
