package worker

import (
	"math/rand/v2"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// monitorWorker builds worker 0 of two over a 2048-vertex path that worker
// 0 owns entirely. The test drives its handlers directly, without Run; the
// messages it sends queue unread in the in-process network.
func monitorWorker(t *testing.T, maxWindow int, clock func() time.Time) *Worker {
	t.Helper()
	const n = 2048
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	g := b.MustBuild()
	net := transport.NewChanNetwork(3, transport.Latency{})
	t.Cleanup(func() { net.Close() })
	w, err := New(Config{
		ID: 0, K: 2, Graph: g, Owner: make(partition.Assignment, n),
		Mu: time.Minute, MaxWindowQueries: maxWindow, Clock: clock,
	}, net.Conn(protocol.WorkerNode(0)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// touch adds v to a live query's scope the way computeStep does.
func (w *Worker) touch(q query.ID, v graph.VertexID) {
	qs := w.queries[q]
	if _, had := qs.data[v]; !had {
		w.index.add(q, qs.sig, v)
	}
	qs.data[v] = float64(v)
}

// scopes returns every vertex set the monitoring plane covers: live query
// data and remembered finished scopes.
func (w *Worker) scopes() map[query.ID][]graph.VertexID {
	out := make(map[query.ID][]graph.VertexID)
	for q, qs := range w.queries {
		for v := range qs.data {
			out[q] = append(out[q], v)
		}
	}
	for q, fs := range w.done {
		for v := range fs.data {
			out[q] = append(out[q], v)
		}
	}
	return out
}

// checkIndex compares the block index against signatures recomputed from
// the vertex sets, and every live query's intersections against a
// brute-force pairwise Σ_block min.
func checkIndex(t *testing.T, w *Worker, stage string) {
	t.Helper()
	counts := make(map[query.ID]map[int32]int32)
	postings := 0
	for q, verts := range w.scopes() {
		c := make(map[int32]int32)
		for _, v := range verts {
			c[int32(v)>>sigShift]++
		}
		counts[q] = c
		postings += len(c)
	}
	if w.index.postings != postings {
		t.Fatalf("%s: index counts %d postings, scopes have %d", stage, w.index.postings, postings)
	}
	for blk, p := range w.index.blocks {
		if len(p) == 0 {
			t.Fatalf("%s: empty posting list for block %d", stage, blk)
		}
		for q, c := range p {
			if counts[q][blk] != c {
				t.Fatalf("%s: index[%d][%d] = %d, scope count %d", stage, blk, q, c, counts[q][blk])
			}
		}
	}
	for q, c := range counts {
		for blk, n := range c {
			if w.index.blocks[blk][q] != n {
				t.Fatalf("%s: scope %d has %d vertices in block %d, index %d", stage, q, n, blk, w.index.blocks[blk][q])
			}
		}
	}
	for q, qs := range w.queries {
		want := make(map[query.ID]int32)
		for q2, c2 := range counts {
			if q2 == q {
				continue
			}
			for blk, c := range counts[q] {
				if m := min(c, c2[blk]); m > 0 {
					want[q2] += m
				}
			}
		}
		got := make(map[query.ID]int32)
		for _, is := range w.index.overlaps(q, qs.sig) {
			if is.Q1 != q || is.Shared <= 0 {
				t.Fatalf("%s: bad stat %+v for query %d", stage, is, q)
			}
			got[is.Q2] = is.Shared
		}
		if len(got) != len(want) {
			t.Fatalf("%s: query %d overlaps %d queries, brute force %d", stage, q, len(got), len(want))
		}
		for q2, s := range want {
			if got[q2] != s {
				t.Fatalf("%s: |LS(%d) ∩ LS(%d)| = %d, brute force %d", stage, q, q2, got[q2], s)
			}
		}
	}
}

// checkGone fails if the index or the window still knows any of ids.
func checkGone(t *testing.T, w *Worker, stage string, ids []query.ID) {
	t.Helper()
	for _, q := range ids {
		if w.done[q] != nil || w.queries[q] != nil {
			t.Fatalf("%s: query %d still tracked", stage, q)
		}
		for blk, p := range w.index.blocks {
			if _, ok := p[q]; ok {
				t.Fatalf("%s: block %d still indexes gone query %d", stage, blk, q)
			}
		}
	}
}

// TestBlockIndexMatchesPairwise: over random clustered scopes, the block
// index answers exactly the pairwise Σ_block min estimate, and stays in
// step through finishes, window eviction (by count and by age), a scope
// move strip, a scope-data arrival, and a recovery reset.
func TestBlockIndexMatchesPairwise(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	const maxWindow = 8
	w := monitorWorker(t, maxWindow, clock)
	rng := rand.New(rand.NewPCG(3, 4))
	n := w.view.NumVertices()

	next := query.ID(1)
	start := func() query.ID {
		q := next
		next++
		spec := query.Spec{ID: q, Kind: query.KindBFS, Source: graph.VertexID(rng.IntN(n)), Target: graph.NilVertex}
		if err := w.onExecute(&protocol.ExecuteQuery{Spec: spec}); err != nil {
			t.Fatal(err)
		}
		// A hotspot-like scope: random vertices around a random centre.
		centre := rng.IntN(n)
		for i := rng.IntN(300); i >= 0; i-- {
			v := centre + rng.IntN(257) - 128
			if v >= 0 && v < n {
				w.touch(q, graph.VertexID(v))
			}
		}
		return q
	}
	finish := func(q query.ID) {
		if err := w.onFinish(&protocol.QueryFinish{Q: q}); err != nil {
			t.Fatal(err)
		}
	}

	var finished []query.ID
	for i := 0; i < 20; i++ {
		q := start()
		checkIndex(t, w, "live")
		if i%2 == 1 {
			finish(q)
			finished = append(finished, q)
			checkIndex(t, w, "finish")
		}
	}
	// Ten finishes through a window of eight evicted the first two.
	if len(w.done) != maxWindow {
		t.Fatalf("window holds %d finished scopes, want %d", len(w.done), maxWindow)
	}
	checkGone(t, w, "count eviction", finished[:2])
	if s := w.MonitorStats(); s.Scopes != maxWindow || s.Postings != w.index.postings {
		t.Fatalf("MonitorStats %+v, want %d scopes and %d postings", s, maxWindow, w.index.postings)
	}

	// A move strips a live scope's vertices out of every query and scope.
	if err := w.onGlobalStop(&protocol.GlobalStop{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	var moved query.ID
	for q := range w.queries {
		moved = q
		break
	}
	if err := w.onMoveScope(&protocol.MoveScope{Epoch: 1, Q: moved, To: 1}); err != nil {
		t.Fatal(err)
	}
	if len(w.queries[moved].data) != 0 {
		t.Fatalf("moved query %d kept %d vertices", moved, len(w.queries[moved].data))
	}
	checkIndex(t, w, "move strip")

	// Scope data brings vertices back: values of live queries, memberships
	// of windowed finished scopes, and of an evicted one (ignored).
	var live []query.ID
	for q := range w.queries {
		live = append(live, q)
	}
	var verts []protocol.MovedVertex
	for i := 0; i < 200; i++ {
		mv := protocol.MovedVertex{V: graph.VertexID(rng.IntN(n))}
		mv.Values = append(mv.Values, protocol.QueryValue{Q: live[rng.IntN(len(live))], Val: 1})
		mv.Finished = append(mv.Finished, finished[rng.IntN(len(finished))])
		verts = append(verts, mv)
	}
	if err := w.onScopeData(&protocol.ScopeData{Epoch: 1, Q: moved, From: 1, Gen: w.gen, Vertices: verts}); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, w, "scope data")
	checkGone(t, w, "scope data", finished[:2])

	// Age eviction: past μ, the next finish drops every older scope.
	now = now.Add(2 * time.Minute)
	last := live[0]
	finish(last)
	checkIndex(t, w, "age eviction")
	checkGone(t, w, "age eviction", finished)
	if len(w.done) != 1 || w.done[last] == nil {
		t.Fatalf("after age eviction the window holds %d scopes, want only query %d", len(w.done), last)
	}

	// Recovery drops every live query's postings and keeps finished scopes.
	var dropped []query.ID
	for q := range w.queries {
		dropped = append(dropped, q)
	}
	w.resetForRecovery(1, w.owner)
	checkIndex(t, w, "recovery reset")
	checkGone(t, w, "recovery reset", dropped)
	if w.index.postings != len(w.done[last].sig) {
		t.Fatalf("after recovery the index holds %d postings, want the %d of finished query %d",
			w.index.postings, len(w.done[last].sig), last)
	}

	// A reused id replaces its windowed record before its new scope is
	// indexed.
	if err := w.onExecute(&protocol.ExecuteQuery{Spec: query.Spec{ID: last, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}}); err != nil {
		t.Fatal(err)
	}
	if w.done[last] != nil || w.index.postings != 0 {
		t.Fatalf("reused id %d: window record %v, %d postings", last, w.done[last], w.index.postings)
	}
	checkIndex(t, w, "reused id")
}
