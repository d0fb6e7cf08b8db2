package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
)

const (
	// batchOps is the client batch size; write_mixed sets the engine's
	// MaxBatchOps to it so every batch seals on arrival.
	batchOps = 16
	// churnPairs add_edge and churnPairs remove_edge ops go in every batch
	// once churnPool detours are live; the rest are set_weight.
	churnPairs = 4
	churnPool  = 64
)

// churn generates size-neutral mutation batches. It adds "detour" edges
// u→v where v is already reachable from u in two hops, removes the oldest
// detour once churnPool are live, and re-weights live detours. Every
// detour weighs more than all road edges together, so none can lie on a
// shortest path and the answer to every read stays the base graph's: the
// reference can check reads that run beside writes, while the write path
// (validation, WAL, seal, broadcast, View.Apply on every node) does its
// full work.
type churn struct {
	g     *graph.Graph
	rng   *rand.Rand
	heavy float32
	live  [][2]graph.VertexID // FIFO of detours on the graph
	has   map[[2]graph.VertexID]bool
}

func newChurn(g *graph.Graph, seed uint64) *churn {
	total := 0.0
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(graph.VertexID(u)) {
			total += float64(e.Weight)
		}
	}
	return &churn{
		g: g, rng: rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909)),
		heavy: float32(2*total + 1),
		has:   map[[2]graph.VertexID]bool{},
	}
}

// weight draws a detour weight in [heavy, 2·heavy).
func (c *churn) weight() float32 { return c.heavy * (1 + c.rng.Float32()) }

// detour picks a new edge u→v, v a two-hop successor of u that is neither
// u, a direct successor, nor a live detour target.
func (c *churn) detour() [2]graph.VertexID {
	n := c.g.NumVertices()
	for {
		u := graph.VertexID(c.rng.IntN(n))
		out := c.g.Out(u)
		if len(out) == 0 {
			continue
		}
		mid := out[c.rng.IntN(len(out))].To
		out2 := c.g.Out(mid)
		if len(out2) == 0 {
			continue
		}
		v := out2[c.rng.IntN(len(out2))].To
		if v == u || c.has[[2]graph.VertexID{u, v}] {
			continue
		}
		direct := false
		for _, e := range out {
			if e.To == v {
				direct = true
				break
			}
		}
		if !direct {
			return [2]graph.VertexID{u, v}
		}
	}
}

// next returns the next batch of batchOps ops.
func (c *churn) next() []delta.Op {
	ops := make([]delta.Op, 0, batchOps)
	if len(c.live) >= churnPool {
		for _, e := range c.live[:churnPairs] {
			ops = append(ops, delta.Op{Kind: delta.OpRemoveEdge, From: e[0], To: e[1]})
			delete(c.has, e)
		}
		c.live = append(c.live[:0], c.live[churnPairs:]...)
	}
	for i := 0; i < churnPairs; i++ {
		e := c.detour()
		c.live = append(c.live, e)
		c.has[e] = true
		ops = append(ops, delta.Op{Kind: delta.OpAddEdge, From: e[0], To: e[1], Weight: c.weight()})
	}
	for len(ops) < batchOps {
		e := c.live[c.rng.IntN(len(c.live))]
		ops = append(ops, delta.Op{Kind: delta.OpSetWeight, From: e[0], To: e[1], Weight: c.weight()})
	}
	return ops
}

// replayResult is the harness's own View.Apply replay of every batch the
// engine acknowledged, compared with the engine's committed graph.
type replayResult struct {
	mismatches int
	batches    int
	applyPer   time.Duration
	overlay    int
}

// replay applies batches in submission order to a fresh View over base and
// compares the per-batch no-op counts the engine reported (engineNoOps)
// and then every vertex's out-edges with got.
func replay(base *graph.Graph, batches [][]delta.Op, engineNoOps []int, got graph.View, spans *spanLog) (replayResult, error) {
	var r replayResult
	v := delta.NewView(base)
	start := time.Now()
	for i, ops := range batches {
		t0 := time.Now()
		nv, st, err := v.Apply(ops)
		if err != nil {
			return r, fmt.Errorf("replay batch %d: %w", i, err)
		}
		spans.add(uint64(i+1), 0, "delta.apply", t0, time.Now())
		v = nv
		noops := 0
		for _, s := range st {
			if s == delta.OpNoOp {
				noops++
			}
		}
		if noops != engineNoOps[i] {
			r.mismatches++
		}
	}
	r.batches = len(batches)
	if len(batches) > 0 {
		r.applyPer = time.Since(start) / time.Duration(len(batches))
	}
	r.overlay = v.OverlaySize()
	if v.NumVertices() != got.NumVertices() || v.NumEdges() != got.NumEdges() {
		return r, fmt.Errorf("replay has %d V / %d E, engine %d V / %d E",
			v.NumVertices(), v.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	for u := 0; u < v.NumVertices(); u++ {
		a, b := v.Out(graph.VertexID(u)), got.Out(graph.VertexID(u))
		if len(a) != len(b) {
			r.mismatches++
			continue
		}
		for j := range a {
			if a[j] != b[j] {
				r.mismatches++
				break
			}
		}
	}
	return r, nil
}
