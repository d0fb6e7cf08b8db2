package worker

import (
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// This file implements the worker's share of the monitoring plane
// (Sec. 3.4): the finished scopes it remembers, bounded to the controller's
// monitoring window, and the intersection function Iw over live and
// remembered scopes, answered from an inverted block index.

// sigShift is the scope-signature block size exponent: vertices v and v'
// share a block iff v>>sigShift == v'>>sigShift. Road-network vertex ids
// are row-major, so a block is a spatially contiguous strip.
const sigShift = 6

// blockIndex is the worker's inverted scope-signature index: for every
// vertex block, the touched-vertex count of each live or remembered query
// with a vertex there. A query's own signature (sig: block → count) lists
// its blocks; every signature change goes through add/remove/drop, so the
// index always equals the union of the signatures and an intersection
// lookup walks only the postings of the asking query's blocks.
type blockIndex struct {
	blocks map[int32]map[query.ID]int32
	// postings counts (block, query) entries.
	postings int
	// shared is overlaps' reusable accumulator.
	shared map[query.ID]int32
}

func newBlockIndex() blockIndex {
	return blockIndex{
		blocks: make(map[int32]map[query.ID]int32),
		shared: make(map[query.ID]int32),
	}
}

// add counts vertex v into query q's signature sig.
func (ix *blockIndex) add(q query.ID, sig map[int32]int32, v graph.VertexID) {
	blk := int32(v) >> sigShift
	sig[blk]++
	p := ix.blocks[blk]
	if p == nil {
		p = make(map[query.ID]int32)
		ix.blocks[blk] = p
	}
	if _, ok := p[q]; !ok {
		ix.postings++
	}
	p[q] = sig[blk]
}

// remove uncounts vertex v from query q's signature sig.
func (ix *blockIndex) remove(q query.ID, sig map[int32]int32, v graph.VertexID) {
	blk := int32(v) >> sigShift
	p := ix.blocks[blk]
	if sig[blk]--; sig[blk] > 0 {
		p[q] = sig[blk]
		return
	}
	delete(sig, blk)
	delete(p, q)
	ix.postings--
	if len(p) == 0 {
		delete(ix.blocks, blk)
	}
}

// drop removes every posting of query q (signature sig), which is leaving
// the worker's monitoring plane.
func (ix *blockIndex) drop(q query.ID, sig map[int32]int32) {
	for blk := range sig {
		p := ix.blocks[blk]
		delete(p, q)
		ix.postings--
		if len(p) == 0 {
			delete(ix.blocks, blk)
		}
	}
}

// overlaps estimates |LS(q) ∩ LS(q2)| against every other query on this
// worker — live ones and the remembered scopes of finished ones — the
// worker-side transformation of low-level vertex knowledge into the
// high-level intersection function Iw of Sec. 3.4. Including finished
// scopes matters: queries of the same hotspot rarely overlap in time, and
// it is exactly these temporal chains that let Q-cut's clustering move a
// hotspot as one unit. The estimate is Σ_block min(c_q, c_q2) instead of
// an exact key-set walk — the clustering that consumes it only needs
// affinity — and costs O(postings of q's blocks).
func (ix *blockIndex) overlaps(q query.ID, sig map[int32]int32) []protocol.IntersectionStat {
	for blk, c := range sig {
		for q2, c2 := range ix.blocks[blk] {
			if q2 != q {
				ix.shared[q2] += min(c, c2)
			}
		}
	}
	if len(ix.shared) == 0 {
		return nil
	}
	out := make([]protocol.IntersectionStat, 0, len(ix.shared))
	for q2, shared := range ix.shared {
		out = append(out, protocol.IntersectionStat{Q1: q, Q2: q2, Shared: shared})
	}
	clear(ix.shared)
	return out
}

// finishedScope is one finished query in the worker's copy of the
// monitoring window. Its presence marks late vertex batches of the query
// as obsolete; its remembered vertex set LS(q,w) lets later move
// directives still relocate the query's hotspot and feeds intersection
// estimates.
type finishedScope struct {
	q  query.ID
	at time.Time
	// data is the query's vertex data, taken over at finish: its key set
	// is LS(q,w), the values are never read again. Nil while the query
	// left nothing on this worker.
	data map[graph.VertexID]float64
	sig  map[int32]int32
}

// onFinish drops a query's live state, keeping its vertex set for future
// scope moves, and reports final statistics.
func (w *Worker) onFinish(m *protocol.QueryFinish) error {
	now := w.cfg.Clock()
	delete(w.early, m.Q)
	w.forget(m.Q) // an older window record of a reused id
	fs := &finishedScope{q: m.Q, at: now}
	qs, live := w.queries[m.Q]
	var inter []protocol.IntersectionStat
	if live {
		inter = w.index.overlaps(m.Q, qs.sig)
		delete(w.queries, m.Q)
		w.views.Unpin(qs.spec.PinVersion)
		if len(qs.data) > 0 {
			// The query's postings stay in the index under the same id.
			fs.data, fs.sig = qs.data, qs.sig
		}
	}
	w.done[m.Q] = fs
	w.window = append(w.window, fs)
	w.pruneWindow(now)
	w.publishMonitor()
	if !live {
		return nil
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.BarrierSynch{
		Q: m.Q, W: w.id,
		ScopeSize:     int32(len(fs.data)),
		BestGoal:      qs.bestGoal,
		MinFrontier:   query.NoResult,
		Intersections: inter,
		Finished:      true,
	})
}

// pruneWindow mirrors the controller's pruneWindow: a finished query leaves
// once Mu has passed since its finish, or once MaxWindowQueries later
// queries have finished. QueryFinish arrives in the controller's finish
// order (per-link FIFO), so this worker drops a scope when the
// controller's window drops the query.
func (w *Worker) pruneWindow(now time.Time) {
	n := 0
	for n < len(w.window) &&
		(len(w.window)-n > w.cfg.MaxWindowQueries || now.Sub(w.window[n].at) > w.cfg.Mu) {
		if fs := w.window[n]; w.done[fs.q] == fs {
			w.evict(fs)
		}
		n++
	}
	if n > 0 {
		kept := copy(w.window, w.window[n:])
		clear(w.window[kept:])
		w.window = w.window[:kept]
	}
}

// forget removes finished query q from this worker's window, if present.
func (w *Worker) forget(q query.ID) {
	if fs := w.done[q]; fs != nil {
		w.evict(fs)
	}
}

func (w *Worker) evict(fs *finishedScope) {
	delete(w.done, fs.q)
	w.index.drop(fs.q, fs.sig)
}

// rememberFinished records v as part of finished query q's scope; a query
// that already left this worker's window stays forgotten.
func (w *Worker) rememberFinished(q query.ID, v graph.VertexID) {
	fs := w.done[q]
	if fs == nil {
		return
	}
	if fs.data == nil {
		fs.data = make(map[graph.VertexID]float64)
		fs.sig = make(map[int32]int32)
	}
	if _, had := fs.data[v]; !had {
		fs.data[v] = 0
		w.index.add(q, fs.sig, v)
	}
}

// MonitorStats is the size of a worker's monitoring plane.
type MonitorStats struct {
	// Scopes counts finished queries in the worker's window.
	Scopes int
	// Postings counts (block, query) entries of the block index.
	Postings int
}

// publishMonitor mirrors the monitoring plane's size for MonitorStats.
func (w *Worker) publishMonitor() {
	w.monScopes.Store(int64(len(w.done)))
	w.monPostings.Store(int64(w.index.postings))
}

// MonitorStats returns the monitoring plane's size as of the last query
// finish or recovery reset. Safe concurrently with Run.
func (w *Worker) MonitorStats() MonitorStats {
	return MonitorStats{Scopes: int(w.monScopes.Load()), Postings: int(w.monPostings.Load())}
}
