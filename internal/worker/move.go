package worker

import (
	"fmt"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
)

// This file implements the worker side of the controller's move requests
// (Sec. 3.2.1 step 3, "Execute"): relocating a local query scope — the
// vertices a query touched here — to another worker, together with every
// query's private data and pending messages for those vertices. Moves only
// happen inside a global barrier, when the vertex-message network is
// provably quiet (drained), so no in-flight message can target a vertex
// mid-move.

// scopeRecvTotals tracking lives on the Worker struct fields below.

// onMoveScope executes move(LS(q,w), w, w'): collect the scope's vertices,
// strip their state out of every local query, ship it to the target, and
// report the moved vertex ids to the controller.
func (w *Worker) onMoveScope(m *protocol.MoveScope) error {
	if !w.stopping {
		return fmt.Errorf("move for query %d outside global barrier", m.Q)
	}
	if int(m.To) >= w.k || m.To == w.id {
		return fmt.Errorf("move for query %d to invalid worker %d", m.Q, m.To)
	}

	// The scope may be a live query's data, a finished query's remembered
	// vertex set, or both (nothing, if the scope decayed — then the move
	// is an empty no-op and the controller learns that from the ack).
	verts := make(map[graph.VertexID]bool)
	if qs, ok := w.queries[m.Q]; ok {
		for v := range qs.data {
			if !w.arrived[v] {
				verts[v] = true
			}
		}
	}
	if fs, ok := w.done[m.Q]; ok {
		for v := range fs.data {
			if w.owner[v] == w.id && !w.arrived[v] {
				verts[v] = true
			}
		}
	}

	// Collect per-vertex migratable state. Loops iterate the smaller side
	// (moved set vs. scope) so a barrier costs O(total scope mass), not
	// O(moved vertices × resident queries).
	byV := make(map[graph.VertexID]*protocol.MovedVertex, len(verts))
	entry := func(v graph.VertexID) *protocol.MovedVertex {
		mv := byV[v]
		if mv == nil {
			mv = &protocol.MovedVertex{V: v}
			byV[v] = mv
		}
		return mv
	}
	for q2, qs2 := range w.queries {
		if len(qs2.data) <= len(verts) {
			for v, val := range qs2.data {
				if verts[v] {
					entry(v).Values = append(entry(v).Values, protocol.QueryValue{Q: q2, Val: val})
					delete(qs2.data, v)
					w.index.remove(q2, qs2.sig, v)
				}
			}
		} else {
			for v := range verts {
				if val, ok := qs2.data[v]; ok {
					entry(v).Values = append(entry(v).Values, protocol.QueryValue{Q: q2, Val: val})
					delete(qs2.data, v)
					w.index.remove(q2, qs2.sig, v)
				}
			}
		}
		for step, box := range qs2.inbox {
			for v, val := range box {
				if verts[v] {
					entry(v).Pending = append(entry(v).Pending, protocol.PendingMsg{Q: q2, Step: step, Val: val})
					delete(box, v)
				}
			}
		}
	}
	for q2, fs2 := range w.done {
		if len(fs2.data) <= len(verts) {
			for v := range fs2.data {
				if verts[v] {
					entry(v).Finished = append(entry(v).Finished, q2)
					delete(fs2.data, v)
					w.index.remove(q2, fs2.sig, v)
				}
			}
		} else {
			for v := range verts {
				if _, ok := fs2.data[v]; ok {
					entry(v).Finished = append(entry(v).Finished, q2)
					delete(fs2.data, v)
					w.index.remove(q2, fs2.sig, v)
				}
			}
		}
	}
	moved := make([]protocol.MovedVertex, 0, len(verts))
	ids := make([]graph.VertexID, 0, len(verts))
	for v := range verts {
		w.owner[v] = m.To
		ids = append(ids, v)
		if mv := byV[v]; mv != nil {
			moved = append(moved, *mv)
		} else {
			moved = append(moved, protocol.MovedVertex{V: v})
		}
	}

	if len(moved) > 0 {
		if err := w.conn.Send(protocol.WorkerNode(m.To), &protocol.ScopeData{
			Epoch: m.Epoch, Q: m.Q, From: w.id, Gen: w.gen, Vertices: moved,
		}); err != nil {
			return err
		}
		w.scopeSentTotals[m.To]++
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.MoveAck{
		Epoch: m.Epoch, Q: m.Q, From: w.id, To: m.To, Vertices: ids,
	})
}

// onScopeData absorbs moved vertices: adopt ownership, merge live query
// values and pending messages, and remember finished-scope memberships.
func (w *Worker) onScopeData(m *protocol.ScopeData) error {
	if m.Gen != w.gen {
		// Scope data from an aborted pre-recovery barrier: the recovery
		// reset discarded the move's bookkeeping on every node, so the
		// transfer must neither merge nor count.
		return nil
	}
	if !w.stopping {
		return fmt.Errorf("scope data for query %d outside global barrier", m.Q)
	}
	w.scopeRecvTotals[m.From]++
	for _, mv := range m.Vertices {
		w.owner[mv.V] = w.id
		if w.arrived == nil {
			w.arrived = make(map[graph.VertexID]bool)
		}
		w.arrived[mv.V] = true
		for _, qv := range mv.Values {
			if qs, ok := w.queries[qv.Q]; ok {
				if _, had := qs.data[mv.V]; !had {
					w.index.add(qv.Q, qs.sig, mv.V)
				}
				qs.data[mv.V] = qv.Val
			} else {
				// The query finished while the move was decided; keep the
				// vertex in its remembered scope so the hotspot stays
				// movable.
				w.rememberFinished(qv.Q, mv.V)
			}
		}
		for _, pm := range mv.Pending {
			if qs, ok := w.queries[pm.Q]; ok {
				w.combineIn(qs, pm.Step, mv.V, pm.Val)
			}
			// Pending messages of finished queries are obsolete: the
			// controller only finishes a query when its result is final.
		}
		for _, fq := range mv.Finished {
			w.rememberFinished(fq, mv.V)
		}
	}
	w.checkDrain()
	return nil
}
