package main

import (
	"slices"
	"time"

	"qgraph/internal/protocol"
)

// layers computes the per-layer metrics. They come from the traced round
// tr, measured at the layer boundaries from outside each module, except
// the set-up split and the runtime costs, which are medians over the
// untraced rounds rs; the tracing overhead compares the two.
func layers(rs []*round, tr *round) *report {
	r := &report{}
	med := func(f func(*round) float64) float64 {
		var xs []float64
		for _, x := range rs {
			xs = append(xs, f(x))
		}
		return quantile(xs, 0.5)
	}
	nr := len(rs)
	p99, n99 := commitP99(rs)
	r.add("commit_p99_ms", "ms", p99, n99)
	r.add("gen.road_s", "s", med(func(x *round) float64 { return x.setup.gen.Seconds() }), nr)
	r.add("partition.assign_s", "s", med(func(x *round) float64 { return x.setup.assign.Seconds() }), nr)
	r.add("core.start_s", "s", med(func(x *round) float64 { return x.setup.start.Seconds() }), nr)

	var sched []float64
	var steps, wk, loc float64
	if tr.win != nil {
		for _, q := range tr.win.queries {
			sched = append(sched, float64(q.sched)/float64(time.Microsecond))
			steps += float64(q.res.Supersteps)
			wk += float64(q.res.Workers)
			loc += ratio(float64(q.res.LocalIters), float64(q.res.Supersteps))
		}
	}
	nq := len(sched)
	r.add("controller.schedule_us", "us", quantile(sched, 0.5), nq)
	r.add("controller.supersteps_per_query", "count", ratio(steps, float64(nq)), nq)
	r.add("controller.workers_per_query", "count", ratio(wk, float64(nq)), nq)
	r.add("controller.locality", "ratio", ratio(loc, float64(nq)), nq)
	r.add("controller.repartitions", "count", float64(tr.repartitions), 1)
	r.add("controller.intersections_end", "count", float64(tr.intersections), 1)
	r.add("controller.qcut_snapshot_ms", "ms", tr.snapshotMS, 1)
	var live, sealed, lag float64
	if tr.win != nil {
		live, sealed, lag = float64(tr.win.versionsLiveMax), float64(tr.win.sealedMax), float64(tr.win.workerLagMax)
	}
	r.add("controller.versions_live_max", "count", live, 1)
	r.add("controller.worker_lag_max", "count", lag, 1)
	r.add("controller.sealed_in_flight_max", "count", sealed, 1)

	c := tr.winNet
	q := float64(nq)
	r.add("worker.compute_ms_per_query", "ms", ratio(float64(c.computeNS)/1e6, q), nq)
	r.add("worker.compute_share", "ratio", ratio(float64(c.computeNS), workers*float64(tr.elapsed())), nq)
	r.add("worker.vertices_per_query", "count", ratio(float64(c.processed), q), nq)

	msgs, bytes := c.totalMsgs()
	r.add("transport.msgs_per_query", "count", ratio(float64(msgs), q), nq)
	r.add("transport.bytes_per_query", "B", ratio(float64(bytes), q), nq)
	r.add("transport.vertex_batches_per_query", "count", ratio(float64(c.msgs[protocol.TVertexBatch]), q), nq)
	r.add("transport.barrier_bytes_per_query", "B", ratio(float64(c.bytes[protocol.TBarrierSynch]), q), nq)
	r.add("transport.intersection_stats_per_query", "count", ratio(float64(c.interStats), q), nq)
	all := tr.allNet
	r.add("transport.send_us", "us", ratio(float64(all.sendNS)/1e3, float64(all.sends)), int(all.sends))
	nb := len(tr.muts)
	r.add("transport.delta_bytes_per_batch", "B", ratio(float64(all.bytes[protocol.TDeltaBatch]), float64(nb)), nb)
	r.add("transport.send_errors", "count", float64(all.sendErrs), int(all.sends))

	r.add("query.ref_ms_per_query", "ms", float64(tr.refPer)/float64(time.Millisecond), nq)

	r.add("qcut.run_ms", "ms", tr.qcutMS, 1)
	r.add("qcut.cost_reduction", "ratio", 1-ratio(float64(tr.qcutRes.FinalCost), float64(tr.qcutRes.InitialCost)), 1)
	r.add("qcut.rounds", "count", float64(tr.qcutRes.Rounds), 1)
	r.add("metrics.imbalance", "ratio", tr.imbalance, 1)

	rp := tr.replay
	r.add("delta.apply_us_per_batch", "us", float64(rp.applyPer)/float64(time.Microsecond), rp.batches)
	r.add("delta.overlay_entries_end", "count", float64(rp.overlay), 1)
	var noops, ops int
	var lateMax time.Duration
	for _, m := range tr.muts {
		noops += m.res.NoOps
		ops += len(m.ops)
		lateMax = max(lateMax, m.late)
	}
	r.add("delta.noop_ratio", "ratio", ratio(float64(noops), float64(ops)), ops)
	r.add("delta.edge_drift", "count", float64(tr.eEnd-tr.eStart), 1)

	ws := tr.walStats
	r.add("wal.fsyncs_per_batch", "ratio", ratio(float64(ws.fsyncs), float64(ws.appends)), int(ws.appends))
	r.add("wal.fsync_us_mean", "us", float64(ws.fsyncMeanUS), int(ws.fsyncs))
	r.add("wal.bytes_per_op", "B", ratio(float64(ws.bytes), float64(ops)), ops)
	r.add("wal.append_errors", "count", float64(ws.appendErrors), int(ws.appends))

	sc := tr.srvCtr
	r.add("serve.cache_hit_ratio", "ratio", ratio(float64(sc.hits), float64(sc.received)), int(sc.received))
	r.add("serve.allocs_per_request", "count", ratio(float64(tr.rt.mallocs), float64(sc.received)), int(sc.received))
	r.add("serve.admit_wait_us", "us", ratio(float64(sc.waitNS)/1e3, float64(sc.waits)), int(sc.waits))
	r.add("serve.rejected_ratio", "ratio", ratio(float64(sc.rejected), float64(sc.received)), int(sc.received))

	perQuery := func(f func(*round) float64) float64 {
		return med(func(x *round) float64 { return ratio(f(x), float64(len(x.latencies()))) })
	}
	r.add("runtime.allocs_per_query", "count", perQuery(func(x *round) float64 { return float64(x.rt.mallocs) }), nr)
	r.add("runtime.cpu_ms_per_query", "ms", perQuery(func(x *round) float64 { return float64(x.rt.cpu) / 1e6 }), nr)
	r.add("runtime.gc_cpu_fraction", "ratio", med(func(x *round) float64 { return ratio(x.rt.gcCPU, x.rt.totalCPU) }), nr)
	r.add("load.gen_late_ms_max", "ms", float64(lateMax)/float64(time.Millisecond), len(tr.muts))

	r.add("graph.vertices_start", "count", float64(tr.vStart), 1)
	r.add("graph.vertices_end", "count", float64(tr.vEnd), 1)
	r.add("graph.edges_start", "count", float64(tr.eStart), 1)
	r.add("graph.edges_end", "count", float64(tr.eEnd), 1)

	get := func(rep *report, name string) float64 {
		return rep.ms[slices.IndexFunc(rep.ms, func(m metric) bool { return m.name == name })].value
	}
	base, traced := endToEnd(rs), endToEnd([]*round{tr})
	ntr := len(tr.latencies())
	r.add("trace.query_qps", "1/s", get(traced, "query_qps"), ntr)
	r.add("trace.query_p50_ms", "ms", get(traced, "query_p50_ms"), ntr)
	r.add("trace.overhead_qps_pct", "%", 100*(1-ratio(get(traced, "query_qps"), get(base, "query_qps"))), ntr)
	r.add("trace.overhead_p50_ms", "ms", get(traced, "query_p50_ms")-get(base, "query_p50_ms"), ntr)
	return r
}
