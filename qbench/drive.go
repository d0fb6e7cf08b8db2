package main

import (
	"reflect"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/query"
	roadload "qgraph/internal/workload"
)

const (
	// parallel queries stay in flight: the paper's batch of 16.
	parallel = 16
	// writeEvery is write_mixed's open-loop schedule: 200 batches/s of
	// batchOps ops, well below what the commit path sustains. The writer
	// runs from the window's start until its last query returns, so every
	// batch commits beside reads.
	writeEvery = 5 * time.Millisecond
	// pollEvery is how often the read loop samples Engine.MVCCStats.
	pollEvery = 10 * time.Millisecond
	// poiEvery: one query in this many is a POI query, the rest SSSP.
	poiEvery = 4
)

// specStream draws the read workload: workload.RoadGen hotspot SSSP and
// POI specs in a fixed mix, numbered from base so streams can share an
// engine.
type specStream struct {
	gen  *roadload.RoadGen
	n    int
	base query.ID
}

func newSpecStream(net *gen.RoadNet, seed uint64, base query.ID) *specStream {
	return &specStream{gen: roadload.NewRoadGen(net, seed), base: base}
}

func (s *specStream) next() query.Spec {
	var sp query.Spec
	if s.n%poiEvery == poiEvery-1 {
		sp = s.gen.POI()
	} else {
		sp = s.gen.SSSP()
	}
	s.n++
	sp.ID = s.base + query.ID(s.n)
	return sp
}

// qrec is one query the harness scheduled.
type qrec struct {
	spec  query.Spec
	start time.Time
	sched time.Duration // time inside Engine.Schedule
	lat   time.Duration // Schedule call to result receipt
	res   controller.Result
	err   error
}

// mutRec is one mutation batch the harness submitted.
type mutRec struct {
	ops  []delta.Op
	due  time.Time     // open loop: when it was due; closed loop: the call
	late time.Duration // how late the submission ran
	lat  time.Duration // due time to MutationResult
	res  controller.MutationResult
	err  error
}

// window is what one driven phase produced.
type window struct {
	queries []qrec
	muts    []mutRec
	elapsed time.Duration // first Schedule to last query result

	versionsLiveMax, sealedMax int
	workerLagMax               uint64
}

// slot says what a select case waits for: query index q, or mutation m.
type slot struct{ q, m int }

// drive runs n queries closed-loop with parallel in flight from this one
// goroutine: every in-flight query and write batch is a channel in one
// reflect.Select. On a write workload an open-loop writer submits one
// batch every writeEvery until the last query returns; the batches still
// in flight then are awaited, but no batch is due after the reads end.
func (d *deployment) drive(specs *specStream, n int, spans *spanLog) *window {
	w := &window{queries: make([]qrec, 0, n)}
	timer := time.NewTimer(pollEvery)
	defer timer.Stop()
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}}
	slots := []slot{{-1, -1}}
	var roots []uint64 // root span per query (traced pass)
	scheduled, inflightQ, inflightM := 0, 0, 0
	start := time.Now()
	nextDue, nextPoll := start, start.Add(pollEvery)
	writing := d.w.writes
	for {
		for inflightQ < parallel && scheduled < n {
			spec := specs.next()
			t0 := time.Now()
			h, err := d.eng.Schedule(spec)
			t1 := time.Now()
			scheduled++
			root := spans.id()
			spans.add(uint64(spec.ID), root, "engine.schedule", t0, t1)
			roots = append(roots, root)
			w.queries = append(w.queries, qrec{spec: spec, start: t0, sched: t1.Sub(t0), err: err})
			if err != nil {
				continue
			}
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(h.Done())})
			slots = append(slots, slot{q: len(w.queries) - 1, m: -1})
			inflightQ++
		}
		for now := time.Now(); writing && !nextDue.After(now); now = time.Now() {
			m := mutRec{ops: d.churn.next(), due: nextDue, late: now.Sub(nextDue)}
			ch, err := d.eng.Mutate(m.ops)
			m.err = err
			w.muts = append(w.muts, m)
			if err == nil {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
				slots = append(slots, slot{q: -1, m: len(w.muts) - 1})
				inflightM++
			}
			nextDue = nextDue.Add(writeEvery)
		}
		if scheduled == n && inflightQ == 0 && inflightM == 0 {
			break
		}
		wake := nextPoll
		if writing && nextDue.Before(wake) {
			wake = nextDue
		}
		timer.Reset(time.Until(wake))
		i, v, _ := reflect.Select(cases)
		now := time.Now()
		if i == 0 {
			if !now.Before(nextPoll) {
				st := d.eng.MVCCStats()
				w.versionsLiveMax = max(w.versionsLiveMax, st.Live)
				w.sealedMax = max(w.sealedMax, int(st.SealedInFlight))
				w.workerLagMax = max(w.workerLagMax, st.MaxWorkerLag)
				nextPoll = now.Add(pollEvery)
			}
			continue
		}
		s := slots[i]
		last := len(cases) - 1
		cases[i], slots[i] = cases[last], slots[last]
		cases, slots = cases[:last], slots[:last]
		if s.q >= 0 {
			q := &w.queries[s.q]
			q.res = v.Interface().(controller.Result)
			q.lat = now.Sub(q.start)
			spans.add(uint64(q.spec.ID), roots[s.q], "engine.exec", q.start.Add(q.sched), now)
			spans.record(roots[s.q], uint64(q.spec.ID), 0, "query", q.start, now)
			inflightQ--
			if scheduled == n && inflightQ == 0 {
				w.elapsed = now.Sub(start)
				writing = false
			}
			continue
		}
		m := &w.muts[s.m]
		m.res = v.Interface().(controller.MutationResult)
		m.lat = now.Sub(m.due)
		spans.add(uint64(s.m+1), 0, "engine.mutate", m.due, now)
		inflightM--
	}
	d.keep(w.muts)
	return w
}

// keep appends the acknowledged batches, in submission order, to the
// replay check's input.
func (d *deployment) keep(muts []mutRec) {
	for _, m := range muts {
		if m.err == nil && m.res.Err == nil {
			d.batches = append(d.batches, m.ops)
			d.noops = append(d.noops, m.res.NoOps)
		}
	}
}

// probeBatches write batches follow the window of every workload without
// its own writes, so commit latency is measured on each. probeDepth
// batches stay in flight, so the commit path, not an idle core waking up,
// sets the latency.
const (
	probeBatches = 400
	probeDepth   = 4
)

// commitProbe submits probeBatches batches closed-loop, probeDepth at a
// time, on the otherwise idle engine, timing each from the Mutate call to
// its MutationResult. Batches commit in submission order, so the probe
// waits on the oldest.
func (d *deployment) commitProbe(spans *spanLog) []mutRec {
	muts := make([]mutRec, 0, probeBatches)
	var chans []<-chan controller.MutationResult
	for done := 0; done < probeBatches; {
		if len(muts) < probeBatches && len(muts)-done < probeDepth {
			m := mutRec{ops: d.churn.next(), due: time.Now()}
			ch, err := d.eng.Mutate(m.ops)
			m.err = err
			muts = append(muts, m)
			chans = append(chans, ch)
			continue
		}
		m := &muts[done]
		if m.err == nil {
			m.res = <-chans[done]
		}
		now := time.Now()
		m.lat = now.Sub(m.due)
		spans.add(uint64(done+1), 0, "engine.mutate", m.due, now)
		done++
	}
	d.keep(muts)
	return muts
}
