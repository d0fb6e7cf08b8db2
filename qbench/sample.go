package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"qgraph/internal/wal"
)

// runtimeSample is the process's cost so far: heap allocations, CPU time
// and the runtime's CPU accounting (GC and total available).
type runtimeSample struct {
	mallocs         uint64
	cpu             time.Duration
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, cpu: cpu, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		mallocs: a.mallocs - b.mallocs, cpu: a.cpu - b.cpu,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

// walDelta is the WAL's work between two Engine.WALStats readings.
type walDelta struct {
	appends, bytes, fsyncs, appendErrors int64
	fsyncMeanUS                          int64 // over the engine's life
}

func walDeltaOf(a, b wal.Stats) walDelta {
	return walDelta{
		appends: b.Appends - a.Appends, bytes: b.AppendedBytes - a.AppendedBytes,
		fsyncs: b.Fsyncs - a.Fsyncs, appendErrors: b.AppendErrors - a.AppendErrors,
		fsyncMeanUS: b.MeanFsyncUS,
	}
}

// serveCounters are the serving counters the per-layer metrics use.
type serveCounters struct {
	received, hits, rejected, waitNS, waits int64
}

func (d *deployment) serveCounters() serveCounters {
	if d.srv == nil {
		return serveCounters{}
	}
	c := d.srv.Counters()
	return serveCounters{
		received: c.Received.Load(), hits: c.CacheHits.Load(), rejected: c.Rejected.Load(),
		waitNS: c.QueueWaitNanos.Load(), waits: c.QueueWaits.Load(),
	}
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{
		received: a.received - b.received, hits: a.hits - b.hits, rejected: a.rejected - b.rejected,
		waitNS: a.waitNS - b.waitNS, waits: a.waits - b.waits,
	}
}

// liveHeapMiB forces a GC and returns the heap it found live.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
