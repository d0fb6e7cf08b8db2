package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// query, mutation batch or HTTP request share Trace; Parent is the span
// that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so the untraced pass calls the same code.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	next   uint64
	buf    []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// id reserves a span id, so a root can be named as parent before it ends
// (0 on a nil log).
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// record stores a finished span under an id from l.id.
func (l *spanLog) record(id, trace, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)),
	})
}

// add records a finished span under a fresh id.
func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) {
	l.record(l.id(), trace, parent, name, start, end)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.buf {
		if err := enc.Encode(&l.buf[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints, per span name, the count, mean duration and mean
// self time (duration minus the part its child spans cover).
func (l *spanLog) printSummary() {
	l.mu.Lock()
	defer l.mu.Unlock()
	childNS := make(map[uint64]int64)
	for _, s := range l.buf {
		if s.Parent != 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	type agg struct{ n, total, self int64 }
	by := map[string]*agg{}
	for _, s := range l.buf {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += max(0, d-childNS[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("  spans (name, count, mean us, mean self us):")
	for _, n := range names {
		a := by[n]
		fmt.Printf("    %-32s %9d %12.1f %12.1f\n", n, a.n,
			float64(a.total)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3)
	}
}
