package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report collects metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.ms = append(r.ms, metric{name: name, unit: unit, value: value, n: n})
}

// print writes one human-readable line per metric.
func (r *report) print() {
	for _, m := range r.ms {
		fmt.Printf("  %-36s %16.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) json(attempted, failed int) ([]byte, error) {
	out := resultLine{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(r.ms)),
	}
	for _, m := range r.ms {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(out)
}
