// Command qbench is the repository's benchmark of record. It drives the
// Q-Graph engine in-process through its public Go API (core.Engine and
// serve.Server.Handler), checks every result against a single-threaded
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on its last line of output.
//
//	bash qbench/run.sh --workload read_miss --seed 1 --seconds 10 --trace 0
//
// README.md beside this file lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build/qbench"

// rounds is how many times a run sets up and measures a window on a fresh
// deployment; endToEnd reduces the rounds to one value per metric.
const rounds = 12

// workload is one traffic mix over the shared deployment.
type workload struct {
	name   string
	adapt  bool // Q-cut on
	writes bool // open-loop write stream and a WAL
	serve  bool // through serve.Server's handler
	// rate fixes the windows: a run completes rate × --seconds queries
	// (HTTP requests for serve_hot), split evenly over its rounds. A
	// count, not a duration, ends a window, so a faster engine does not
	// serve more queries and grow state that today scales with queries
	// served.
	rate float64
}

var workloads = []*workload{
	{name: "read_miss", rate: 576},
	{name: "read_adaptive", adapt: true, rate: 576},
	{name: "write_mixed", writes: true, rate: 576},
	{name: "serve_hot", serve: true, rate: 60000},
}

func main() {
	name := flag.String("workload", "", "read_miss | read_adaptive | write_mixed | serve_hot")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal window length; the window is rate × seconds queries")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed uint64, seconds int, traced bool) error {
	fmt.Printf("qbench workload=%s seed=%d seconds=%d trace=%v k=%d rounds=%d\n",
		w.name, seed, seconds, traced, workers, rounds)
	n := int(w.rate*float64(seconds)) / rounds
	var rs []*round
	attempted, failed := 0, 0
	for i := 0; i < rounds; i++ {
		r, err := runRound(w, roundSeed(seed, i), n, "")
		if err != nil {
			return err
		}
		rs = append(rs, r)
		attempted += r.attempted
		failed += r.failed
		fmt.Printf("round %d:", i)
		for _, m := range endToEnd([]*round{r}).ms {
			fmt.Printf(" %s=%.4g", m.name, m.value)
		}
		fmt.Println()
	}
	e2e := endToEnd(rs)
	fmt.Println("end-to-end (tracing off; n counts samples over all rounds):")
	e2e.print()
	// Not in the result line: commit_p99_ms spreads too widely between
	// runs on a shared 2-core host to carry a bound, so it is a per-layer
	// metric; fail_ratio is 0 on a correct run and travels as "failed".
	extra := &report{}
	p99, n99 := commitP99(rs)
	extra.add("commit_p99_ms", "ms", p99, n99)
	extra.add("fail_ratio", "-", ratio(float64(failed), float64(attempted)), attempted)
	extra.print()
	out := e2e
	if traced {
		dir := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d", w.name, seed))
		tr, err := runRound(w, roundSeed(seed, 0), n, dir)
		if err != nil {
			return err
		}
		attempted += tr.attempted
		failed += tr.failed
		out = layers(rs, tr)
		fmt.Println("per-layer (traced round, with the untraced rounds for set-up, runtime and overhead):")
		out.print()
		tr.spans.printSummary()
	}
	line, err := out.json(attempted, failed)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// roundSeed derives round i's input seed, so the rounds of one run draw
// different queries and writes.
func roundSeed(seed uint64, i int) uint64 { return seed*0x9e3779b97f4a7c15 + uint64(i) }
