package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/partition"
	"qgraph/internal/serve"
	"qgraph/internal/transport"
)

const (
	// workers is k; it matches the 2 cores the benchmark was sized on.
	workers = 2
	// graphScale selects gen.BWConfig(64): 27,889 vertices, 105,562 edges.
	graphScale = 64
	// warmQueries untimed queries end every set-up (16 in flight).
	warmQueries = 32
)

// setupTimes splits one set-up by layer; start runs from the network to
// the end of the detour fill, total includes the warm-up.
type setupTimes struct {
	gen, assign, start, total time.Duration
}

// deployment is one engine under test with what the harness keeps about
// it: the network (counting only in the traced pass), the optional WAL
// directory and HTTP front-end, and the write generator.
type deployment struct {
	w      *workload
	net    *gen.RoadNet
	tcp    *transport.TCPNetwork
	counts *countingNet
	eng    *core.Engine
	srv    *serve.Server
	h      http.Handler
	walDir string
	churn  *churn
	pool   []poolEntry
	times  setupTimes

	// Every batch the engine acknowledged, in submission order, with the
	// no-op count it reported: the replay check's input.
	batches [][]delta.Op
	noops   []int
}

// deploy builds the graph, partitions it, starts the engine over loopback
// TCP (wrapped by the counting network when spans is non-nil) and, unless
// warm is false, runs the workload's untimed warm-up.
func deploy(w *workload, seed uint64, warm bool, spans *spanLog) (*deployment, *window, error) {
	d := &deployment{w: w}
	t0 := time.Now()
	net, err := gen.Road(gen.BWConfig(graphScale))
	if err != nil {
		return nil, nil, fmt.Errorf("gen.Road: %w", err)
	}
	d.net = net
	t1 := time.Now()
	assign, err := partition.Hash{}.Partition(net.G, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	t2 := time.Now()
	if d.tcp, err = transport.NewTCPNetwork(workers + 1); err != nil {
		return nil, nil, fmt.Errorf("tcp network: %w", err)
	}
	var network transport.Network = d.tcp
	if spans != nil {
		d.counts = newCountingNet(d.tcp, spans)
		network = d.counts
	}
	cfg := core.Config{
		Workers: workers, Graph: net.G, Assignment: assign, Network: network,
		Adapt: w.adapt,
		// Staged writes seal at once (a batch is batchOps ops); while no
		// write is staged these two settings do nothing.
		CommitEvery: time.Millisecond, MaxBatchOps: batchOps,
	}
	if w.writes {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			d.close()
			return nil, nil, err
		}
		if d.walDir, err = os.MkdirTemp(buildDir, "wal-"); err != nil {
			d.close()
			return nil, nil, err
		}
		cfg.WALDir = d.walDir
	}
	if d.eng, err = core.Start(cfg); err != nil {
		d.close()
		return nil, nil, fmt.Errorf("core.Start: %w", err)
	}
	d.churn = newChurn(net.G, seed^0x5bd1e995)
	if w.serve {
		d.srv, err = serve.New(serve.Config{
			Backend: d.eng.Controller(), GraphID: 1,
			CacheTTL: time.Hour,
		})
		if err != nil {
			d.close()
			return nil, nil, fmt.Errorf("serve.New: %w", err)
		}
		d.h = d.srv.Handler()
	}
	if w.writes {
		if err := d.fillDetours(); err != nil {
			d.close()
			return nil, nil, err
		}
	}
	t3 := time.Now()
	var ww *window
	if warm {
		if w.serve {
			err = d.fillCache(seed)
		} else {
			ww = d.drive(newSpecStream(net, seed^0x9e3779b97f4a7c15, 1<<40), warmQueries, nil)
		}
		if err != nil {
			d.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	d.times = setupTimes{gen: t1.Sub(t0), assign: t2.Sub(t1), start: t3.Sub(t2), total: time.Since(t0)}
	return d, ww, nil
}

// close stops the engine, the network it does not own, and removes the
// WAL directory.
func (d *deployment) close() error {
	var errs []error
	if d.srv != nil {
		errs = append(errs, d.srv.Drain(context.Background()))
	}
	if d.eng != nil {
		errs = append(errs, d.eng.Close())
	}
	if d.tcp != nil {
		errs = append(errs, d.tcp.Close())
	}
	if d.walDir != "" {
		errs = append(errs, os.RemoveAll(d.walDir))
	}
	return errors.Join(errs...)
}

// fillDetours commits batches one at a time until churnPool detours are
// live, so the write stream is size-neutral from the first timed batch.
func (d *deployment) fillDetours() error {
	var muts []mutRec
	for len(d.churn.live) < churnPool {
		ops := d.churn.next()
		ch, err := d.eng.Mutate(ops)
		if err != nil {
			return fmt.Errorf("fill detours: %w", err)
		}
		res := <-ch
		if res.Err != nil {
			return fmt.Errorf("fill detours: %w", res.Err)
		}
		muts = append(muts, mutRec{ops: ops, res: res})
	}
	d.keep(muts)
	return nil
}
