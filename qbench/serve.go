package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/query"
	"qgraph/internal/serve"
)

const (
	// poolSize queries make serve_hot's pool; it fits the result cache
	// (default 4096 entries), so the window is answered from the cache.
	poolSize = 256
	// callers synchronous closed-loop callers drive serve_hot.
	callers = 2
	// zipfS skews serve_hot's requests over the pool.
	zipfS = 1.1
	// fillParallel requests fill the cache at once during set-up.
	fillParallel = 16
	// httpSpanEvery samples one ServeHTTP span in this many requests.
	httpSpanEvery = 32
)

// poolEntry is one cached query: its request body, the value the engine
// answered while filling the cache, and that value as it appears in a
// response body, with the comma that ends the field (supersteps always
// follows it), so a longer number does not match.
type poolEntry struct {
	spec  query.Spec
	body  []byte
	value *float64
	want  []byte
}

// fillCache builds the pool from the seed's spec stream and asks each
// query once through ServeHTTP, fillParallel at a time, recording the
// engine's answers.
func (d *deployment) fillCache(seed uint64) error {
	specs := newSpecStream(d.net, seed, 0)
	d.pool = make([]poolEntry, poolSize)
	for i := range d.pool {
		sp := specs.next()
		req := serve.QueryRequest{Kind: sp.Kind.String(), Source: int64(sp.Source)}
		if sp.Target != graph.NilVertex {
			t := int64(sp.Target)
			req.Target = &t
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		d.pool[i] = poolEntry{spec: sp, body: body}
	}
	var wg sync.WaitGroup
	errs := make([]error, fillParallel)
	for c := 0; c < fillParallel; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(d.pool); i += fillParallel {
				e := &d.pool[i]
				rec := httptest.NewRecorder()
				d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(e.body)))
				var resp serve.QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					errs[c] = fmt.Errorf("fill %s: HTTP %d: %s", e.body, rec.Code, rec.Body.Bytes())
					return
				}
				e.value = resp.Value
				v, err := json.Marshal(resp.Value)
				if err != nil {
					errs[c] = err
					return
				}
				e.want = append(append([]byte(`"value":`), v...), ',')
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveResult is serve_hot's window.
type serveResult struct {
	lats    []time.Duration
	failed  int
	elapsed time.Duration
}

// serveWindow sends n requests from callers goroutines, each a closed loop
// of synchronous ServeHTTP calls Zipf-skewed over the pool. Every response
// must be 200 and carry the value the engine gave while filling the cache.
func (d *deployment) serveWindow(n int, seed uint64, spans *spanLog) serveResult {
	per := n / callers
	lats := make([][]time.Duration, callers)
	failed := make([]int, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := rand.NewZipf(rand.New(rand.NewPCG(seed, uint64(c))), zipfS, 1, poolSize-1)
			ls := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				e := &d.pool[z.Uint64()]
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(e.body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				d.h.ServeHTTP(rec, req)
				t1 := time.Now()
				ls = append(ls, t1.Sub(t0))
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), e.want) {
					failed[c]++
				}
				if i%httpSpanEvery == 0 {
					spans.add(uint64(c*per+i+1), 0, "serve.http", t0, t1)
				}
			}
			lats[c] = ls
		}()
	}
	wg.Wait()
	r := serveResult{elapsed: time.Since(start)}
	for c := range lats {
		r.lats = append(r.lats, lats[c]...)
		r.failed += failed[c]
	}
	return r
}

// checkPool compares the engine's answers for the pool with the reference.
func checkPool(g *graph.Graph, pool []poolEntry) int {
	failed := 0
	for _, e := range pool {
		got := query.NoResult
		if e.value != nil {
			got = *e.value
		}
		if !sameValue(got, reference(g, e.spec)) {
			failed++
		}
	}
	return failed
}
