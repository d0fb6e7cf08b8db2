package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/partition"
	"qgraph/internal/snapshot"
	"qgraph/internal/wal"
)

// Durable WAL end to end: a crashed engine restarted over the same
// snapshot + WAL directories recovers to the exact pre-crash committed
// version with identical query answers, including the nastiest edge — a
// batch fsynced to the WAL whose ack never reached its caller — and a
// torn final WAL record from a crash mid-append.

const walTestGraphID = 42

// startWALEngine builds an engine over the shared dirs, recovering from
// the newest snapshot (if any) before the WAL tail replays.
func startWALEngine(t *testing.T, snapDir, walDir string) *Engine {
	t.Helper()
	g, baseV := pathGraph(10), uint64(0)
	if snap, err := snapshot.LoadLatest(snapDir); err != nil {
		t.Fatal(err)
	} else if snap != nil {
		g, baseV = snap.Graph, snap.Version
	}
	cfg := Config{
		Workers: 2, Graph: g, Partitioner: partition.Hash{},
		SnapshotDir: snapDir, BaseVersion: baseV,
		WALDir: walDir, WALGraphID: walTestGraphID,
	}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWALRestartRecoversExactVersion is the tentpole acceptance at
// library level: commit → checkpoint → commit more → crash between the
// WAL fsync and the barrier ack → restart. The restarted engine must sit
// at the last durable version (including the never-acknowledged batch),
// answer queries identically to a never-crashed control run, and continue
// the version chain.
func TestWALRestartRecoversExactVersion(t *testing.T) {
	defer faultpoint.Reset()
	snapDir, walDir := t.TempDir(), t.TempDir()

	// Control run: the same batches, no crash.
	ctl, err := Start(func() Config {
		c := Config{Workers: 2, Graph: pathGraph(10), Partitioner: partition.Hash{}}
		fastCommit(&c)
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	shortcut := []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 9, Weight: 1.5}}
	second := []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 5, Weight: 0.25}}
	third := []delta.Op{{Kind: delta.OpSetWeight, From: 0, To: 9, Weight: 1.25}}
	mutate(t, ctl, shortcut)
	mutate(t, ctl, second)
	mutate(t, ctl, third)
	want := sssp(t, ctl, 900, 0, 9)
	if want != 1.25 {
		t.Fatalf("control distance %g, want 1.25", want)
	}

	// Crash run: version 1 committed and checkpointed, version 2 in the
	// WAL only, version 3 fsynced but the engine dies before the ack.
	eng := startWALEngine(t, snapDir, walDir)
	mutate(t, eng, shortcut)
	if res, err := eng.ForceSnapshot(); err != nil || !res.Persisted {
		t.Fatalf("checkpoint = %+v, %v", res, err)
	}
	mutate(t, eng, second)

	disarm := faultpoint.Arm(faultpoint.WALAppend, func(...int) bool { return true })
	ch, err := eng.Mutate(third)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if res.Err == nil {
			t.Fatalf("crashed commit acknowledged cleanly: %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("crashed commit never resolved")
	}
	disarm()
	if err := eng.Close(); !errors.Is(err, faultpoint.ErrKilled) {
		t.Fatalf("engine close = %v, want the injected kill", err)
	}

	// The WAL holds versions 2 and 3 beyond the checkpoint at 1.
	tail, err := wal.ReadTail(walDir, walTestGraphID, 1)
	if err != nil || len(tail) != 2 || tail[1].Version != 3 {
		t.Fatalf("wal tail = %+v, %v; want versions 2,3", tail, err)
	}

	// Restart over the same directories: exact pre-crash version, same
	// answers as the never-crashed control, version chain continues.
	eng2 := startWALEngine(t, snapDir, walDir)
	defer eng2.Close()
	if v := eng2.GraphVersion(); v != 3 {
		t.Fatalf("recovered version %d, want 3 (the fsynced-but-unacked batch must survive)", v)
	}
	if _, baseV := eng2.GraphBase(); baseV != 3 {
		t.Fatalf("recovered base version %d, want 3", baseV)
	}
	if got := sssp(t, eng2, 901, 0, 9); got != want {
		t.Fatalf("post-restart distance %g, control %g", got, want)
	}
	if res := mutate(t, eng2, []delta.Op{{Kind: delta.OpAddVertex}}); res.Version != 4 {
		t.Fatalf("post-restart commit landed at version %d, want 4", res.Version)
	}
	if st := eng2.WALStats(); !st.Enabled || st.HeadVersion != 4 {
		t.Fatalf("wal stats after restart: %+v", st)
	}
}

// TestWALTornTailRestart: a crash mid-append leaves a torn final record;
// the restart recovers the intact prefix — the exact committed state,
// since a torn record's batch was never acknowledged.
func TestWALTornTailRestart(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	eng := startWALEngine(t, snapDir, walDir)
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 9, Weight: 1.5}})
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 5, Weight: 0.25}})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the head segment.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.qlog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	head := segs[len(segs)-1]
	raw, err := os.ReadFile(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(head, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	eng2 := startWALEngine(t, snapDir, walDir)
	defer eng2.Close()
	if v := eng2.GraphVersion(); v != 1 {
		t.Fatalf("recovered version %d, want 1 (torn record dropped)", v)
	}
	if got := sssp(t, eng2, 902, 0, 9); got != 1.5 {
		t.Fatalf("post-repair distance %g, want 1.5", got)
	}
	// The repaired chain keeps accepting commits.
	if res := mutate(t, eng2, []delta.Op{{Kind: delta.OpAddVertex}}); res.Version != 2 {
		t.Fatalf("commit after repair at version %d, want 2", res.Version)
	}
}

// TestSnapshotCutRunsOffTheBarrier: while the background cutter is
// blocked mid-cut, commits keep completing — the O(V+E) fold never sits
// inside the commit path.
func TestSnapshotCutRunsOffTheBarrier(t *testing.T) {
	defer faultpoint.Reset()
	g := pathGraph(10)
	cfg := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}, SnapshotDir: t.TempDir()}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mutate(t, eng, neutralOps(4))

	// Stall the cutter indefinitely; SnapshotCut fires on its goroutine.
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	disarm := faultpoint.Arm(faultpoint.SnapshotCut, func(...int) bool {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
		return false
	})
	defer disarm()
	resCh := make(chan snapshot.Result, 1)
	go func() {
		res, err := eng.ForceSnapshot()
		if err == nil {
			resCh <- res
		}
	}()
	// Wait until the cut actually pinned its view and blocked — pipelined
	// commits are fast enough to win the race against the request
	// otherwise, which would pin a later version.
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("cutter never started")
	}

	// Commits must keep flowing while the cut is stuck (any of them
	// hanging fails the test via mutate's own timeout).
	for i := 0; i < 3; i++ {
		mutate(t, eng, neutralOps(2))
	}
	select {
	case res := <-resCh:
		t.Fatalf("cut completed while the cutter was blocked: %+v", res)
	default:
	}

	close(block)
	select {
	case res := <-resCh:
		if !res.Cut || !res.Persisted {
			t.Fatalf("released cut = %+v", res)
		}
		// The cut pinned the pre-block version; the commits that ran
		// meanwhile stayed in the log (truncation only covers the pin).
		if res.Version != 1 {
			t.Fatalf("cut pinned version %d, want 1", res.Version)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("released cut never completed")
	}
	if st := eng.SnapshotStats(); st.DeltaLogOps != 6 {
		t.Fatalf("retained ops %d, want the 6 committed during the cut", st.DeltaLogOps)
	}
}

// TestWALNotTruncatedByMemoryOnlySnapshots: a cut into a memory-only
// snapshot store (WALDir set, SnapshotDir empty) must never truncate the
// durable log — the snapshot dies with the process, so the WAL is the
// only restart substrate and must keep reaching back to the base.
func TestWALNotTruncatedByMemoryOnlySnapshots(t *testing.T) {
	walDir := t.TempDir()
	cfg := Config{
		Workers: 2, Graph: pathGraph(10), Partitioner: partition.Hash{},
		WALDir: walDir, WALGraphID: walTestGraphID,
	}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 9, Weight: 1.5}})
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 5, Weight: 0.25}})
	if res, err := eng.ForceSnapshot(); err != nil || !res.Cut || res.Persisted {
		t.Fatalf("memory-only cut = %+v, %v", res, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Every batch must still be replayable from version 0.
	tail, err := wal.ReadTail(walDir, walTestGraphID, 0)
	if err != nil || len(tail) != 2 {
		t.Fatalf("wal tail after memory-only cut = %d batches, %v (truncated past a non-durable snapshot?)", len(tail), err)
	}
	eng2 := startWALEngine(t, t.TempDir(), walDir)
	defer eng2.Close()
	if v := eng2.GraphVersion(); v != 2 {
		t.Fatalf("restart recovered version %d, want 2", v)
	}
	if got := sssp(t, eng2, 903, 0, 9); got != 1.5 {
		t.Fatalf("post-restart distance %g, want 1.5", got)
	}
}

// TestFailedPersistRetryableAtSameVersion: a cut whose durable write
// failed must be retryable at the same version — the operator forcing a
// snapshot again after fixing the disk gets a real cut, not a Cut=false
// no-op behind which nothing is durable.
func TestFailedPersistRetryableAtSameVersion(t *testing.T) {
	defer faultpoint.Reset()
	cfg := Config{
		Workers: 2, Graph: pathGraph(10), Partitioner: partition.Hash{},
		SnapshotDir: t.TempDir(),
	}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mutate(t, eng, neutralOps(8))

	disarm := faultpoint.Arm(faultpoint.SnapshotPersist, func(...int) bool { return true })
	res, err := eng.ForceSnapshot()
	disarm()
	if err != nil || !res.Cut || res.Persisted || res.TruncatedOps != 0 {
		t.Fatalf("failing-persist cut = %+v, %v", res, err)
	}

	// Same version, disk healthy again: the retry must cut for real.
	res, err = eng.ForceSnapshot()
	if err != nil || !res.Cut || !res.Persisted || res.TruncatedOps != 8 {
		t.Fatalf("retry at same version = %+v, %v; want a durable cut", res, err)
	}
	if snap, err := snapshot.LoadLatest(cfg.SnapshotDir); err != nil || snap == nil || snap.Version != res.Version {
		t.Fatalf("retried cut not on disk: %+v, %v", snap, err)
	}
}
