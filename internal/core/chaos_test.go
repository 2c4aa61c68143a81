package core

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/shuffle"
)

// TestMasterChaosRecovery repeatedly crashes and recovers the master at
// arbitrary points during a clone-heavy job (worker completions, merge
// scheduling, rename adoption may all be mid-flight). Every recovered
// master rebuilds from the work bags; the job must still produce the
// exact answer without double-executing work.
func TestMasterChaosRecovery(t *testing.T) {
	for round := 0; round < 3; round++ {
		func() {
			cfg := testClusterConfig()
			cfg.Master.CloneInterval = 2 * time.Millisecond
			cfg.Node.MonitorInterval = 2 * time.Millisecond
			cfg.Master.Policies = []ctrl.Policy{&ctrl.ForceClones{}}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()

			const n = 60000
			var processed atomic.Int64
			app := sumApp(&processed)
			loadInts(t, ctx, cluster.Store(), "in", n)
			if err := cluster.Start(ctx, app); err != nil {
				t.Fatal(err)
			}

			// Each master counts only its own clones.
			var fired MasterStats
			tally := func() { fired.Clones += cluster.Master().Stats().Clones }
			// Kill and recover the master three times at staggered points.
			for k := 0; k < 3; k++ {
				target := int64(n) * int64(k+1) / 5
				for processed.Load() < target {
					select {
					case <-cluster.Master().Done():
						// Job finished early; nothing left to crash.
						k = 3
						target = 0
					default:
					}
					if target == 0 || ctx.Err() != nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if k >= 3 {
					break
				}
				tally()
				cluster.Job(app.Name()).CrashMaster()
				time.Sleep(3 * time.Millisecond)
				cluster.Job(app.Name()).RecoverMaster(ctx)
			}

			if err := cluster.Wait(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			tally()
			requireClones(t, fired, false)
			want := int64(n) * (n - 1) / 2
			if got := readSum(t, ctx, cluster.Store()); got != want {
				t.Fatalf("round %d: sum = %d, want %d (processed %d)",
					round, got, want, processed.Load())
			}
			// Master crashes alone never restart tasks, so every record is
			// processed exactly once.
			if processed.Load() != n {
				t.Errorf("round %d: processed %d, want exactly %d", round, processed.Load(), n)
			}
		}()
	}
}

// TestCombinedChaos injects a master crash AND a compute-node crash in the
// same run: the master is crashed as soon as it has declared the silent
// node dead, so its recovery may be cut short, and the recovered master
// must re-run it from the work bags.
func TestCombinedChaos(t *testing.T) {
	t.Parallel()
	cfg := testClusterConfig()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 60000
	var processed atomic.Int64
	// No copy worker finishes before the crash, so the victim still holds
	// work when it dies.
	gate := make(chan struct{})
	app := gatedSumApp(&processed, gate)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if err := cluster.CrashComputeNode(runningNode(t, ctx, cluster.Master(), "copy")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitFor(t, ctx, "the silent node declared dead", func() bool { return cluster.Master().Stats().Recoveries > 0 })
	cluster.Job(app.Name()).CrashMaster()
	time.Sleep(5 * time.Millisecond)
	cluster.Job(app.Name()).RecoverMaster(ctx)

	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestMasterAndNodeCrashTogether: a compute node that holds work and the
// master crash in the same instant, before the master's detection pass
// could see the node's silence. The successor knows only what the work
// bags say: their running records name the node, which never beats again,
// so the successor declares it dead itself, and the job still matches the
// serial answer.
func TestMasterAndNodeCrashTogether(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 60000
	var processed atomic.Int64
	// No copy worker finishes before the crash, so the victim still holds
	// work when it dies.
	gate := make(chan struct{})
	app := gatedSumApp(&processed, gate)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	h := cluster.Job(app.Name())
	victim := runningNode(t, ctx, h.Master(), "copy")
	h.CrashMaster()
	if err := cluster.CrashComputeNode(victim); err != nil {
		t.Fatal(err)
	}
	m := h.RecoverMaster(ctx)
	close(gate)
	waitFor(t, ctx, "the successor to declare the node dead", func() bool { return m.Stats().Recoveries > 0 })
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestNamespacedMasterRecovery crashes and recovers the master of a
// namespaced job — not the cluster's Raw submission — while a second job
// runs beside it: crash/recover is a property of the job handle, the
// neighbour is undisturbed, both produce the serial answer with every
// record processed once, and the cluster's goroutines are gone after
// Shutdown.
func TestNamespacedMasterRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}

	const n = 30000
	var procA, procB atomic.Int64
	ha, err := cluster.SubmitJob(ctx, sumApp(&procA), JobConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := cluster.SubmitJob(ctx, sumApp(&procB), JobConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Master() != nil {
		t.Fatal("Cluster.Master() names a namespaced job's master")
	}
	loadInts(t, ctx, cluster.Store(), ha.Bag("in"), n)
	loadInts(t, ctx, cluster.Store(), hb.Bag("in"), n)
	for procA.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	crashed := ha.Master()
	ha.CrashMaster()
	// Compute nodes keep draining both jobs' ready bags during the outage.
	time.Sleep(10 * time.Millisecond)
	if m := ha.RecoverMaster(ctx); m == nil || m == crashed || ha.Master() != m {
		t.Fatalf("RecoverMaster = %p, crashed %p, handle now %p", m, crashed, ha.Master())
	}
	want := int64(n) * (n - 1) / 2
	for _, j := range []struct {
		h    *JobHandle
		proc *atomic.Int64
	}{{ha, &procA}, {hb, &procB}} {
		if err := j.h.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.h.ID(), err)
		}
		if got := readSumBag(t, ctx, cluster.Store(), j.h.Bag("out")); got != want {
			t.Errorf("job %s: sum = %d, want %d", j.h.ID(), got, want)
		}
		if j.proc.Load() != n {
			t.Errorf("job %s: processed %d records, want exactly %d", j.h.ID(), j.proc.Load(), n)
		}
	}
	if m := hb.RecoverMaster(ctx); m != nil {
		t.Error("RecoverMaster started a master for a finished job")
	}

	cluster.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Shutdown:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEdgeMemorySurvivesMasterRecovery: an edge's statistics travel in its
// producers' done records, so a master recovered after the edge sealed
// rebuilds them by replaying the done bag. After Wait its record of the
// edge counts every record on the leaf it went to, and the hot key, three
// records in four, leads the heavy candidates.
func TestEdgeMemorySurvivesMasterRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	app := slowGroupApp(&processed, 5_000)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	// The consumer starts once the edge seals: the crash comes after it.
	for processed.Load() < n/4 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if processed.Load() == n {
		t.Fatal("the consumer finished before the crash")
	}
	h := cluster.Job(app.Name())
	h.CrashMaster()
	m := h.RecoverMaster(ctx)
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := readSumBag(t, ctx, cluster.Store(), "out"), int64(n)*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}

	want := make(map[string]uint64)
	pm := shuffle.BaseMap("shuf", 2)
	for v := int64(0); v < n; v++ {
		key := int64(0)
		if v%4 == 3 {
			key = 1 + v%64
		}
		want[pm.Route(chunk.Int64Codec{}.Encode(nil, key), 0)]++
	}
	stats := m.EdgeMemory()["shuf"].Stats
	if stats == nil {
		t.Fatal("the recovered master has no statistics for the sealed edge")
	}
	if !maps.Equal(stats.Counts, want) {
		t.Fatalf("edge record counts %v, want %v", stats.Counts, want)
	}
	hot := chunk.Int64Codec{}.Encode(nil, 0)
	if len(stats.Heavy) == 0 || !bytes.Equal(stats.Heavy[0].Key, hot) {
		t.Fatalf("heavy candidates %v, want key 0 first", stats.Heavy)
	}
}
