package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
			cfg.Master.StorageBandwidth = math.Inf(1)
			cfg.Master.CloneInterval = 2 * time.Millisecond
			cfg.Node.MonitorInterval = 2 * time.Millisecond
			cfg.Node.OverloadThreshold = 0.01
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
				if err := cluster.Job(app.Name()).CrashMaster(); err != nil {
					t.Fatal(err)
				}
				time.Sleep(3 * time.Millisecond)
				cluster.Job(app.Name()).RecoverMaster(ctx)
			}

			if err := cluster.Wait(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
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
// same run; the recovered master must pick up the in-flight recovery state
// from the work bags.
func TestCombinedChaos(t *testing.T) {
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
	app := sumApp(&processed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Start(ctx, app); err != nil {
		t.Fatal(err)
	}
	for processed.Load() < n/10 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	// Crash a compute node, recover it via the master, then immediately
	// crash the master before the restarted task can get far.
	if err := cluster.CrashComputeNode("compute-2", true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if err := cluster.Job(app.Name()).CrashMaster(); err != nil {
		t.Fatal(err)
	}
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
	loadIntsBag(t, ctx, cluster.Store(), ha.Bag("in"), n)
	loadIntsBag(t, ctx, cluster.Store(), hb.Bag("in"), n)
	for procA.Load() < n/10 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for progress")
		}
		time.Sleep(time.Millisecond)
	}
	crashed := ha.Master()
	if err := ha.CrashMaster(); err != nil {
		t.Fatal(err)
	}
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
