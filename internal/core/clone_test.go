package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrl"
)

// TestSpeculativeOffByDefault: no overload signal, no clone. With the
// threshold out of reach no worker ever signals, and a long-running task is
// not cloned, not even with the inert SpeculativeCloning flag set.
func TestSpeculativeOffByDefault(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Node.OverloadThreshold = 1.5 // unreachable: no signal
	cfg.Master.SpeculativeCloning = true
	cfg.Master.CloneInterval = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 20000
	var processed atomic.Int64
	app := sumApp(&processed)
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	if stats := cluster.Master().Stats(); stats.Clones != 0 || stats.CloneRejects != 0 {
		t.Errorf("unexpected cloning without signals: %+v", stats)
	}
}

// requireClones fails t unless the master cloned, and with merge also ran
// a merge task: a test about clones passes only where they happened.
func requireClones(t *testing.T, s MasterStats, merge bool) {
	t.Helper()
	if s.Clones < 1 || merge && s.MergeTasks < 1 {
		t.Errorf("forced clones did not fire (merge wanted: %v): %+v", merge, s)
	}
}

// TestNoCloneRespected: a NoClone task is never cloned, while forced
// clones reach its cloneable neighbor in the same job.
func TestNoCloneRespected(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Master.Policies = []ctrl.Policy{&ctrl.ForceClones{}}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var processed atomic.Int64
	app := sumApp(&processed)
	app.Task("copy").NoClone = true
	HoldForClone(app.Task("sum"))
	const n = 50000
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	requireClones(t, cluster.Master().Stats(), true)
	p := cluster.Master().Profile()
	if w := p.Stage("copy").Workers; w != 1 {
		t.Errorf("the NoClone task ran %d workers", w)
	}
	if w := p.Stage("sum").Workers; w < 2 {
		t.Errorf("the cloneable task ran %d workers", w)
	}
}

// TestMaxClonesRespected: MaxClones caps a task's live workers. Under
// forced clones copy reaches its cap of 2 and never runs a third worker.
func TestMaxClonesRespected(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Master.Policies = []ctrl.Policy{&ctrl.ForceClones{}}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var processed atomic.Int64
	app := sumApp(&processed)
	copyTask := app.Task("copy")
	copyTask.MaxClones = 2
	// A worker's body runs only while the master counts it live, so the
	// bodies running at once bound the live workers from below.
	var mu sync.Mutex
	live, most := 0, 0
	run := copyTask.Run
	copyTask.Run = func(tc *TaskCtx) error {
		mu.Lock()
		live++
		most = max(most, live)
		mu.Unlock()
		defer func() {
			mu.Lock()
			live--
			mu.Unlock()
		}()
		return run(tc)
	}
	const n = 100000
	loadInts(t, ctx, cluster.Store(), "in", n)
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got := readSum(t, ctx, cluster.Store()); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	requireClones(t, cluster.Master().Stats(), false)
	if most != 2 {
		t.Errorf("copy ran at most %d workers at once, want its cap of 2 (stats %+v)", most, cluster.Master().Stats())
	}
}
