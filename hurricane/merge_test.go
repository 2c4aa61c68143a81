package hurricane

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
)

// runMerge executes a merge function as an ordinary task over explicit
// "partial" bags, which is exactly how the master invokes it after clones
// finish: inputs = partial bags, single output. Loading the partials
// directly makes merge behaviour deterministic regardless of cloning.
func runMerge(t *testing.T, merge TaskFunc, load func(ctx context.Context, store *Store, partials []string)) *Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Shutdown)

	partials := []string{"p0", "p1", "p2"}
	app := NewApp("mergetest")
	for _, p := range partials {
		app.SourceBag(p)
	}
	app.Bag("out")
	app.AddTask(TaskSpec{
		Name:    "merge",
		Inputs:  partials,
		Outputs: []string{"out"},
		Run:     merge,
		NoClone: true,
	})
	store := cluster.Store()
	load(ctx, store, partials)
	for _, p := range partials {
		if err := Seal(ctx, store, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	return cluster
}

func TestMergeSum(t *testing.T) {
	cluster := runMerge(t, MergeSum(), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], Int64Of, []int64{10})
		Load(ctx, store, ps[1], Int64Of, []int64{32})
		Load(ctx, store, ps[2], Int64Of, []int64{100})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 142 {
		t.Fatalf("got %v, want [142]", got)
	}
}

func TestMergeBitsetOr(t *testing.T) {
	cluster := runMerge(t, MergeBitsetOr(), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], BytesOf, [][]byte{{0b0001}})
		Load(ctx, store, ps[1], BytesOf, [][]byte{{0b1000, 0b0100}}) // longer partial
		Load(ctx, store, ps[2], BytesOf, [][]byte{{0b0010}})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", BytesOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 2 || got[0][0] != 0b1011 || got[0][1] != 0b0100 {
		t.Fatalf("got %v", got)
	}
}

// runCloned runs one task over vals with ctrl.ForceClones as the only
// policy and returns the cluster once the job is done. Each worker folds
// its share with the add that fresh returns and writes its partial with
// the write; merge combines the partials into "out". The original worker
// holds until a clone has started (core.HoldForClone), so the forced clone
// lands while the input still has work left however fast the host drains
// it. The test fails unless the task cloned and merged.
func runCloned(t *testing.T, cfg ClusterConfig, vals []int64, merge TaskFunc, fresh func() (add func(int64), write func(*TaskCtx) error)) *Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	cfg.Master.Policies = []Policy{&ctrl.ForceClones{}}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Shutdown)

	app := NewApp("cloned").SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "fold",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Merge:   merge,
		Run: func(tc *TaskCtx) error {
			add, write := fresh()
			if err := ForEach(tc, 0, Int64Of, func(v int64) error {
				add(v)
				return nil
			}); err != nil {
				return err
			}
			return write(tc)
		},
	})
	core.HoldForClone(app.Task("fold"))
	store := cluster.Store()
	if err := Load(ctx, store, "in", Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	if s := cluster.Master().Stats(); s.Clones < 1 || s.MergeTasks < 1 {
		t.Errorf("forced clones made no clone or no merge: %+v", s)
	}
	return cluster
}

// TestMergeEndToEndWithClones runs a sum under forced clones and checks
// that the merge of its clones' partials is identical to the serial answer.
func TestMergeEndToEndWithClones(t *testing.T) {
	const n = 30000
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i % 677)
		want += vals[i]
	}
	cluster := runCloned(t, testClusterConfig(), vals, MergeSum(), func() (func(int64), func(*TaskCtx) error) {
		var total int64
		return func(v int64) { total += v }, func(tc *TaskCtx) error { return NewWriter(tc, 0, Int64Of).Write(total) }
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("sum = %v, want [%d] (stats %+v)", got, want, cluster.Master().Stats())
	}
}
