package hurricane

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"
)

// testClusterConfig returns a small, fast cluster configuration for tests.
func testClusterConfig() ClusterConfig {
	return ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    1 << 10,
		Node: NodeConfig{
			PollInterval:      time.Millisecond,
			MonitorInterval:   5 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
		},
		Master: MasterConfig{
			CloneInterval: 5 * time.Millisecond,
		},
	}
}

// TestSmokePipeline runs a two-stage pipeline: square each int, then sum.
func TestSmokePipeline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("smoke")
	app.SourceBag("nums").Bag("squares").Bag("total")
	app.AddTask(TaskSpec{
		Name:    "square",
		Inputs:  []string{"nums"},
		Outputs: []string{"squares"},
		Run: func(tc *TaskCtx) error {
			w := NewWriter(tc, 0, Int64Of)
			return ForEach(tc, 0, Int64Of, func(v int64) error {
				return w.Write(v * v)
			})
		},
	})
	app.AddTask(TaskSpec{
		Name:    "sum",
		Inputs:  []string{"squares"},
		Outputs: []string{"total"},
		Run: func(tc *TaskCtx) error {
			var total int64
			if err := ForEach(tc, 0, Int64Of, func(v int64) error {
				total += v
				return nil
			}); err != nil {
				return err
			}
			return NewWriter(tc, 0, Int64Of).Write(total)
		},
		Merge: MergeSum(),
	})

	n := int64(1000)
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i)
		want += int64(i) * int64(i)
	}
	store := cluster.Store()
	if err := Load(ctx, store, "nums", Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "nums"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(ctx, store, "total", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %v, want [%d]", got, want)
	}
}

// TestSmokeFanout runs a fan-out: partition ints by parity into two bags,
// then count each independently.
func TestSmokeFanout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("fanout")
	app.SourceBag("nums")
	parities := []string{"even", "odd"}
	for _, p := range parities {
		app.Bag("part." + p).Bag("count." + p)
	}
	app.AddTask(TaskSpec{
		Name:    "partition",
		Inputs:  []string{"nums"},
		Outputs: []string{"part.even", "part.odd"},
		Run: func(tc *TaskCtx) error {
			ws := []*Writer[int64]{NewWriter(tc, 0, Int64Of), NewWriter(tc, 1, Int64Of)}
			return ForEach(tc, 0, Int64Of, func(v int64) error {
				return ws[v%2].Write(v)
			})
		},
	})
	for i, p := range parities {
		i, p := i, p
		app.AddTask(TaskSpec{
			Name:    "count." + p,
			Inputs:  []string{"part." + p},
			Outputs: []string{"count." + p},
			Run: func(tc *TaskCtx) error {
				var n int64
				if err := ForEach(tc, 0, Int64Of, func(v int64) error {
					if int(v%2) != i {
						return fmt.Errorf("value %d in wrong partition %s", v, p)
					}
					n++
					return nil
				}); err != nil {
					return err
				}
				return NewWriter(tc, 0, Int64Of).Write(n)
			},
			Merge: MergeSum(),
		})
	}

	vals := make([]int64, 501)
	for i := range vals {
		vals[i] = int64(i)
	}
	store := cluster.Store()
	if err := Load(ctx, store, "nums", Int64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "nums"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]int64{"even": 251, "odd": 250}
	for _, p := range parities {
		got, err := Collect(ctx, store, "count."+p, Int64Of)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != wantCounts[p] {
			t.Fatalf("count.%s = %v, want [%d]", p, got, wantCounts[p])
		}
	}
}

// TestSmokeConcatClones verifies a no-merge task's output is a permutation
// of the expected multiset even when clones write concurrently.
func TestSmokeConcatClones(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Master.DisableHeuristic = true // accept every clone request
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("concat")
	app.SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "copy",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			w := NewWriter(tc, 0, Int64Of)
			return ForEach(tc, 0, Int64Of, func(v int64) error {
				// Busy-ish loop so the worker looks CPU-bound and
				// triggers overload signals.
				s := v
				for i := 0; i < 2000; i++ {
					s = s*31 + 7
				}
				if s == 42 {
					return fmt.Errorf("impossible")
				}
				return w.Write(v)
			})
		},
	})
	n := 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
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
	got, err := Collect(ctx, store, "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d records, want %d", len(got), n)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("after sort, got[%d] = %d", i, v)
		}
	}
}
