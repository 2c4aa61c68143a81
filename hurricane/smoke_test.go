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

// TestNewWriterSharesOpenChunk: a body that asks for a writer per record —
// the package documentation's own example does — still fills one chunk per
// output and codec, not one chunk per writer; and "the same codec" means the
// same value, never merely the same record type.
func TestNewWriterSharesOpenChunk(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.ComputeNodes, cfg.SlotsPerNode = 1, 1
	cfg.Master.Policies = []Policy{}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 50 // far less than a chunk of either codec
	app := NewApp("perrecord").SourceBag("in").Bag("varint").Bag("fixed")
	app.AddTask(TaskSpec{
		Name: "fan", Inputs: []string{"in"}, Outputs: []string{"varint", "fixed"},
		Run: func(tc *TaskCtx) error {
			return ForEach(tc, 0, Uint64Of, func(v uint64) error {
				if err := NewWriter(tc, 0, Uint64Of).Write(v); err != nil {
					return err
				}
				return NewWriter(tc, 1, Uint64FixedOf).Write(v)
			})
		},
	})
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	store := cluster.Store()
	if err := Load(ctx, store, "in", Uint64Of, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	for bagName, codec := range map[string]Codec[uint64]{"varint": Uint64Of, "fixed": Uint64FixedOf} {
		st, err := store.Sample(ctx, bagName)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(ctx, store, bagName, codec)
		if err != nil || len(got) != n || st.TotalChunks != 1 {
			t.Fatalf("%s: %d records in %d chunks (%v), want %d in one", bagName, len(got), st.TotalChunks, err, n)
		}
	}

	type sliceCodec struct {
		Codec[uint64]
		tags []string
	}
	for _, c := range []struct {
		a, b any
		same bool
	}{
		{Uint64Of, Uint64Of, true},
		{Uint64Of, Uint64FixedOf, false},
		{PairOf(Uint64Of, Int64Of), PairOf(Uint64Of, Int64Of), true},
		{PairOf[uint64, uint64](Uint64Of, Uint64Of), PairOf[uint64, uint64](Uint64Of, Uint64FixedOf), false},
		{sliceCodec{Codec: Uint64Of}, sliceCodec{Codec: Uint64Of}, false}, // not comparable: never shared
	} {
		if got := sameCodec(c.a, c.b); got != c.same {
			t.Errorf("sameCodec(%#v, %#v) = %v, want %v", c.a, c.b, got, c.same)
		}
	}
}
