package hurricane

import (
	"context"
	"testing"
	"time"
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

func TestMergeSorted(t *testing.T) {
	merge := MergeSorted[int64](Int64Of, func(a, b int64) bool { return a < b })
	cluster := runMerge(t, merge, func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], Int64Of, []int64{1, 5, 9})
		Load(ctx, store, ps[1], Int64Of, []int64{2, 2, 8})
		Load(ctx, store, ps[2], Int64Of, []int64{0, 7})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2, 2, 5, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergeDistinctStrings(t *testing.T) {
	cluster := runMerge(t, MergeDistinctStrings(), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], StringOf, []string{"a", "b"})
		Load(ctx, store, ps[1], StringOf, []string{"b", "c"})
		Load(ctx, store, ps[2], StringOf, []string{"a", "d"})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", StringOf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	cluster := runMerge(t, MergeTopK(3), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], Int64Of, []int64{5, 1})
		Load(ctx, store, ps[1], Int64Of, []int64{9, 3})
		Load(ctx, store, ps[2], Int64Of, []int64{7})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 7, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeKVSum(t *testing.T) {
	enc := func(v int64) []byte { return Int64Of.Encode(nil, v) }
	cluster := runMerge(t, MergeKVSum(), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], KVOf, []KV{{Key: "x", Value: enc(1)}, {Key: "y", Value: enc(2)}})
		Load(ctx, store, ps[1], KVOf, []KV{{Key: "x", Value: enc(10)}})
		Load(ctx, store, ps[2], KVOf, []KV{{Key: "z", Value: enc(5)}, {Key: "y", Value: enc(1)}})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", KVOf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"x": 11, "y": 3, "z": 5}
	if len(got) != len(want) {
		t.Fatalf("got %d keys", len(got))
	}
	for _, kv := range got {
		v, _, err := Int64Of.Decode(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		if v != want[kv.Key] {
			t.Fatalf("%s = %d, want %d", kv.Key, v, want[kv.Key])
		}
	}
}

func TestMergeMedian(t *testing.T) {
	cluster := runMerge(t, MergeMedianInt64(), func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], Int64Of, []int64{1, 100})
		Load(ctx, store, ps[1], Int64Of, []int64{50})
		Load(ctx, store, ps[2], Int64Of, []int64{2, 99})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("median = %v, want [50]", got)
	}
}

func TestMergeConcat(t *testing.T) {
	cluster := runMerge(t, MergeConcat, func(ctx context.Context, store *Store, ps []string) {
		Load(ctx, store, ps[0], Int64Of, []int64{1, 2})
		Load(ctx, store, ps[1], Int64Of, []int64{3})
		Load(ctx, store, ps[2], Int64Of, []int64{4, 5})
	})
	got, err := Collect(context.Background(), cluster.Store(), "out", Int64Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("concat produced %d records", len(got))
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("sum %d", sum)
	}
}

// TestMergeEndToEndWithClones runs a task under forced cloning and checks
// that whichever path executed (rename adoption for one worker, a real
// merge for several), the result is identical to the serial answer.
func TestMergeEndToEndWithClones(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Master.CloneInterval = time.Millisecond
	cfg.Node.MonitorInterval = time.Millisecond
	cfg.Node.OverloadThreshold = 0.01
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	app := NewApp("clonemerge")
	app.SourceBag("in").Bag("out")
	app.AddTask(TaskSpec{
		Name:    "distinct",
		Inputs:  []string{"in"},
		Outputs: []string{"out"},
		Merge:   MergeDistinctStrings(),
		Run: func(tc *TaskCtx) error {
			seen := map[string]struct{}{}
			if err := ForEach(tc, 0, StringOf, func(s string) error {
				// busy work to look CPU-bound
				h := 0
				for i := 0; i < 500; i++ {
					h = h*31 + int(s[0])
				}
				_ = h
				seen[s] = struct{}{}
				return nil
			}); err != nil {
				return err
			}
			w := NewWriter(tc, 0, StringOf)
			for s := range seen {
				if err := w.Write(s); err != nil {
					return err
				}
			}
			return nil
		},
	})
	const n = 30000
	vals := make([]string, n)
	distinct := map[string]struct{}{}
	for i := range vals {
		vals[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		distinct[vals[i]] = struct{}{}
	}
	store := cluster.Store()
	if err := Load(ctx, store, "in", StringOf, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(ctx, store, "out", StringOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(distinct) {
		t.Fatalf("distinct = %d, want %d (stats %+v)",
			len(got), len(distinct), cluster.Master().Stats())
	}
	t.Logf("stats: %+v", cluster.Master().Stats())
}
