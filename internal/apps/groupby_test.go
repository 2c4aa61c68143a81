package apps

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// keysInPartition finds `count` distinct uint64 keys that the default hash
// partitioner routes to base partition `target` of `parts` — the
// deterministic way to pile many medium keys onto one partition.
func keysInPartition(parts, target, count int) []uint64 {
	var out []uint64
	var b [8]byte
	for k := uint64(1); len(out) < count; k++ {
		binary.LittleEndian.PutUint64(b[:], k)
		if int(shuffle.KeyHash(b[:])%uint64(parts)) == target {
			out = append(out, k)
		}
	}
	return out
}

// groundTruthCounts computes per-key record counts directly.
func groundTruthCounts(tuples []workload.Tuple) map[uint64]int64 {
	want := make(map[uint64]int64)
	for _, t := range tuples {
		want[t.Key]++
	}
	return want
}

func checkGroupByCounts(t *testing.T, got map[uint64]GroupByResult, want map[uint64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d keys, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k].Count != n {
			t.Errorf("key %d: count %d, want %d", k, got[k].Count, n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("spurious key %d in output", k)
		}
	}
}

// eagerClones makes the master clone anything that has work left: every
// worker signals overload, and Eq. 2 prices clone I/O at zero.
func eagerClones(cfg *hurricane.ClusterConfig) {
	cfg.Node.OverloadThreshold = 0.01
	cfg.Master.CloneInterval = time.Millisecond
	cfg.Master.StorageBandwidth = math.Inf(1)
}

// TestGroupByCorrectnessStatic: on an edge that is neither Spread nor
// merged, the partitioned groupby equals the directly computed baseline —
// for uniform and skewed inputs, and for many medium keys piled onto one
// partition — and its aggregate is never cloned, however eagerly the
// master clones: sharing a leaf would split a key's records between
// workers.
func TestGroupByCorrectnessStatic(t *testing.T) {
	const parts = 4
	uniform := workload.RelationGen{Keys: 64, S: 0, Seed: 3}
	skewed := workload.RelationGen{Keys: 64, S: 1.2, Seed: 3}
	// 32 distinct keys, all hashing to partition 1, plus a thin background
	// on partition 0. No single key dominates the hot partition.
	hotKeys := keysInPartition(parts, 1, 32)
	var piled []workload.Tuple
	for i := 0; i < 60000; i++ {
		piled = append(piled, workload.Tuple{Key: hotKeys[i%len(hotKeys)], Payload: uint64(i)})
	}
	bg := keysInPartition(parts, 0, 4)
	for i := 0; i < 2000; i++ {
		piled = append(piled, workload.Tuple{Key: bg[i%len(bg)], Payload: uint64(i)})
	}
	for _, tc := range []struct {
		name   string
		tuples []workload.Tuple
	}{
		{skewName(0), uniform.Generate(20000)},
		{skewName(1.2), skewed.Generate(20000)},
		{"one-hot-partition", piled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t)
			cluster := testCluster(t, eagerClones)
			if err := LoadGroupBy(ctx, cluster.Store(), tc.tuples); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Run(ctx, GroupByApp(parts, false, false, 0, 1000)); err != nil {
				t.Fatal(err)
			}
			got, err := CollectGroupBy(ctx, cluster.Store())
			if err != nil {
				t.Fatal(err)
			}
			checkGroupByCounts(t, got, groundTruthCounts(tc.tuples))
			if p := cluster.Master().Profile(); len(p.Edges) != 1 || p.Edges[0].Clones != 0 {
				t.Fatalf("the aggregate of a non-Spread edge was cloned: %+v", p.Edges)
			}
		})
	}
}

// TestGroupByHeavyKeyClones: one key dominates the stream; on a Spread edge
// clones share its partition chunk by chunk, so several workers aggregate
// its records, and the merged partials still give the exact count and the
// distinct-payload estimate.
func TestGroupByHeavyKeyClones(t *testing.T) {
	const parts = 4
	var tuples []workload.Tuple
	for i := 0; i < 50000; i++ {
		tuples = append(tuples, workload.Tuple{Key: 7, Payload: uint64(i % 1000)})
	}
	for i := 0; i < 20000; i++ {
		tuples = append(tuples, workload.Tuple{Key: uint64(100 + i%60), Payload: uint64(i)})
	}
	ctx := testCtx(t)
	cluster := testCluster(t, eagerClones)
	if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, GroupByApp(parts, true, false, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	got, err := CollectGroupBy(ctx, cluster.Store())
	if err != nil {
		t.Fatal(err)
	}
	checkGroupByCounts(t, got, groundTruthCounts(tuples))
	// HLL partials merge register-wise.
	if d := got[7].Distinct; d < 800 || d > 1200 {
		t.Errorf("heavy key distinct estimate %.0f, want ≈1000", d)
	}
	// Every worker writes one partial per key it saw.
	partials, err := hurricane.Collect(ctx, cluster.Store(), GroupByOut, groupByOutCodec)
	if err != nil {
		t.Fatal(err)
	}
	workers := 0
	for _, p := range partials {
		if p.First == 7 {
			workers++
		}
	}
	if st := cluster.Master().Stats(); st.Clones < 1 || workers < 2 {
		t.Fatalf("the heavy key was aggregated by %d workers (stats %+v), want >= 2", workers, st)
	}
}
