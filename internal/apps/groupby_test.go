package apps

import (
	"encoding/binary"
	"maps"
	"testing"

	"repro/hurricane"
	"repro/internal/core"
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

// TestGroupByCorrectnessStatic: on an edge that is neither Spread nor
// merged, the partitioned groupby equals the serial oracle —
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
			cluster := testCluster(t, clonesForced)
			if err := LoadGroupBy(ctx, cluster.Store(), GroupByIn, tc.tuples); err != nil {
				t.Fatal(err)
			}
			app := GroupByApp(parts, false, 0, 1000)
			core.HoldForClone(app.Task("shuffle"))
			if err := cluster.Run(ctx, app); err != nil {
				t.Fatal(err)
			}
			got, err := CollectGroupBy(ctx, cluster.Store(), GroupByOut)
			if err != nil {
				t.Fatal(err)
			}
			if want := SerialGroupBy(tc.tuples); !maps.Equal(got, want) {
				t.Fatalf("groupby differs from the serial oracle:\n got %v\nwant %v", got, want)
			}
			requireClones(t, cluster.Master().Stats(), false)
			if p := cluster.Master().Profile(); len(p.Edges) != 1 || p.Edges[0].Clones != 0 {
				t.Fatalf("the aggregate of a non-Spread edge was cloned: %+v", p.Edges)
			}
		})
	}
}

// TestGroupByHeavyKeyClones: one key dominates the stream; on a Spread edge
// clones share its partition chunk by chunk, so several workers aggregate
// its records, and the merged partials still give the serial counts and
// distinct-payload estimates.
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
	cluster := testCluster(t, clonesForced)
	if err := LoadGroupBy(ctx, cluster.Store(), GroupByIn, tuples); err != nil {
		t.Fatal(err)
	}
	app := GroupByApp(parts, true, 0, 1000)
	core.HoldForClone(app.Task("shuffle"))
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	got, err := CollectGroupBy(ctx, cluster.Store(), GroupByOut)
	if err != nil {
		t.Fatal(err)
	}
	// HLL partials merge register-wise, so the split lands on the serial
	// estimate exactly.
	if want := SerialGroupBy(tuples); !maps.Equal(got, want) {
		t.Fatalf("groupby differs from the serial oracle:\n got %v\nwant %v", got, want)
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
	requireClones(t, cluster.Master().Stats(), false)
	if workers < 2 {
		t.Fatalf("the heavy key was aggregated by %d workers, want >= 2", workers)
	}
}
