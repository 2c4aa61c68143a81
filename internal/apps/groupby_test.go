package apps

import (
	"encoding/binary"
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

// shuffleTestCluster tunes the embedded cluster for fast, deterministic
// split decisions: tight master ticks, low split thresholds, and a little
// transport latency so producers are still running when the master reacts.
func shuffleTestCluster(t *testing.T, mutate func(*hurricane.ClusterConfig)) *hurricane.Cluster {
	t.Helper()
	return testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.TransportLatency = 100 * time.Microsecond
		cfg.Master.SplitInterval = time.Millisecond
		cfg.Master.SplitMinRecords = 500
		cfg.Master.SplitImbalance = 1.5
		cfg.Master.SplitFan = 4
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// TestGroupByCorrectnessStatic: with splitting disabled, the partitioned
// groupby equals the directly computed baseline for uniform and skewed
// inputs.
func TestGroupByCorrectnessStatic(t *testing.T) {
	for _, s := range []float64{0, 1.2} {
		t.Run(skewName(s), func(t *testing.T) {
			ctx := testCtx(t)
			cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
				cfg.Master.DisableSplitting = true
			})
			gen := workload.RelationGen{Keys: 64, S: s, Seed: 3}
			tuples := gen.Generate(20000)
			if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Run(ctx, GroupByApp(4, false, false, 0, 0)); err != nil {
				t.Fatal(err)
			}
			got, err := CollectGroupBy(ctx, cluster.Store())
			if err != nil {
				t.Fatal(err)
			}
			checkGroupByCounts(t, got, groundTruthCounts(tuples))
			if st := cluster.Master().Stats(); st.Splits != 0 || st.Isolations != 0 {
				t.Fatalf("splitting disabled but stats show %+v", st)
			}
		})
	}
}

// TestGroupByRuntimeSplit is the subsystem's core guarantee: many medium
// keys are piled onto one base partition, the master re-hash splits the
// hot partition at runtime, and the final output still equals the
// unpartitioned baseline — no record lost or duplicated by the mid-stream
// routing change.
func TestGroupByRuntimeSplit(t *testing.T) {
	const parts = 4
	// 32 distinct keys, all hashing to partition 1, plus a thin uniform
	// background over the other partitions. No single key dominates, so
	// isolation cannot trigger; only a re-hash split can fix partition 1.
	hotKeys := keysInPartition(parts, 1, 32)
	var tuples []workload.Tuple
	for i := 0; i < 60000; i++ {
		tuples = append(tuples, workload.Tuple{
			Key: hotKeys[i%len(hotKeys)], Payload: uint64(i),
		})
	}
	bg := keysInPartition(parts, 0, 4)
	for i := 0; i < 2000; i++ {
		tuples = append(tuples, workload.Tuple{Key: bg[i%len(bg)], Payload: uint64(i)})
	}
	want := groundTruthCounts(tuples)

	// The split decision races against producer completion, so allow a
	// few attempts; each run must be *correct*, and at least one must
	// demonstrate the runtime split.
	for attempt := 0; attempt < 5; attempt++ {
		ctx := testCtx(t)
		cluster := shuffleTestCluster(t, nil)
		if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
			t.Fatal(err)
		}
		app := GroupByApp(parts, false, false, 0, 0)
		if err := cluster.Run(ctx, app); err != nil {
			t.Fatal(err)
		}
		got, err := CollectGroupBy(ctx, cluster.Store())
		if err != nil {
			t.Fatal(err)
		}
		checkGroupByCounts(t, got, want)
		st := cluster.Master().Stats()
		if st.Splits >= 1 {
			t.Logf("attempt %d: runtime split demonstrated, stats %+v", attempt, st)
			return
		}
		t.Logf("attempt %d: no split (stats %+v), retrying", attempt, st)
	}
	t.Fatal("hot partition was never split at runtime")
}

// TestGroupByHeavyKeyIsolation: one key dominates the stream; on a Spread
// edge the master isolates it into dedicated spread bags, several
// consumers aggregate its records concurrently, and the merged partials
// still give the exact count.
func TestGroupByHeavyKeyIsolation(t *testing.T) {
	const parts = 4
	var tuples []workload.Tuple
	for i := 0; i < 50000; i++ {
		tuples = append(tuples, workload.Tuple{Key: 7, Payload: uint64(i % 1000)})
	}
	for i := 0; i < 20000; i++ {
		tuples = append(tuples, workload.Tuple{Key: uint64(100 + i%60), Payload: uint64(i)})
	}
	want := groundTruthCounts(tuples)

	for attempt := 0; attempt < 5; attempt++ {
		ctx := testCtx(t)
		cluster := shuffleTestCluster(t, nil)
		if err := LoadGroupBy(ctx, cluster.Store(), tuples); err != nil {
			t.Fatal(err)
		}
		app := GroupByApp(parts, true, false, 0, 0) // Spread: per-key partials merge downstream
		if err := cluster.Run(ctx, app); err != nil {
			t.Fatal(err)
		}
		got, err := CollectGroupBy(ctx, cluster.Store())
		if err != nil {
			t.Fatal(err)
		}
		checkGroupByCounts(t, got, want)
		// The heavy key's distinct-payload estimate must also survive the
		// spread (HLL partials merge register-wise).
		if d := got[7].Distinct; d < 800 || d > 1200 {
			t.Errorf("heavy key distinct estimate %.0f, want ≈1000", d)
		}
		st := cluster.Master().Stats()
		if st.Isolations >= 1 {
			t.Logf("attempt %d: heavy key isolated, stats %+v", attempt, st)
			return
		}
		t.Logf("attempt %d: no isolation (stats %+v), retrying", attempt, st)
	}
	t.Fatal("heavy-hitter key was never isolated")
}
