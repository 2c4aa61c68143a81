package apps

import (
	"context"
	"testing"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

// TestClickLogNoCloneCorrectness: the HurricaneNC configuration (Fig. 6)
// still computes exact results — disabling cloning affects performance,
// never correctness.
func TestClickLogNoCloneCorrectness(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Master.Policies = []hurricane.Policy{}
	})
	const regions, hostBits = 8, 10
	gen := workload.ClickLogGen{S: 1.0, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 21}
	ips := gen.Generate(30000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ClickLogBagIn, ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, ClickLogApp(regions, hostBits, true)); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), rawBag, regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d != %d", r, got[r], want[r])
		}
	}
	if c := cluster.Master().Stats().Clones; c != 0 {
		t.Errorf("HurricaneNC cloned %d times", c)
	}
}

// TestClickLogWithReplication: the full application over replicated
// storage produces exact results when a storage node crashes halfway
// through phase 1, the shuffle into region bags. Every insert is mirrored, and a remove takes the
// chunk's id on the backup before it is delivered. Distinct counts cannot
// see a chunk delivered twice or lost, so the region bags' record counts
// are checked exactly as well.
func TestClickLogWithReplication(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.Replication = 2
	})
	const regions, hostBits = 8, 10
	gen := workload.ClickLogGen{S: 0.8, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 33}
	ips := gen.Generate(30000)
	want := workload.DistinctPerRegion(ips, regions)
	wantRecs := make([]int, regions)
	for _, ip := range ips {
		wantRecs[workload.Geolocate(ip)]++
	}

	store := cluster.Store()
	if err := LoadClickLog(ctx, store, ClickLogBagIn, ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(ctx, ClickLogApp(regions, hostBits, false)); err != nil {
		t.Fatal(err)
	}
	for { // crash once phase 1 has read half its input
		st, err := store.Sample(ctx, ClickLogBagIn)
		if err != nil {
			t.Fatal(err)
		}
		if st.ReadChunks*2 >= st.TotalChunks {
			break
		}
	}
	if err := cluster.CrashStorageNode("storage-1"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, store, rawBag, regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d distinct, want %d", r, got[r], want[r])
		}
		recs, err := hurricane.Collect(ctx, store, RegionBag(r), hurricane.Uint64Of)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != wantRecs[r] {
			t.Errorf("region %d: %d records, want %d", r, len(recs), wantRecs[r])
		}
	}
}

// TestPageRankMoreIterations: longer multi-stage graphs (5 iterations =
// 16 sequential stages) stay oracle-exact.
func TestPageRankMoreIterations(t *testing.T) {
	ctx := testCtx(t)
	cluster := testCluster(t, nil)
	const scale, iters = 6, 5
	gen := workload.RMATGen{Scale: scale, EdgeFactor: 8, Seed: 17}
	edges := gen.Generate()
	n := gen.NumVertices()
	want := SerialPageRank(edges, n, iters)

	if err := LoadEdges(ctx, cluster.Store(), edges); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, PageRankApp(n, iters, false)); err != nil {
		t.Fatal(err)
	}
	got, err := PageRanks(ctx, cluster.Store(), n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("max deviation %g after %d iterations", d, iters)
	}
}

// TestClickLogDiskBackend runs ClickLog with disk-backed bags: same
// results, data on real files.
func TestClickLogDiskBackend(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	cluster := testCluster(t, func(cfg *hurricane.ClusterConfig) {
		cfg.DiskDir = dir
	})
	const regions, hostBits = 4, 10
	gen := workload.ClickLogGen{S: 0.5, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 5}
	ips := gen.Generate(20000)
	want := workload.DistinctPerRegion(ips, regions)

	if err := LoadClickLog(ctx, cluster.Store(), ClickLogBagIn, ips); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, ClickLogApp(regions, hostBits, false)); err != nil {
		t.Fatal(err)
	}
	got, err := ClickLogCounts(ctx, cluster.Store(), rawBag, regions)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("region %d: %d != %d", r, got[r], want[r])
		}
	}
}

// TestHashJoinEmptyPartition: partitions with no matching tuples produce
// empty outputs without wedging the join; a wedged join fails through its
// run's deadline.
func TestHashJoinEmptyPartition(t *testing.T) {
	// Keys confined to a range that hashes into few partitions.
	rg := workload.RelationGen{Keys: 2, S: 0, Seed: 8}
	r := rg.Generate(100)
	s := rg.Generate(1000)
	for _, static := range []bool{false, true} {
		t.Run(joinForm(static), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			c := compileJoin(t, q.Options{Parts: 8, Static: static})
			runJoin(ctx, t, testCluster(t, nil), c, r, s)
		})
	}
}
