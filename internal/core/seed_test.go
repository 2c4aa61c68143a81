package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/shuffle"
	"repro/internal/transport"
)

// TestSeedMustMatchEdge: a seed is refused at submission unless it names a
// partitioned bag of the app and keeps that bag's partition count, unless
// it lists a bounded number of leaves, and unless it only isolates keys. A
// seed of another Base would have the master seal and read the seed's
// leaves while the producers write the base map's: a job that reports
// success with records missing. A seed with Splits asks for a
// sub-partition layout that nothing routes by.
func TestSeedMustMatchEdge(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i, tc := range []struct {
		name, bag string
		base      int
		fan       int // of one isolated key, if not 0
		splits    map[int]int
	}{
		{name: "base below", bag: "shuf", base: 1},
		{name: "base above", bag: "shuf", base: 4},
		{name: "unknown bag", bag: "nope", base: 2},
		{name: "plain bag", bag: "out", base: 2},
		{name: "too many leaves", bag: "shuf", base: 2, fan: 1 << 13},
		{name: "splits", bag: "shuf", base: 2, splits: map[int]int{0: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := shuffle.BaseMap(tc.bag, tc.base)
			seed.Version, seed.Splits = 2, tc.splits
			if tc.fan != 0 {
				seed.Isolated = []shuffle.Isolation{{Hash: 1, Fan: tc.fan}}
			}
			_, err := c.SubmitJob(ctx, slowGroupApp(new(atomic.Int64), 0), JobConfig{
				Name: fmt.Sprintf("seeded%d", i), Seeds: map[string]*shuffle.PartitionMap{tc.bag: seed},
			})
			if err == nil || !strings.Contains(err.Error(), tc.bag) {
				t.Fatalf("SubmitJob with a seed of base %d for %q: err = %v, want a refusal naming the bag", tc.base, tc.bag, err)
			}
		})
	}
}

// mapTap counts the chunks a seeded job's storage traffic inserts, by bag.
type mapTap struct {
	mu      sync.Mutex
	inserts map[string]int // bag -> chunks inserted
}

func (c *mapTap) record(_ string, req *transport.Request, _ *transport.Response) {
	if req.Op != transport.OpInsert {
		return
	}
	name, _, _ := strings.Cut(req.Bag, "#")
	c.mu.Lock()
	c.inserts[name]++
	c.mu.Unlock()
}

// TestSeededJobWritesNoMap: a seed is part of the submitted job, so running
// a seeded job writes no partition map anywhere — no insert outside the
// job's declared bags, the seed's leaves and the work bags. The records
// follow the seed: every leaf fills, the base partitions and both bags of
// its spread isolation of the hot key, and the edge's record counts every
// record on the leaf it went to. The sum is exact, and the caller's App is
// left as it was.
func TestSeededJobWritesNoMap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tap := &mapTap{inserts: make(map[string]int)}
	store, f := storeBehind(t)
	f.Add(transport.Rule{Tap: tap.record})
	c := NewClusterOverStore(store, testClusterConfig())
	defer c.Shutdown()

	const n = 4000
	loadInts(t, ctx, store, "in", n)
	hot := chunk.Int64Codec{}.Encode(nil, 0) // three records in four
	seed := shuffle.BaseMap("shuf", 2)
	seed.Version = 2
	seed.Isolated = []shuffle.Isolation{{Hash: shuffle.KeyHash(hot), Fan: 2, Key: hot}}
	var processed atomic.Int64
	app := slowGroupApp(&processed, 0)
	h, err := c.SubmitJob(ctx, app, JobConfig{Raw: true, Seeds: map[string]*shuffle.PartitionMap{"shuf": seed}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if app.BagSpecFor("shuf").seed != nil {
		t.Error("SubmitJob fixed the seed on the caller's App")
	}
	if got, want := readSumBag(t, ctx, store, "out"), int64(n)*(n-1)/2; got != want || processed.Load() != n {
		t.Errorf("sum = %d over %d records, want %d over %d", got, processed.Load(), want, n)
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	known := append([]string{"in", "out", "slowgroup!ready", "slowgroup!running", "slowgroup!done"}, seed.Leaves()...)
	for bag := range tap.inserts {
		if !slices.Contains(known, bag) {
			t.Errorf("insert into %s, which is no bag of the job", bag)
		}
	}
	stats := h.Master().EdgeMemory()["shuf"].Stats
	if stats == nil || stats.Total() != n {
		t.Fatalf("edge record %+v, want all %d records counted", stats, n)
	}
	if leaves := seed.Leaves(); !slices.Equal(leaves, []string{"shuf.p0", "shuf.p1", "shuf.h0.s0", "shuf.h0.s1"}) {
		t.Errorf("seed leaves %v, want the base partitions and the isolation bags", leaves)
	}
	for _, leaf := range seed.Leaves() {
		if tap.inserts[leaf] == 0 || stats.Counts[leaf] == 0 {
			t.Errorf("the seed's leaf %s received %d chunks, %d records by the edge record", leaf, tap.inserts[leaf], stats.Counts[leaf])
		}
	}
}
