package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/workload"
)

// runQuery executes a planner-compiled join against the remote storage
// tier: the probe-side shuffle edge, its seed partition map, producer
// sketches, and runtime split/isolation control traffic all travel over
// TCP. The planner consults warm statistics (the probe relation's key
// sketch) and picks the physical strategy; with skewed keys (-skew ≳ 1)
// that is the SharesSkew-style skewed join with pre-isolated heavy
// hitters.
func runQuery(ctx context.Context, store *bag.Store, names []string, records int, skew float64, computes, slots, parts int) {
	keys := records / 12
	if keys < 1024 {
		keys = 1024
	}
	fmt.Printf("generating R (%d keys) and S (%d tuples, s=%.1f), loading onto %d storage nodes...\n",
		keys, records, skew, len(names))
	r := workload.SeqRelation(keys, 41)
	s := workload.ZipfTuples(records, keys, skew, 43)
	want := workload.JoinCount(r, s)
	wantPerKey := workload.KeyCounts(s)

	c, err := apps.HashJoinPlan().Compile(q.Options{
		Parts: parts,
		Stats: apps.JoinWarmStats(r, s),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Explain())

	if err := apps.LoadRelations(ctx, store, r, s); err != nil {
		log.Fatal(err)
	}
	cluster := core.NewClusterOverStore(store, runConfig(computes, slots))
	defer cluster.Shutdown()

	start := time.Now()
	if err := c.Run(ctx, cluster); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	got, err := hurricane.Collect(ctx, store, c.SinkBag(apps.JoinShufOut), apps.MatchCodec)
	if err != nil {
		log.Fatal(err)
	}
	perKey := make(map[uint64]int64)
	for _, m := range got {
		perKey[m.First]++
	}
	buildPerKey := workload.KeyCounts(r)
	bad := 0
	for k, n := range wantPerKey {
		if perKey[k] != n*buildPerKey[k] {
			bad++
		}
	}
	st := cluster.Master().Stats()
	fmt.Printf("query (%s join) on %d remote storage nodes: %d matches (want %d), %d/%d probe keys correct in %v\n",
		c.Joins[0].Strategy, len(names), len(got), want, len(wantPerKey)-bad, len(wantPerKey), elapsed)
	fmt.Printf("master stats: %+v\n", st)
	if int64(len(got)) != want || bad > 0 {
		log.Fatal("verification failed")
	}
}
