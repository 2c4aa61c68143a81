package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/workload"
)

// runQuery executes a planner-compiled join against the remote storage
// tier: every worker reads the build relation and a share of the probe
// chunks over TCP. The planner fuses the join into the probe scan (no
// shuffle), so skewed keys (-skew ≳ 1) are split chunk by chunk among
// clones.
func runQuery(ctx context.Context, store *bag.Store, names []string, records int, skew float64, computes, slots, parts int) {
	keys := records / 12
	if keys < 1024 {
		keys = 1024
	}
	fmt.Printf("generating R (%d keys) and S (%d tuples, s=%.1f), loading onto %d storage nodes...\n",
		keys, records, skew, len(names))
	r := workload.SeqRelation(keys, 41)
	s := workload.ZipfTuples(records, keys, skew, 43)
	want := workload.JoinMatches(r, s)

	c, err := apps.HashJoinPlan().Compile(q.Options{Parts: parts})
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

	ms, err := hurricane.Collect(ctx, store, c.SinkBag(apps.JoinShufOut), apps.MatchCodec)
	if err != nil {
		log.Fatal(err)
	}
	got := make([]workload.Match, len(ms))
	for i, m := range ms {
		got[i] = workload.Match{Key: m.First, R: m.Second.First, S: m.Second.Second}
	}
	workload.SortMatches(got)
	fmt.Printf("query (%s join) on %d remote storage nodes: %d matches (want %d) in %v\n",
		c.Joins[0].Strategy, len(names), len(got), len(want), elapsed)
	fmt.Printf("master stats: %+v\n", cluster.Master().Stats())
	if !slices.Equal(got, want) {
		log.Fatal("verification failed: the matches differ from the serial join's")
	}
}
