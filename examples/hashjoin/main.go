// HashJoin: the paper's second workload (§5.3), expressed through the
// query planner instead of hand-wired stages. The planner's join
// (apps.HashJoinPlan) is the engine's only hash join; this program and the
// tests in internal/apps check its matches against the serial ones of
// workload.JoinMatches.
//
// The program declares WHAT to compute — join R and S on the tuple key —
// and the planner decides HOW: every join worker loads all of R whatever
// the form, so it fuses the join into the scan of S with no shuffle, and
// runtime clones split S chunk by chunk however skewed its keys are.
//
// Run with: go run ./examples/hashjoin [-build N] [-probe N] [-skew S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/workload"
)

func main() {
	buildN := flag.Int("build", 20000, "build-relation tuples")
	probeN := flag.Int("probe", 200000, "probe-relation tuples")
	skew := flag.Float64("skew", 1.0, "zipf skew of probe keys")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 4,
		Master: hurricane.MasterConfig{
			CloneInterval: 10 * time.Millisecond,
		},
		Node: hurricane.NodeConfig{
			MonitorInterval:   10 * time.Millisecond,
			OverloadThreshold: 0.5,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	fmt.Printf("generating relations: R=%d tuples, S=%d tuples, skew s=%.1f\n",
		*buildN, *probeN, *skew)
	rg := workload.RelationGen{Keys: 1000, S: 0, Seed: 1}
	sg := workload.RelationGen{Keys: 1000, S: *skew, Seed: 2}
	r := rg.Generate(*buildN)
	s := sg.Generate(*probeN)
	want := workload.JoinMatches(r, s)

	// The whole dataflow (apps.HashJoinPlan): two scans, one join, one sink.
	c, err := apps.HashJoinPlan().Compile(q.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Explain())

	store := cluster.Store()
	if err := apps.LoadRelations(ctx, store, apps.JoinBagR, apps.JoinBagS, r, s); err != nil {
		log.Fatal(err)
	}

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
	fmt.Printf("join (%s) produced %d matches (expected %d) in %v\n",
		c.Joins[0].Strategy, len(got), len(want), elapsed)
	fmt.Printf("master stats: %+v\n", cluster.Master().Stats())
	if !slices.Equal(got, want) {
		log.Fatal("WRONG RESULT: the matches differ from the serial join's")
	}
}
