// HashJoin: the paper's second workload (§5.3), expressed through the
// query planner instead of hand-wired stages — roughly a third of the
// user-facing code the stage-level version needed (that wiring survives
// as the oracle in internal/apps.HashJoinApp).
//
// The program declares WHAT to compute — join R and S on the tuple key —
// and the planner decides HOW: it consults warm statistics (here, a
// sketch of the probe relation's keys) and picks broadcast when R is
// small, a skewed join with pre-isolated heavy hitters when the probe
// keys are skewed, or plain repartition otherwise; runtime sketch-driven
// splitting still adapts the edge either way.
//
// Run with: go run ./examples/hashjoin [-build N] [-probe N] [-skew S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/apps"
	"repro/internal/workload"
)

type tuple = hurricane.Pair[uint64, uint64]
type match = hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]

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
			CloneInterval:   20 * time.Millisecond,
			SplitInterval:   10 * time.Millisecond,
			SplitImbalance:  1.5,
			SplitMinRecords: 8192,
			SplitFan:        4,
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
	want := workload.JoinCount(r, s)

	// The whole dataflow: two scans, one join, one sink.
	p := q.New("hashjoin")
	build := q.Scan(p, apps.JoinBagR, apps.TupleCodec)
	probe := q.Scan(p, apps.JoinBagS, apps.TupleCodec)
	q.Join(build, probe,
		func(t tuple) uint64 { return t.First },
		func(t tuple) uint64 { return t.First },
		apps.MatchCodec,
		func(b, pr tuple, emit func(match) error) error {
			return emit(match{First: pr.First,
				Second: hurricane.Pair[uint64, uint64]{First: b.Second, Second: pr.Second}})
		},
	).Sink("matches")

	// Warm statistics: build-side size plus the probe key distribution
	// (what a previous run's edge sketch would have recorded).
	c, err := p.Compile(q.Options{Parts: 8, Stats: apps.JoinWarmStats(r, s)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Explain())

	store := cluster.Store()
	if err := apps.LoadRelations(ctx, store, r, s); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	if err := c.Run(ctx, cluster); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	got, err := hurricane.Collect(ctx, store, c.SinkBag("matches"), apps.MatchCodec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join (%s) produced %d matches (expected %d) in %v\n",
		c.Joins[0].Strategy, len(got), want, elapsed)
	fmt.Printf("master stats: %+v\n", cluster.Master().Stats())
	if int64(len(got)) != want {
		log.Fatal("WRONG RESULT")
	}
}
