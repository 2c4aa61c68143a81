// ClickLog: the paper's running example (§2.1) end-to-end on the real
// engine — count distinct IP addresses per geographic region in a skewed
// click log.
//
// Phase 1 geolocates clicks into 16 region bags, Phase 2 computes each
// region's distinct-IP bitset (merge: bitwise OR), Phase 3 counts bits
// (merge: sum). The input is zipf-skewed, so the hot region's Phase 2
// task gets cloned; watch the Clones counter.
//
// Run with: go run ./examples/clicklog [-records N] [-skew S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

func main() {
	records := flag.Int("records", 500000, "number of click records")
	skew := flag.Float64("skew", 1.0, "zipf skew parameter s in [0,1]")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	const regions, hostBits = 16, 12
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 4,
		Master: hurricane.MasterConfig{
			CloneInterval: 20 * time.Millisecond, // scaled-down 2s cadence
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

	fmt.Printf("generating %d clicks with skew s=%.1f over %d regions...\n",
		*records, *skew, regions)
	gen := workload.ClickLogGen{S: *skew, Regions: regions, UniquePerRegion: 1 << hostBits, Seed: 42}
	ips := gen.Generate(*records)
	want := workload.DistinctPerRegion(ips, regions)

	if err := apps.LoadClickLog(ctx, cluster.Store(), apps.ClickLogBagIn, ips); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	if err := cluster.Run(ctx, apps.ClickLogApp(regions, hostBits, false)); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	got, err := apps.ClickLogCounts(ctx, cluster.Store(), func(b string) string { return b }, regions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10s %10s %8s\n", "region", "distinct", "expected", "ok")
	bad := 0
	for r := 0; r < regions; r++ {
		ok := "yes"
		if got[r] != want[r] {
			ok = "NO"
			bad++
		}
		fmt.Printf("%-12s %10d %10d %8s\n", workload.RegionName(r), got[r], want[r], ok)
	}
	fmt.Printf("\ncompleted in %v, master stats: %+v\n", elapsed, cluster.Master().Stats())
	if bad > 0 {
		log.Fatalf("%d regions wrong", bad)
	}
}
