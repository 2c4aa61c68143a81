// Query: the declarative front door to Hurricane's adaptive engine.
//
// This example answers "which regions produce the most clicks, by name?"
// as a single dataflow expression:
//
//	clicks -> count per region -> top 5 -> join region names -> sink
//
// and lets the planner pick the physical execution: the aggregation gets
// a partitioned shuffle edge (whose hot partitions clones share at
// runtime), the top-5 compiles to a serial finalize stage, and the name
// join — whose build side, a 64-row dimension table, every worker scans —
// fuses into it as a broadcast join with no shuffle at all. Compare with
// examples/clicklog, which wires the same kind of analysis by hand; new
// scenarios should start from this API, not from raw stages.
//
// Run with: go run ./examples/query [-records N] [-skew S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/hurricane"
	"repro/hurricane/q"
	"repro/internal/workload"
)

type regionCount = hurricane.Pair[uint64, int64]
type namedCount = hurricane.Pair[string, int64]

func main() {
	records := flag.Int("records", 200000, "click records to generate")
	skew := flag.Float64("skew", 1.0, "zipf skew of region popularity")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
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

	// ---- the query ----
	dimCodec := hurricane.PairOf(hurricane.Uint64Of, hurricane.StringOf)
	outCodec := hurricane.PairOf(hurricane.StringOf, hurricane.Int64Of)

	p := q.New("topregions")
	clicks := q.Scan(p, "clicks", hurricane.Uint64Of)
	perRegion := q.CountByKey(clicks, func(ip uint64) uint64 {
		return uint64(workload.Geolocate(uint32(ip)))
	})
	top5 := q.TopK(perRegion, 5, func(a, b regionCount) bool {
		if a.Second != b.Second {
			return a.Second < b.Second
		}
		return a.First > b.First
	})
	regions := q.Scan(p, "regions", dimCodec)
	q.Join(regions, top5,
		func(d hurricane.Pair[uint64, string]) uint64 { return d.First },
		func(c regionCount) uint64 { return c.First },
		outCodec,
		func(d hurricane.Pair[uint64, string], c regionCount, emit func(namedCount) error) error {
			return emit(namedCount{First: d.Second, Second: c.Second})
		},
	).Sink("top")

	// The join fuses into the top-k stage: every worker scans the
	// dimension table, so the ranked counts need no shuffle.
	c, err := p.Compile(q.Options{Parts: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Explain())

	// ---- input data ----
	fmt.Printf("generating %d clicks (s=%.1f)...\n", *records, *skew)
	gen := workload.ClickLogGen{S: *skew, UniquePerRegion: 1 << 12, Seed: 42}
	ips := gen.Generate(*records)
	store := cluster.Store()
	vals := make([]uint64, len(ips))
	truth := make(map[uint64]int64)
	for i, ip := range ips {
		vals[i] = uint64(ip)
		truth[uint64(workload.Geolocate(ip))]++
	}
	if err := hurricane.Load(ctx, store, "clicks", hurricane.Uint64Of, vals); err != nil {
		log.Fatal(err)
	}
	if err := hurricane.Seal(ctx, store, "clicks"); err != nil {
		log.Fatal(err)
	}
	dim := make([]hurricane.Pair[uint64, string], workload.DefaultRegions)
	for i := range dim {
		dim[i] = hurricane.Pair[uint64, string]{First: uint64(i), Second: workload.RegionName(i)}
	}
	if err := hurricane.Load(ctx, store, "regions", dimCodec, dim); err != nil {
		log.Fatal(err)
	}
	if err := hurricane.Seal(ctx, store, "regions"); err != nil {
		log.Fatal(err)
	}

	// ---- run + verify ----
	start := time.Now()
	if err := c.Run(ctx, cluster); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	got, err := hurricane.Collect(ctx, store, c.SinkBag("top"), outCodec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top %d regions of %d clicks in %v:\n", len(got), *records, elapsed)
	for i, nc := range got {
		fmt.Printf("  %d. %-10s %8d clicks\n", i+1, nc.First, nc.Second)
	}
	// The run's mitigation story, from the job's metrics snapshot (the
	// same per-job series /metrics serves, with the job label stripped).
	m := cluster.Job(c.App.Name()).Metrics()
	fmt.Printf("mitigation: %.0f clones; %.0f tasks finished, %.0f control snapshots\n",
		m["hurricane_core_clones_total"], m["hurricane_core_tasks_finished_total"],
		m["hurricane_ctrl_snapshots_total"])

	// Oracle check: the ranking must match ground truth exactly.
	for i, nc := range got {
		bestRegion, best := uint64(0), int64(-1)
		for r, n := range truth {
			if n > best || (n == best && r < bestRegion) {
				bestRegion, best = r, n
			}
		}
		delete(truth, bestRegion)
		if nc.First != workload.RegionName(int(bestRegion)) || nc.Second != best {
			log.Fatalf("rank %d: got (%s, %d), want (%s, %d)",
				i+1, nc.First, nc.Second, workload.RegionName(int(bestRegion)), best)
		}
	}
	fmt.Println("verified against ground truth")
}
