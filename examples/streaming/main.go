// Streaming: Hurricane's answer to the dataflow model the paper leaves as
// future work for streaming workloads (§3.1) — event-time windows.
//
//	go run ./examples/streaming
//
// An unbounded click source is cut into event-time tumbling windows
// (internal/stream), each executed as a complete groupby job
// (apps.GroupByApp) with a region-partitioned shuffle edge. Cross-window
// skew memory warm-starts every window's partition map from its
// predecessor's final map and merged edge sketch, so the hot region is
// pre-isolated instead of rediscovered each window. Every window's
// per-region counts and distinct-IP estimates are checked against the
// serial groupby of its clicks; a miss exits non-zero.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"maps"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 4,
		ComputeNodes: 4,
		SlotsPerNode: 2,
		ChunkSize:    16 << 10,
		Master:       hurricane.MasterConfig{CloneInterval: 10 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	const (
		windows   = 6
		perWindow = 15000
		parts     = 4
	)
	// Zipf(1.3) clicks whose hot region migrates every two windows.
	gen := workload.ClickLogGen{
		S: 1.3, Regions: 64, UniquePerRegion: 4096,
		Seed: 7, DriftEvery: 2 * perWindow,
	}
	clicks := apps.ClickStreamWindows(gen, windows, perWindow)
	origin := int64(1_000_000_000_000)
	feed := &apps.ClickStreamSource{
		Gen: gen, Origin: origin,
		PerWindow: perWindow, Total: windows * perWindow,
	}

	// The feed geolocates each click into a (region, IP) tuple; the
	// per-window DAG is the groupby: region-partitioned shuffle →
	// per-region count + distinct-IP HLL.
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:        "clicks",
		App:         apps.GroupByApp(parts, true, 0, 0),
		Sources:     map[string]hurricane.StreamSource{apps.GroupByIn: hurricane.StreamSourceOf(apps.TupleCodec, feed.Poll)},
		Window:      time.Second,
		Origin:      origin,
		MaxInFlight: 1, // sequential windows so every successor is warm-started
	})
	if err != nil {
		log.Fatal(err)
	}

	store := cluster.Store()
	fmt.Printf("%-8s %8s %10s %7s  %s\n",
		"window", "records", "latency", "seeded", "hottest regions")
	for {
		res, err := h.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if res.Err != nil {
			log.Fatalf("window %d: %v", res.Index, res.Err)
		}
		got, err := apps.CollectGroupBy(ctx, store, res.Bag(apps.GroupByOut))
		if err != nil {
			log.Fatal(err)
		}
		if want := apps.SerialGroupBy(clicks[res.Index]); !maps.Equal(got, want) {
			log.Fatalf("window %d: got %v, want the serial groupby %v", res.Index, got, want)
		}
		// Top-2 regions by click count: watch the hot region drift.
		top := [2]int{-1, -1}
		for region, r := range got {
			switch {
			case top[0] < 0 || r.Count > got[uint64(top[0])].Count:
				top[1], top[0] = top[0], int(region)
			case top[1] < 0 || r.Count > got[uint64(top[1])].Count:
				top[1] = int(region)
			}
		}
		fmt.Printf("w%-7d %8d %9.1fms %7v  %s(%d) %s(%d)\n",
			res.Index, res.Records,
			float64(res.DoneAt.Sub(res.SubmittedAt).Microseconds())/1000,
			res.Seeded,
			workload.RegionName(top[0]), got[uint64(top[0])].Count,
			workload.RegionName(top[1]), got[uint64(top[1])].Count)
	}
	if err := h.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	st := h.Stats()
	fmt.Printf("\n%d windows completed, %d failed; skew memory from window %d\n",
		st.Completed, st.Failed, st.MemoryWindow)
	fmt.Println("later windows start with the hot region already isolated (seeded=true)")
	fmt.Println("every window's per-region counts and distinct-IP estimates match the serial groupby")
}
