package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/workload"
)

// runStream drives the continuous-ingestion subsystem against the remote
// TCP storage tier: every window runs the groupby (apps.GroupByApp) over
// the window's (region, IP) clicks, geolocated at the source. Per-window
// source bags, partitioned shuffle edges and sketch pushes travel over the
// storage transport; each window's warm-start seed maps travel in its
// submission. Every window's per-region counts and distinct-IP estimates
// are verified against the serial groupby of its clicks.
func runStream(ctx context.Context, store *bag.Store, names []string, records, windows int, skew float64, computes, slots, parts int) {
	perWindow := records / windows
	if perWindow <= 0 {
		log.Fatalf("-records %d too small for %d windows", records, windows)
	}
	fmt.Printf("streaming %d windows x %d clicks (s=%.1f, drifting hot region) onto %d storage nodes...\n",
		windows, perWindow, skew, len(names))
	gen := workload.ClickLogGen{
		S: skew, Regions: 64, UniquePerRegion: 1 << 12,
		Seed: 33, DriftEvery: 2 * perWindow,
	}
	clicks := apps.ClickStreamWindows(gen, windows, perWindow)

	cluster := core.NewClusterOverStore(store, runConfig(computes, slots))
	defer cluster.Shutdown()

	origin := int64(1_000_000_000_000)
	src := &apps.ClickStreamSource{
		Gen: gen, Origin: origin,
		PerWindow: perWindow, Total: windows * perWindow, Batch: 2048,
	}
	start := time.Now()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "clicks",
		App:     apps.GroupByApp(parts, true, 0, 0),
		Sources: map[string]hurricane.StreamSource{apps.GroupByIn: src},
		Window:  time.Second,
		Origin:  origin,
	})
	if err != nil {
		log.Fatal(err)
	}

	bad, seeded := 0, 0
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			log.Fatalf("window %d: %v", w, err)
		}
		if res.Err != nil {
			log.Fatalf("window %d failed: %v", w, res.Err)
		}
		got, err := apps.CollectGroupByFrom(ctx, store, res.Bag(apps.GroupByOut))
		if err != nil {
			log.Fatal(err)
		}
		if err := checkGroupBy(got, clicks[w]); err != nil {
			fmt.Printf("window %d WRONG: %v\n", w, err)
			bad++
		}
		if res.Seeded {
			seeded++
		}
		fmt.Printf("window %2d: %6d records  %6.1fms  attempts %d  seeded %v\n",
			res.Index, res.Records,
			float64(res.DoneAt.Sub(res.SubmittedAt).Microseconds())/1000,
			res.Attempts, res.Seeded)
	}
	if err := h.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	st := h.Stats()
	fmt.Printf("stream on %d remote storage nodes: %d windows in %v (%d warm-started), stats %+v\n",
		len(names), windows, time.Since(start).Round(time.Millisecond), seeded, st)
	if bad > 0 {
		log.Fatal("verification failed")
	}
	fmt.Println("all windows verified against the serial groupby")
}
