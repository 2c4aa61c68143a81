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
// TCP storage tier: per-window source bags, partitioned shuffle edges,
// sketch pushes, and warm-start seed maps all travel over the storage
// transport. Every window's per-region counts are verified against an
// in-process oracle.
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
	truth := apps.ClickStreamTruth(gen, windows, perWindow)

	cluster := core.NewClusterOverStore(store, runConfig(computes, slots))
	defer cluster.Shutdown()

	app := apps.ClickStreamApp(parts, true, 0)

	origin := int64(1_000_000_000_000)
	src := &apps.ClickStreamSource{
		Gen: gen, Origin: origin,
		PerWindow: perWindow, Total: windows * perWindow, Batch: 2048,
	}
	start := time.Now()
	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "clicks",
		App:     app,
		Sources: map[string]hurricane.StreamSource{apps.ClickStreamIn: src},
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
		got, err := apps.CollectClickStream(ctx, store, res.Bag(apps.ClickStreamOut))
		if err != nil {
			log.Fatal(err)
		}
		wbad := 0
		for region, n := range truth[w] {
			if got[region].Count != n {
				wbad++
			}
		}
		if wbad > 0 || len(got) != len(truth[w]) {
			fmt.Printf("window %d: %d/%d regions WRONG\n", w, wbad, len(truth[w]))
			bad++
		}
		if res.Seeded {
			seeded++
		}
		fmt.Printf("window %2d: %6d records  %6.1fms  attempts %d  seeded %-5v  splits %d  isolations %d\n",
			res.Index, res.Records,
			float64(res.DoneAt.Sub(res.SubmittedAt).Microseconds())/1000,
			res.Attempts, res.Seeded, res.Splits, res.Isolations)
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
	fmt.Println("all windows verified against ground truth")
}
