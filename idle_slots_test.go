package repro

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// TestIdleSlotsTakeChunks is the paper's mechanism (§3.2, §4.2) asserted on
// records, not on wall clock: while a partitioned consumer has work left,
// every idle slot gets a clone that pulls chunks from the leaf with the most
// of it, so no worker ends up with much more than its share — wherever the
// heavy keys hash. The shape is the benchmark's groupby_slowrec (4 base
// partitions, 4 x 2 slots, a simulated 5 us per record in the aggregation)
// over every placement class of the key domain at Zipf(1.3), where the hot
// keys share a partition for some rotations and not for others, and at
// Zipf(2), where one key holds 61 % of the records. Chunks are 2 KiB, not the
// benchmark's 4: a worker's prefetch pipeline holds up to 8 chunks, and at a
// quarter of the benchmark's records 4 KiB chunks would put half the input in
// pipelines — the busiest worker's excess would then be what it happened to
// have prefetched when its leaf ran dry.
func TestIdleSlotsTakeChunks(t *testing.T) {
	const records, keys, parts, nodes, perNode = 50_000, 64, 4, 4, 2
	const slots = nodes * perNode
	type shape struct {
		s float64
		r uint64
	}
	shapes := []shape{{2, 0}}
	for _, r := range []uint64{0, 1, 2, 3, 4, 5, 7, 11} {
		shapes = append(shapes, shape{1.3, r})
	}
	before := runtime.NumGoroutine()
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("zipf=%v/rotate=%d", sh.s, sh.r), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tuples := workload.ZipfTuples(records, keys, sh.s, 47)
			for i := range tuples {
				tuples[i].Key = (tuples[i].Key + sh.r) % keys
			}
			cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
				StorageNodes: 4, ComputeNodes: nodes, SlotsPerNode: perNode, ChunkSize: 2 << 10,
				Node:   hurricane.NodeConfig{MonitorInterval: 2 * time.Millisecond},
				Master: hurricane.MasterConfig{CloneInterval: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()
			h, err := cluster.SubmitJob(ctx, apps.GroupByApp(parts, true, 0, 5000), hurricane.JobConfig{Name: "slots"})
			if err != nil {
				t.Fatal(err)
			}
			if err := apps.LoadGroupBy(ctx, cluster.Store(), h.Bag(apps.GroupByIn), tuples); err != nil {
				t.Fatal(err)
			}
			began := time.Now()
			if err := h.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			wall := time.Since(began)

			got, err := apps.CollectGroupBy(ctx, cluster.Store(), h.Bag(apps.GroupByOut))
			if err != nil {
				t.Fatal(err)
			}
			if want := apps.SerialGroupBy(tuples); !maps.Equal(got, want) {
				t.Fatalf("got %v, want the serial groupby %v", got, want)
			}

			// Every tuple encodes to the same number of bytes (keys below 128),
			// so a worker's share of the stage's input bytes is its share of
			// the records.
			p := h.Profile()
			stage := p.Stage("aggregate")
			if stage == nil || len(p.Edges) != 1 {
				t.Fatalf("profile has no aggregate stage or not one edge: %+v", p)
			}
			var total, busiest int64
			for i := range stage.Tasks {
				total += stage.Tasks[i].BytesIn
				busiest = max(busiest, stage.Tasks[i].BytesIn)
			}
			share := float64(busiest) / float64(total) * slots
			t.Logf("wall %v; %d aggregate workers (%d clones), busiest took %.2fx records/slots",
				wall.Round(time.Millisecond), len(stage.Tasks), p.Edges[0].Clones, share)
			if share > 1.5 {
				t.Errorf("busiest aggregate worker consumed %.2fx records/slots, want <= 1.5: idle slots were not used", share)
			}
			if p.Edges[0].Clones == 0 {
				t.Errorf("the aggregate stage was never cloned")
			}
			if len(stage.Tasks) > 3*slots {
				t.Errorf("%d aggregate workers for %d slots: clones were started with nothing to take", len(stage.Tasks), slots)
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked", runtime.NumGoroutine()-before)
		}
	}
}
