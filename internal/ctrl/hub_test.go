package ctrl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// TestHubBatchesAndVersions: signals batch between snapshots, snapshots
// are versioned, and the overload buffer drains exactly once.
func TestHubBatchesAndVersions(t *testing.T) {
	h := NewHub(HubConfig{})
	h.Heartbeat("node-0", 1, 2)
	h.OverloadSignal(Overload{Task: "map", Busy: 0.9})
	h.OverloadSignal(Overload{Task: "map", Busy: 0.95})

	select {
	case <-h.Wake():
	default:
		t.Fatal("signals did not wake the hub")
	}

	snap := h.Snapshot(context.Background(), nil)
	if snap.Version != 1 {
		t.Fatalf("first snapshot version %d", snap.Version)
	}
	if len(snap.Overloads) != 2 {
		t.Fatalf("want 2 batched overloads, got %d", len(snap.Overloads))
	}
	if tel, ok := snap.Nodes["node-0"]; !ok || tel.Slots != 2 {
		t.Fatalf("heartbeat not ingested: %+v", snap.Nodes)
	}

	snap2 := h.Snapshot(context.Background(), nil)
	if snap2.Version != 2 {
		t.Fatalf("second snapshot version %d", snap2.Version)
	}
	if len(snap2.Overloads) != 0 {
		t.Fatal("overloads delivered twice")
	}
}

// TestHubOverloadBackpressure: the buffer caps and drops instead of
// growing without bound.
func TestHubOverloadBackpressure(t *testing.T) {
	h := NewHub(HubConfig{})
	for i := 0; i < maxPendingOverloads+10; i++ {
		h.OverloadSignal(Overload{Task: "map"})
	}
	if got := h.Dropped(); got != 10 {
		t.Fatalf("dropped %d, want 10", got)
	}
	snap := h.Snapshot(context.Background(), nil)
	if len(snap.Overloads) != maxPendingOverloads {
		t.Fatalf("buffered %d, want cap %d", len(snap.Overloads), maxPendingOverloads)
	}
}

// TestHubFetchRateLimit: edge sketch fetches are rate-limited per edge
// and only issued for active edges.
func TestHubFetchRateLimit(t *testing.T) {
	fetches := 0
	h := NewHub(HubConfig{
		FetchInterval: time.Hour, // one fetch, then rate-limited
		FetchStats: func(ctx context.Context, edge string) (*sketch.EdgeStats, error) {
			fetches++
			s := sketch.NewEdgeStats()
			s.Counts[edge+".p0"] = 42
			return s, nil
		},
	})
	fill := func(active bool) func(*Snapshot) {
		return func(snap *Snapshot) {
			snap.Edges["shuf"] = &EdgeTel{Name: "shuf", Active: active}
			snap.Edges["idle"] = &EdgeTel{Name: "idle", Active: false}
		}
	}

	snap := h.Snapshot(context.Background(), fill(true))
	if fetches != 1 {
		t.Fatalf("want 1 fetch (active edge only), got %d", fetches)
	}
	if snap.Edges["shuf"].Stats == nil || snap.Edges["shuf"].Stats.Counts["shuf.p0"] != 42 {
		t.Fatal("fetched stats not installed on the edge")
	}
	if snap.Edges["idle"].Stats != nil {
		t.Fatal("inactive edge was fetched")
	}

	snap = h.Snapshot(context.Background(), fill(true))
	if fetches != 1 {
		t.Fatalf("rate limit not applied: %d fetches", fetches)
	}
	if snap.Edges["shuf"].Stats != nil {
		t.Fatal("stale round must carry nil stats (no fresh evidence)")
	}

	// The hub's own record of the edge keeps the last stats it saw, and
	// takes the seal-time observation in their place.
	rec := h.Edges()
	if rec["shuf"].Stats == nil || rec["shuf"].Stats.Counts["shuf.p0"] != 42 || !rec["shuf"].Active {
		t.Fatalf("edge record lost the fetched stats: %+v", rec["shuf"])
	}
	if e, ok := rec["idle"]; !ok || e.Stats != nil {
		t.Fatalf("never-fetched edge: recorded=%v stats=%v", ok, e.Stats)
	}
	final := sketch.NewEdgeStats()
	final.Counts["shuf.p0"] = 99
	tried := map[string]bool{"shuf.p0": true}
	h.ObserveEdge(EdgeTel{Name: "shuf", Stats: final, Unsplittable: tried})
	tried["shuf.p1"] = true // the owner's set keeps changing; the record's must not
	if e := h.Edges()["shuf"]; e.Stats.Counts["shuf.p0"] != 99 || e.Active || len(e.Unsplittable) != 1 {
		t.Fatalf("edge record after the seal-time observation: %+v", e)
	}
}

// TestHubEdgesConcurrent: the edge records are read from other goroutines
// (the sampler, HTTP handlers, a stream's watcher) while the control loop
// snapshots and the seal-time observation lands. Run under -race.
func TestHubEdgesConcurrent(t *testing.T) {
	h := NewHub(HubConfig{
		FetchStats: func(ctx context.Context, edge string) (*sketch.EdgeStats, error) {
			s := sketch.NewEdgeStats()
			s.Counts[edge+".p0"] = 1
			return s, nil
		},
	})
	tried := map[string]bool{} // owned by the snapshotting goroutine, as in the master
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tried[fmt.Sprintf("shuf.p%d", i)] = true
			h.Snapshot(context.Background(), func(snap *Snapshot) {
				snap.Edges["shuf"] = &EdgeTel{Name: "shuf", PMap: shuffle.BaseMap("shuf", 4), Active: true, Unsplittable: tried}
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			h.ObserveEdge(EdgeTel{Name: "sealed", PMap: shuffle.BaseMap("sealed", 2)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, e := range h.Edges() {
				EdgeHeat(&e)
				for range e.Unsplittable {
				}
			}
		}
	}()
	wg.Wait()
	if e := h.Edges()["shuf"]; e.Stats == nil || len(e.Unsplittable) != rounds {
		t.Fatalf("last record: stats=%v unsplittable=%d", e.Stats, len(e.Unsplittable))
	}
}

// TestHubSampleMemoized: bag probes are memoized per snapshot, including
// failures, and a later snapshot probes again only once they are a fetch
// interval old.
func TestHubSampleMemoized(t *testing.T) {
	probes := 0
	h := NewHub(HubConfig{
		FetchInterval: 100 * time.Millisecond,
		SampleBag: func(ctx context.Context, bag string) (*BagTel, error) {
			probes++
			if bag == "broken" {
				return nil, fmt.Errorf("probe failed")
			}
			return &BagTel{ReadBytes: 1, RemainingBytes: 2}, nil
		},
	})
	snap := h.Snapshot(context.Background(), nil)
	for i := 0; i < 3; i++ {
		if tel := snap.SampleBag("in"); tel == nil || tel.RemainingBytes != 2 {
			t.Fatalf("probe %d: %+v", i, tel)
		}
		if tel := snap.SampleBag("broken"); tel != nil {
			t.Fatalf("failed probe returned %+v", tel)
		}
	}
	if probes != 2 {
		t.Fatalf("probes not memoized: %d calls", probes)
	}
	if h.Snapshot(context.Background(), nil).SampleBag("in"); probes != 2 {
		t.Fatalf("fresh probe repeated by the next snapshot: %d calls", probes)
	}
	time.Sleep(110 * time.Millisecond)
	if h.Snapshot(context.Background(), nil).SampleBag("in"); probes != 3 {
		t.Fatalf("stale probe not repeated: %d calls", probes)
	}
}

// TestHubWakeCoalesces: many signals produce at most one pending wake;
// the loop never queues redundant iterations.
func TestHubWakeCoalesces(t *testing.T) {
	h := NewHub(HubConfig{})
	for i := 0; i < 100; i++ {
		h.Nudge()
	}
	n := 0
	for {
		select {
		case <-h.Wake():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("want exactly 1 coalesced wake, got %d", n)
	}
}
