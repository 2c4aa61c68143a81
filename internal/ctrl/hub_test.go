package ctrl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// TestHubBatchesAndVersions: overload signals batch between snapshots
// without waking the loop, snapshots are versioned, and the overload
// buffer drains exactly once.
func TestHubBatchesAndVersions(t *testing.T) {
	h := NewHub(HubConfig{})
	h.OverloadSignal(Overload{Task: "map", Worker: 0, Busy: 0.9})
	h.OverloadSignal(Overload{Task: "map", Worker: 1, Busy: 0.95})

	select {
	case <-h.Wake():
		t.Fatal("telemetry woke the loop: only a cause may")
	default:
	}

	snap := h.Snapshot(context.Background(), nil)
	if snap.Version != 1 {
		t.Fatalf("first snapshot version %d", snap.Version)
	}
	if len(snap.Overloads) != 2 {
		t.Fatalf("want 2 batched overloads, got %d", len(snap.Overloads))
	}

	snap2 := h.Snapshot(context.Background(), nil)
	if snap2.Version != 2 {
		t.Fatalf("second snapshot version %d", snap2.Version)
	}
	if len(snap2.Overloads) != 0 {
		t.Fatal("overloads delivered twice")
	}
}

// TestHubOverloadBackpressure: the buffer is bounded by the workers that
// signal, not by how often they re-send — a late snapshot sees each live
// worker once, with its newest signal — and past the cap it drops instead
// of growing.
func TestHubOverloadBackpressure(t *testing.T) {
	o := obs.New(0)
	h := NewHub(HubConfig{Obs: o, Job: "j"})
	dropped := o.Counter("hurricane_ctrl_overloads_dropped_total", "job", "j")
	const workers = 8
	for round := 0; round <= maxPendingOverloads; round++ { // 8 workers re-sending
		for w := 0; w < workers; w++ {
			h.OverloadSignal(Overload{Task: "agg", Epoch: 1, Worker: w, Busy: float64(round), Inputs: []string{fmt.Sprint(round)}})
		}
	}
	h.OverloadSignal(Overload{Task: "agg", Epoch: 1, Merge: true, Busy: 0.5}) // the merge is its own worker
	if got := dropped.Value(); got != 0 {
		t.Fatalf("dropped %d re-sent signals, want 0", got)
	}
	snap := h.Snapshot(context.Background(), nil)
	if len(snap.Overloads) != workers+1 {
		t.Fatalf("buffered %d signals, want one per live worker (%d)", len(snap.Overloads), workers+1)
	}
	for w, o := range snap.Overloads[:workers] {
		if o.Worker != w || o.Busy != maxPendingOverloads || o.Inputs[0] != fmt.Sprint(maxPendingOverloads) {
			t.Fatalf("worker %d survivor %+v, want its newest signal", w, o)
		}
	}
	if len(h.Snapshot(context.Background(), nil).Overloads) != 0 {
		t.Fatal("overloads delivered twice")
	}

	for w := 0; w < maxPendingOverloads+10; w++ {
		h.OverloadSignal(Overload{Task: "wide", Worker: w})
	}
	h.OverloadSignal(Overload{Task: "wide", Worker: 0, Busy: 1}) // a buffered worker still updates
	if got := dropped.Value(); got != 10 {
		t.Fatalf("dropped %d, want 10", got)
	}
	snap = h.Snapshot(context.Background(), nil)
	if len(snap.Overloads) != maxPendingOverloads || snap.Overloads[0].Busy != 1 {
		t.Fatalf("buffered %d (first busy %v), want cap %d with worker 0 updated",
			len(snap.Overloads), snap.Overloads[0].Busy, maxPendingOverloads)
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
	h.ObserveEdge(EdgeTel{Name: "shuf", Stats: final})
	if e := h.Edges()["shuf"]; e.Stats.Counts["shuf.p0"] != 99 || e.Active {
		t.Fatalf("edge record after the seal-time observation: %+v", e)
	}
}

// TestHubEdgesConcurrent: the edge records are read from other goroutines
// (HTTP handlers, a stream's watcher) while the control loop
// snapshots and the seal-time observation lands. Run under -race.
func TestHubEdgesConcurrent(t *testing.T) {
	h := NewHub(HubConfig{
		FetchStats: func(ctx context.Context, edge string) (*sketch.EdgeStats, error) {
			s := sketch.NewEdgeStats()
			s.Counts[edge+".p0"] = 1
			return s, nil
		},
	})
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pm := shuffle.BaseMap("shuf", 4)
			pm.Version = i + 1
			h.Snapshot(context.Background(), func(snap *Snapshot) {
				snap.Edges["shuf"] = &EdgeTel{Name: "shuf", PMap: pm, Active: true}
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
			}
		}
	}()
	wg.Wait()
	if e := h.Edges()["shuf"]; e.Stats == nil || e.PMap.Version != rounds {
		t.Fatalf("last record: stats=%v map version %d, want %d", e.Stats, e.PMap.Version, rounds)
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

// TestHubWakeCoalesces: many raises produce one pending wake and one cause
// set, so the loop never queues redundant iterations — and no cause is
// lost: one raised after the loop took the set (while it scans) comes back
// from the next Take behind a fresh wake.
func TestHubWakeCoalesces(t *testing.T) {
	h := NewHub(HubConfig{})
	wakes := func() (n int) {
		for {
			select {
			case <-h.Wake():
				n++
			default:
				return n
			}
		}
	}
	for i := 0; i < 100; i++ {
		h.Raise(CauseDone)
		h.Raise(CauseRunning)
	}
	if n := wakes(); n != 1 {
		t.Fatalf("want exactly 1 coalesced wake, got %d", n)
	}
	if got := h.Take(); got != CauseDone|CauseRunning {
		t.Fatalf("took causes %b, want done|running", got)
	}
	h.Raise(CauseDone) // lands between the take and the scan
	if got := h.Take(); got != CauseDone || wakes() != 1 {
		t.Fatalf("cause raised after the take: next take %b, want done behind one wake", got)
	}
	if got := h.Take(); got != 0 || wakes() != 0 {
		t.Fatalf("idle hub: causes %b", got)
	}

	// Raised from many goroutines against a taking loop, every cause is
	// taken exactly as often as needed: none is pending at the end.
	var wg sync.WaitGroup
	var seen Cause
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-h.Wake():
				seen |= h.Take()
			case <-stop:
				seen |= h.Take()
				return
			}
		}
	}()
	for _, c := range []Cause{CauseReady, CauseRunning, CauseDone} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Raise(c)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if seen != CauseRecords {
		t.Fatalf("causes seen %b, want all three", seen)
	}
}
