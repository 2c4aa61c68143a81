package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSpanSnapshotAccounting: the worker's snapshot derives compute as
// the wall-clock remainder, so the in-worker phases always sum exactly
// to the worker's wall time (the property EXPLAIN ANALYZE and the
// critical path rely on).
func TestSpanSnapshotAccounting(t *testing.T) {
	tc := &TaskCtx{bp: &Blueprint{ID: "t/w0@e0", Spec: "t", Worker: 0}}
	tc.spanStartNS = 1_000
	tc.spanEndNS = 11_000
	tc.queueNS = 300
	tc.spans = spanAcc{readNS: 2_000, writeNS: 1_000, shuffleNS: 500, finalizeNS: 500}
	tc.bytesIn.Store(64)

	s := tc.spanSnapshot()
	if s == nil {
		t.Fatal("snapshot nil with spans on")
	}
	if s.ShuffleNS != 1_500 { // inserter waits + partitioned flushes
		t.Fatalf("shuffle = %d", s.ShuffleNS)
	}
	if s.ComputeNS != 6_000 {
		t.Fatalf("compute = %d", s.ComputeNS)
	}
	if sum := s.ReadNS + s.ComputeNS + s.ShuffleNS + s.FinalizeNS; sum != s.WallNS() {
		t.Fatalf("phases sum %d, wall %d", sum, s.WallNS())
	}
	if s.QueueNS != 300 || s.BytesIn != 64 {
		t.Fatalf("snapshot: %+v", s)
	}

	// Measured phases can slightly overrun the wall clock (independent
	// clock reads); compute clamps at zero rather than going negative.
	tc.spans.readNS = 50_000
	if s := tc.spanSnapshot(); s.ComputeNS != 0 {
		t.Fatalf("compute not clamped: %d", s.ComputeNS)
	}

	// Never-started workers produce no snapshot.
	tc.spanStartNS = 0
	if tc.spanSnapshot() != nil {
		t.Fatal("snapshot for never-started worker")
	}
}

// TestSpanAccountingAllocs: the per-chunk span hot path (read/write
// credits, shuffle flush credits with a reused parts map) must not
// allocate — it runs once per chunk on every worker.
func TestSpanAccountingAllocs(t *testing.T) {
	tc := &TaskCtx{}
	if n := testing.AllocsPerRun(1000, func() {
		tc.spans.addRead(5)
		tc.spans.addWrite(3)
	}); n != 0 {
		t.Fatalf("read/write credit allocates %.1f per op", n)
	}
	parts := map[string]int64{"shuf.p0": 10, "shuf.p1": 5}
	tc.AddShuffleSpan(100, 15, parts) // first call builds the map
	if n := testing.AllocsPerRun(1000, func() {
		tc.AddShuffleSpan(100, 15, parts)
	}); n != 0 {
		t.Fatalf("shuffle credit allocates %.1f per op", n)
	}
}

// TestProfileEndpointLiveCluster runs a job to completion and checks the
// profile surface end to end: JobHandle.Profile carries spans for every
// stage with coherent phase accounting, and /debug/profile/<job> serves
// the same data as JSON (404 for unknown jobs).
func TestProfileEndpointLiveCluster(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var proc atomic.Int64
	h, err := cluster.SubmitJob(ctx, sumApp(&proc), JobConfig{Name: "prof"})
	if err != nil {
		t.Fatal(err)
	}
	loadIntsBag(t, ctx, cluster.Store(), h.Bag("in"), 8000)
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	p := h.Profile()
	if p == nil || p.Job != "prof" {
		t.Fatalf("profile: %+v", p)
	}
	if p.WallNS <= 0 {
		t.Fatalf("wall %d", p.WallNS)
	}
	if len(p.Stages) == 0 || len(p.Critical) == 0 || p.CriticalNS <= 0 {
		t.Fatalf("profile missing stages or critical path: %s", p)
	}
	for _, st := range p.Stages {
		for _, s := range st.Tasks {
			wall := s.WallNS()
			if wall <= 0 {
				t.Fatalf("%s: wall %d", s.TaskID, wall)
			}
			// In-worker phases sum to wall exactly while compute is
			// positive; allow a sliver of clock skew for the clamped case.
			sum := s.ReadNS + s.ComputeNS + s.ShuffleNS + s.FinalizeNS
			diff := sum - wall
			if diff < 0 {
				diff = -diff
			}
			if diff > wall/10+int64(time.Millisecond) {
				t.Fatalf("%s: phases sum %d vs wall %d", s.TaskID, sum, wall)
			}
		}
	}

	srv := httptest.NewServer(cluster.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/profile/prof")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/profile/prof: status %d: %s", resp.StatusCode, body)
	}
	var served obs.Profile
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/profile/prof not JSON: %v", err)
	}
	if served.Job != "prof" || len(served.Stages) != len(p.Stages) || served.CriticalNS != p.CriticalNS {
		t.Fatalf("served profile diverges: %+v vs %+v", served, p)
	}

	resp, err = http.Get(srv.URL + "/debug/profile/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}
