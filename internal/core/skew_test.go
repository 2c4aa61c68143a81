package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/transport"
)

// The tests of the one picture of a shuffle edge: what /debug/skew shows
// and what a later run warm-starts from are the control plane's one record
// of the edge.

// skewedEdgeApp routes the records of "in" onto the partitioned edge "shuf",
// keyed by the record itself, and drains the edge. The producer holds its
// writer open until its source seals, so the edge stays active for as long
// as the test keeps feeding.
func skewedEdgeApp() *App {
	app := NewApp("skew").SourceBag("in").
		AddBag(BagSpec{Name: "shuf", Partitions: 4, Spread: true}).Bag("out")
	app.AddTask(TaskSpec{Name: "route", Inputs: []string{"in"}, Outputs: []string{"shuf"},
		Run: func(tc *TaskCtx) error {
			w := tc.ShuffleWriter(0)
			tc.OnFinish(w.Close)
			for {
				c, err := tc.Remove(0)
				if err == bag.ErrEmpty {
					return nil
				}
				if err != nil {
					return err
				}
				for r := chunk.NewReader(c); r.Remaining(); {
					rec, err := r.Next()
					if err != nil {
						return err
					}
					if err := w.Write(rec, rec); err != nil {
						return err
					}
				}
			}
		}})
	app.AddTask(TaskSpec{Name: "drain", Inputs: []string{"shuf"}, Outputs: []string{"out"},
		Run: func(tc *TaskCtx) error {
			for {
				if _, err := tc.Remove(0); err != nil {
					if err == bag.ErrEmpty {
						return nil
					}
					return err
				}
			}
		}})
	return app
}

// feedSkewed appends n records to an unsealed source bag: three in four are
// key 0, the rest spread over 64 keys.
func feedSkewed(t *testing.T, ctx context.Context, store *bag.Store, bagName string, n int) {
	t.Helper()
	h := store.Bag(bagName)
	w := chunk.NewTypedWriter[int64](chunk.Int64Codec{}, store.ChunkSize(), func(c chunk.Chunk) error {
		return h.Insert(ctx, c)
	})
	for i := 0; i < n; i++ {
		v := int64(0)
		if i%4 == 3 {
			v = int64(1 + i%64)
		}
		if err := w.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// feedUntil keeps feeding the job's source until cond holds and returns the
// number of records fed.
func feedUntil(t *testing.T, ctx context.Context, store *bag.Store, h *JobHandle, cond func() bool) int {
	t.Helper()
	fed := 0
	for !cond() {
		if ctx.Err() != nil {
			t.Fatalf("condition not reached after feeding %d records", fed)
		}
		feedSkewed(t, ctx, store, h.Bag("in"), 2048)
		fed += 2048
		time.Sleep(2 * time.Millisecond)
	}
	return fed
}

// TestCloneOnlyChainKeepsEdgeMemory: the stats a job's EdgeMemory hands to
// a warm start come from the control plane's snapshots. The default chain,
// cloning alone, still has every active edge's sketch fetched into its
// snapshots, and so into the edge's record, while the job runs.
func TestCloneOnlyChainKeepsEdgeMemory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cluster, err := NewCluster(testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	h, err := cluster.SubmitJob(ctx, skewedEdgeApp(), JobConfig{Name: "clones"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.Master().policies {
		if p.Name() != "clone" {
			t.Fatalf("policy %q installed, want a clone-only chain", p.Name())
		}
	}
	feedUntil(t, ctx, cluster.Store(), h, func() bool {
		em := h.Master().EdgeMemory()[h.Bag("shuf")]
		return em.Stats != nil && em.Stats.Total() > 0
	})
	if err := cluster.Store().Seal(ctx, h.Bag("in")); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// probedCalls counts the requests through f made from inside debugProbe,
// whatever else the cluster is doing meanwhile. Faulty taps a request on
// the requester's goroutine, so the requester's stack says where it came
// from.
func probedCalls(f *transport.Faulty) *atomic.Int64 {
	n := new(atomic.Int64)
	f.Add(transport.Rule{Tap: func(string, *transport.Request, *transport.Response) {
		buf := make([]byte, 32<<10)
		if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("core.debugProbe(")) {
			n.Add(1)
		}
	}})
	return n
}

//go:noinline
func debugProbe(f func()) { f() }

// TestDebugSkewReadsControllerRecord: /debug/skew shows the control plane's last record of an edge and ask the storage tier
// nothing, while the edge is being produced and after it has sealed — when
// the record is the exact final one the master took just before the
// producers' sketches were dropped.
func TestDebugSkewReadsControllerRecord(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store, f := storeBehind(t)
	calls := probedCalls(f)
	cluster := NewClusterOverStore(store, testClusterConfig())
	defer cluster.Shutdown()
	h, err := cluster.SubmitJob(ctx, skewedEdgeApp(), JobConfig{Name: "live"})
	if err != nil {
		t.Fatal(err)
	}
	edge := h.Bag("shuf")
	fed := feedUntil(t, ctx, store, h, func() bool {
		em := h.Master().EdgeMemory()[edge]
		return em.Stats != nil && len(em.Stats.Heavy) > 0
	})

	// The counter sees a storage call made from inside the probe...
	debugProbe(func() { _, _ = store.Sample(ctx, "nothing") })
	if calls.Swap(0) == 0 {
		t.Fatal("a storage call from inside debugProbe was not counted")
	}
	// ...and the debug surfaces make none.
	handler := cluster.DebugHandler()
	skew := func() []SkewEdge {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/skew", nil))
		var report []SkewEdge
		if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
			t.Fatalf("/debug/skew: %v", err)
		}
		return report
	}
	var report []SkewEdge
	debugProbe(func() { report = skew() })
	if n := calls.Load(); n != 0 {
		t.Fatalf("/debug/skew while the edge is produced made %d storage calls, want 0", n)
	}
	if len(report) != 1 || report[0].Edge != edge || len(report[0].Heavy) == 0 ||
		report[0].Heavy[0].Key != "00" { // key 0 under Int64Codec, in hex
		t.Fatalf("/debug/skew while the edge is produced: %+v", report)
	}

	if err := store.Seal(ctx, h.Bag("in")); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	debugProbe(func() { report = skew() })
	if n := calls.Load(); n != 0 {
		t.Fatalf("/debug/skew after the job made %d storage calls, want 0", n)
	}
	if len(report) != 1 || report[0].Records != uint64(fed) || len(report[0].Heavy) == 0 ||
		report[0].Heavy[0].Count < uint64(fed)*3/4 {
		t.Fatalf("/debug/skew after the job: %+v, want the seal-time record of %d records", report, fed)
	}
}
