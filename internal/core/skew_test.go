package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/shuffle"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The tests of the one picture of a shuffle edge: what the alert watches,
// what /debug/skew shows and what a later run warm-starts from are the
// control plane's one record of the edge.

// TestAlertAndPolicyAgree puts synthetic producer stats on a job's edge
// record — as the hub records them — and runs the other side's real path:
// skew source, recorder sample and watchdog. The heat alert fires exactly
// when the record crosses the alert's own thresholds, heatImbalance times
// the mean leaf load on an edge past heatMinRecords records.
func TestAlertAndPolicyAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		leaves int
		counts func(leaf int) uint64 // records on base partition leaf
		hot    bool
	}{
		{"8 leaves, top 30%, 20k records: 2.4x the mean", 8,
			func(l int) uint64 { return map[bool]uint64{true: 6000, false: 2000}[l == 3] }, true},
		{"2 leaves, top 60%: 1.2x the mean", 2,
			func(l int) uint64 { return map[bool]uint64{true: 12000, false: 8000}[l == 0] }, false},
		{"8 leaves, top 30%, 1k records: too few to judge", 8,
			func(l int) uint64 { return map[bool]uint64{true: 300, false: 100}[l == 3] }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, err := NewCluster(testClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Shutdown()
			app := NewApp("heat").SourceBag("in").
				AddBag(BagSpec{Name: "shuf", Partitions: tc.leaves, Spread: true}).Bag("out")
			idle := func(*TaskCtx) error { return nil }
			app.AddTask(TaskSpec{Name: "route", Inputs: []string{"in"}, Outputs: []string{"shuf"}, Run: idle})
			app.AddTask(TaskSpec{Name: "drain", Inputs: []string{"shuf"}, Outputs: []string{"out"}, Run: idle})
			// A job's master, wired as the cluster wires it but never
			// started: only its hub's edge record is read.
			h := &JobHandle{c: cluster, id: "heat", app: app}
			m := cluster.newJobMaster(h)
			h.master = m
			cluster.mu.Lock()
			cluster.jobs[h.id] = h
			cluster.mu.Unlock()

			stats := sketch.NewEdgeStats()
			for l := 0; l < tc.leaves; l++ {
				stats.Counts[shuffle.PartitionBag("shuf", l)] = tc.counts(l)
			}
			e := ctrl.EdgeTel{Name: "shuf", PMap: shuffle.BaseMap("shuf", tc.leaves), Spread: true, Stats: stats}
			m.hub.ObserveEdge(e)
			heat := ctrl.EdgeHeat(&e)
			if crossed := heat.Imbalance >= heatImbalance && heat.Records >= heatMinRecords; crossed != tc.hot {
				t.Fatalf("the case says hot=%v, but the record (%d records, %.2fx the mean) crosses the thresholds: %v",
					tc.hot, heat.Records, heat.Imbalance, crossed)
			}

			// The rule arms on its second consecutive sample.
			for i := 0; i < 2; i++ {
				cluster.watch.Eval(cluster.rec.Sample())
			}
			firing := false
			for _, st := range cluster.watch.Snapshot().States {
				if st.Rule == "shuffle-heat-imbalance" {
					if !strings.HasPrefix(st.Series, heatSeries+"{") {
						t.Fatalf("the heat rule watches %s, want %s", st.Series, heatSeries)
					}
					firing = firing || st.Firing
				}
			}
			if firing != tc.hot {
				t.Fatalf("heat alert firing = %v, want %v", firing, tc.hot)
			}
		})
	}
}

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

// probedCalls is a storage handler that counts the requests made from
// inside debugProbe, whatever else the cluster is doing meanwhile. The
// in-process transport calls the handler on the requester's goroutine, so
// the requester's stack says where a request came from.
type probedCalls struct {
	inner transport.Handler
	n     atomic.Int64
}

func (p *probedCalls) Handle(req *transport.Request) *transport.Response {
	buf := make([]byte, 32<<10)
	if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("core.debugProbe(")) {
		p.n.Add(1)
	}
	return p.inner.Handle(req)
}

//go:noinline
func debugProbe(f func()) { f() }

// TestDebugSkewReadsControllerRecord: /debug/skew and a sampler tick show
// the control plane's last record of an edge and ask the storage tier
// nothing, while the edge is being produced and after it has sealed — when
// the record is the exact final one the master took just before the
// producers' sketches were dropped.
func TestDebugSkewReadsControllerRecord(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	calls := &probedCalls{inner: storage.NewNode("storage-0")}
	inproc := transport.NewInProc()
	inproc.Register("storage-0", calls)
	store, err := bag.NewStore(bag.Config{Nodes: []string{"storage-0"}, Client: inproc, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
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
	if calls.n.Swap(0) == 0 {
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
	var view *obs.SampleView
	debugProbe(func() {
		report = skew()
		view = cluster.rec.Sample()
	})
	if n := calls.n.Load(); n != 0 {
		t.Fatalf("/debug/skew and one sampler tick made %d storage calls, want 0", n)
	}
	if len(report) != 1 || report[0].Edge != edge || len(report[0].Heavy) == 0 ||
		report[0].Heavy[0].Key != "00" { // key 0 under Int64Codec, in hex
		t.Fatalf("/debug/skew while the edge is produced: %+v", report)
	}
	lbl := `{edge="` + edge + `",job="live"}`
	if v, ok := view.Values["hurricane_skew_partition_top_share"+lbl]; !ok || v <= 0 {
		t.Fatalf("sampler tick: no partition share for the edge in %v", view.Values)
	}

	if err := store.Seal(ctx, h.Bag("in")); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	debugProbe(func() { report = skew() })
	if n := calls.n.Load(); n != 0 {
		t.Fatalf("/debug/skew after the job made %d storage calls, want 0", n)
	}
	if len(report) != 1 || report[0].Records != uint64(fed) || len(report[0].Heavy) == 0 ||
		report[0].Heavy[0].Count < uint64(fed)*3/4 {
		t.Fatalf("/debug/skew after the job: %+v, want the seal-time record of %d records", report, fed)
	}
}
