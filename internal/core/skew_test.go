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
	"repro/internal/obs"
	"repro/internal/shuffle"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The tests of the one picture of a shuffle edge: what the policies decide
// on, what the alert watches, what /debug/skew shows and what a later run
// warm-starts from are the control plane's one record of the edge.

// TestAlertAndPolicyAgree pushes synthetic producer stats through the real
// path on both sides — storage-tier merge, hub snapshot, policy chain and
// the master applying its verdict on one; hub record, skew source, recorder
// sample and watchdog on the other — and checks that the heat alert's
// condition holds on a sample exactly when the refinement policies acted on
// the snapshot it was taken from.
func TestAlertAndPolicyAgree(t *testing.T) {
	// The engine's default thresholds: a leaf is hot above 2x the mean,
	// on edges past 16384 records.
	for _, tc := range []struct {
		name   string
		leaves int
		counts func(leaf int) uint64 // records on base partition leaf
		tried  int                   // a leaf already found unsplittable, or -1
		hot    bool
	}{
		{"8 leaves, top 30%, 20k records: 2.4x the mean", 8,
			func(l int) uint64 { return map[bool]uint64{true: 6000, false: 2000}[l == 3] }, -1, true},
		{"2 leaves, top 60%: 1.2x the mean", 2,
			func(l int) uint64 { return map[bool]uint64{true: 12000, false: 8000}[l == 0] }, -1, false},
		{"8 leaves, top 30%, 1k records: too few to judge", 8,
			func(l int) uint64 { return map[bool]uint64{true: 300, false: 100}[l == 3] }, -1, false},
		{"8 leaves, top 30%, but that leaf is unsplittable", 8,
			func(l int) uint64 { return map[bool]uint64{true: 6000, false: 2000}[l == 3] }, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
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
			// started: the test is its control loop.
			h := &JobHandle{c: cluster, id: "heat", app: app}
			m := cluster.newJobMaster(h)
			h.master = m
			cluster.mu.Lock()
			cluster.jobs[h.id] = h
			cluster.mu.Unlock()
			if tc.tried >= 0 {
				m.edges["shuf"].splitTried[shuffle.PartitionBag("shuf", tc.tried)] = true
			}

			stats := sketch.NewEdgeStats()
			for l := 0; l < tc.leaves; l++ {
				stats.Counts[shuffle.PartitionBag("shuf", l)] = tc.counts(l)
			}
			if _, err := cluster.Store().ExchangeSketch(ctx, "shuf", "w0", stats.AppendTo(nil), 1); err != nil {
				t.Fatal(err)
			}

			// One pass of the master's control loop: snapshot, policies,
			// arbitration, and whatever they decided applied to the edge.
			m.ctx = ctx
			applied, err := m.controlPass()
			if err != nil {
				t.Fatal(err)
			}
			if e := m.hub.Edges()["shuf"]; e.Stats == nil || e.Stats.Total() == 0 {
				t.Fatal("the control pass left no stats on the active edge's record")
			}
			acts := applied > 0
			if acts != tc.hot {
				t.Fatalf("policies act on the edge: %v, want %v", acts, tc.hot)
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
			if firing != acts {
				t.Fatalf("heat alert firing = %v, but the policies act = %v, on one record of the edge", firing, acts)
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
// a warm start do not depend on which policies are installed. A chain with
// no refinement policy still has every active edge's sketch fetched into
// its snapshots, and so into the edge's record, while the job runs.
func TestCloneOnlyChainKeepsEdgeMemory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.Master.DisableSplitting = true
	cluster, err := NewCluster(cfg)
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
	if st := h.Master().Stats(); st.Splits+st.Isolations != 0 {
		t.Fatalf("a clone-only chain refined the edge: %+v", st)
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
