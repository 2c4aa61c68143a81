package stream_test

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/shuffle"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/workload"
)

// seedsCluster is a cluster over one storage node, reached through the
// Faulty it returns. The refinement thresholds sit on the cluster, not on
// the stream spec: the stream's seeds must follow whichever config the
// windows run on.
func seedsCluster(t *testing.T) (*core.Cluster, *transport.Faulty) {
	t.Helper()
	inproc := transport.NewInProc()
	inproc.Register("storage-0", storage.NewNode("storage-0"))
	f := transport.NewFaulty(inproc)
	store, err := bag.NewStore(bag.Config{Nodes: []string{"storage-0"}, Client: f, ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cluster := core.NewClusterOverStore(store, core.ClusterConfig{
		ComputeNodes: 2,
		SlotsPerNode: 2,
		Node: core.NodeConfig{
			MonitorInterval: 10 * time.Millisecond,
		},
		Master: core.MasterConfig{CloneInterval: 5 * time.Millisecond},
	})
	t.Cleanup(cluster.Shutdown)
	return cluster, f
}

// newClickWindows scripts windows of Zipf(1.3) clicks, each the groupby
// tuple (region, IP), one poll batch per window, and returns each window's
// serial groupby.
func newClickWindows(windows, perWindow int) (stream.Source, []map[uint64]apps.GroupByResult) {
	gen := workload.ClickLogGen{S: 1.3, Regions: 16, UniquePerRegion: 1 << 10, Seed: 21}
	ips := gen.Generate(windows * perWindow)
	src := &sliceSource[hurricane.Pair[uint64, uint64]]{codec: apps.TupleCodec}
	want := make([]map[uint64]apps.GroupByResult, windows)
	for w := range want {
		tuples := make([]workload.Tuple, perWindow)
		batch := make([]stream.Record[hurricane.Pair[uint64, uint64]], perWindow)
		for i, ip := range ips[w*perWindow : (w+1)*perWindow] {
			tuples[i] = workload.Tuple{Key: uint64(workload.Geolocate(ip)), Payload: uint64(ip)}
			batch[i] = stream.Record[hurricane.Pair[uint64, uint64]]{
				Time:  testOrigin + int64(w)*int64(time.Second) + int64(i)*int64(time.Second)/int64(perWindow+1),
				Value: hurricane.Pair[uint64, uint64]{First: tuples[i].Key, Second: tuples[i].Payload},
			}
		}
		want[w] = apps.SerialGroupBy(tuples)
		src.push(batch...)
	}
	src.end()
	return src.source(), want
}

// TestStreamSeedsTravelWithSubmission: a window's warm-start seeds reach
// its edges one way — in the submission, fixed on the window's edges once
// the scheduler has granted it the namespace. The stream writes nothing
// under a window's name but its source records, so a window whose name is
// taken leaves the name's owner alone.
func TestStreamSeedsTravelWithSubmission(t *testing.T) {
	const (
		windows   = 4
		perWindow = 4000
		parts     = 4
	)
	spec := func(name string, src stream.Source) stream.Spec {
		return stream.Spec{
			Name:    name,
			App:     apps.GroupByApp(parts, true, 0, 0),
			Sources: map[string]stream.Source{apps.GroupByIn: src},
			Window:  time.Second,
			Origin:  testOrigin,
			// A window is seeded from the latest finished one: one at a
			// time, that is always its predecessor.
			MaxInFlight: 1,
		}
	}

	t.Run("name taken", func(t *testing.T) {
		ctx := testCtx(t)
		cluster, f := seedsCluster(t)
		var mu sync.Mutex
		var writes []string // every bag under the second window's name inserted into
		f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Bag: "busy.w1/"}, Tap: func(_ string, req *transport.Request, _ *transport.Response) {
			if strings.HasPrefix(req.Bag, "busy.w1/") {
				mu.Lock()
				defer mu.Unlock()
				writes = append(writes, req.Bag)
			}
		}})
		// A live job owns the second window's name: its producer runs
		// until the test is over. Its partitioned edge has the name the
		// window's would have.
		owner := core.NewApp("owner")
		owner.SourceBag("held")
		owner.AddBag(core.BagSpec{Name: apps.GroupByShuf, Partitions: parts, Spread: true})
		owner.Bag("out")
		over := make(chan struct{})
		t.Cleanup(func() { close(over) })
		owner.AddTask(core.TaskSpec{Name: "route", Inputs: []string{"held"}, Outputs: []string{apps.GroupByShuf},
			Run: func(*core.TaskCtx) error { <-over; return nil }})
		owner.AddTask(core.TaskSpec{Name: "drain", Inputs: []string{apps.GroupByShuf}, Outputs: []string{"out"},
			Run: func(*core.TaskCtx) error { return nil }})
		if _, err := cluster.SubmitJob(ctx, owner, core.JobConfig{Name: "busy.w1"}); err != nil {
			t.Fatal(err)
		}

		src, _ := newClickWindows(3, perWindow)
		h, err := stream.Run(ctx, cluster, spec("busy", src))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			res, err := h.Next(ctx)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			switch {
			case w == 1 && (res.Err == nil || !strings.Contains(res.Err.Error(), "submitting window 1")):
				t.Fatalf("window 1 took a live job's name: err = %v, want its submission error", res.Err)
			case w == 1 && res.Seeded:
				t.Fatal("window 1 reports a warm start, but was never admitted")
			case w != 1 && res.Err != nil:
				t.Fatalf("window %d: %v", w, res.Err)
			case w == 2 && !res.Seeded:
				t.Fatal("window 2 not seeded from window 0")
			}
		}
		if err := h.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		// The pump fills every window's source bag before the window is
		// submitted; that is all the stream may write under a name. The
		// rest is the owner's: its work bags.
		mu.Lock()
		defer mu.Unlock()
		for _, bag := range writes {
			source := strings.HasPrefix(bag, "busy.w1/"+apps.GroupByIn+"#")
			work := strings.HasPrefix(bag, "busy.w1/owner!")
			if !(source || work) {
				t.Fatalf("the rejected window wrote into its name's live owner: %s", bag)
			}
		}
	})

	t.Run("seeds are the predecessor's warm start", func(t *testing.T) {
		ctx := testCtx(t)
		cluster, _ := seedsCluster(t)
		src, want := newClickWindows(windows, perWindow)
		h, err := stream.Run(ctx, cluster, spec("clicks", src))
		if err != nil {
			t.Fatal(err)
		}
		var prev *stream.WindowResult
		for w := 0; w < windows; w++ {
			res, err := h.Next(ctx)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			if res.Err != nil {
				t.Fatalf("window %d failed: %v", w, res.Err)
			}
			got, err := apps.CollectGroupBy(ctx, cluster.Store(), res.Bag(apps.GroupByOut))
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want[w]) {
				t.Fatalf("window %d: got %v, want %v", w, got, want[w])
			}
			if res.Seeded != (w > 0) {
				t.Fatalf("window %d: Seeded = %v", w, res.Seeded)
			}
			edge := res.Bag(apps.GroupByShuf)
			if w > 0 {
				// The window's edge ran on the warm start of its
				// predecessor's memory.
				em := prev.Job().Master().EdgeMemory()[prev.Bag(apps.GroupByShuf)]
				seed := shuffle.WarmStart(em.PMap, em.Stats, edge, parts, true)
				got := res.Job().Master().EdgeMemory()[edge].PMap
				if seed == nil || got == nil {
					t.Fatalf("window %d: warm start %v, edge map %v", w, seed, got)
				}
				if !sameRouting(got, seed) {
					t.Fatalf("window %d ran on %s, want the warm start of window %d: %s",
						w, got.Encode(), w-1, seed.Encode())
				}
			}
			prev = res
		}
		if err := h.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// sameRouting reports whether two maps of one edge route alike: version,
// base, and the isolated key hashes with their fans, in order.
func sameRouting(a, b *shuffle.PartitionMap) bool {
	iso := func(x, y shuffle.Isolation) bool { return x.Hash == y.Hash && x.Fan == y.Fan }
	return a.Version == b.Version && a.Base == b.Base && slices.EqualFunc(a.Isolated, b.Isolated, iso)
}
