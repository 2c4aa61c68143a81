package stream_test

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/shuffle"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/workload"
)

// windowWrites is a storage handler that records, in arrival order, the
// bag of every insert under a namespace "<stream>.w<i>/".
type windowWrites struct {
	inner  transport.Handler
	stream string

	mu     sync.Mutex
	writes []string
}

func (l *windowWrites) Handle(req *transport.Request) *transport.Response {
	if req.Op == transport.OpInsert && strings.HasPrefix(req.Bag, l.stream+".w") {
		l.mu.Lock()
		l.writes = append(l.writes, req.Bag)
		l.mu.Unlock()
	}
	return l.inner.Handle(req)
}

// under returns the recorded inserts whose bag starts with prefix.
func (l *windowWrites) under(prefix string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, bag := range l.writes {
		if strings.HasPrefix(bag, prefix) {
			out = append(out, bag)
		}
	}
	return out
}

// seedsCluster is a cluster over one storage node behind a windowWrites
// recorder. The refinement thresholds sit on the cluster, not on the stream
// spec: the stream's seeds must follow whichever config the windows run on.
func seedsCluster(t *testing.T, streamName string) (*core.Cluster, *windowWrites) {
	t.Helper()
	log := &windowWrites{inner: storage.NewNode("storage-0"), stream: streamName}
	inproc := transport.NewInProc()
	inproc.Register("storage-0", log)
	store, err := bag.NewStore(bag.Config{Nodes: []string{"storage-0"}, Client: inproc, ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cluster := core.NewClusterOverStore(store, core.ClusterConfig{
		ComputeNodes: 2,
		SlotsPerNode: 2,
		Node: core.NodeConfig{
			HeartbeatInterval: 5 * time.Millisecond,
		},
		Master: core.MasterConfig{
			CloneInterval: 10 * time.Millisecond,
			SplitInterval: 5 * time.Millisecond,
		},
		Sched: sched.Config{Interval: 5 * time.Millisecond},
	})
	t.Cleanup(cluster.Shutdown)
	return cluster, log
}

// newClickWindows scripts windows of Zipf(1.3) click IPs, one poll batch per
// window, and returns each window's per-region oracle.
func newClickWindows(windows, perWindow int) (*sliceSource, []map[uint64]int64) {
	gen := workload.ClickLogGen{S: 1.3, Regions: 16, UniquePerRegion: 1 << 10, Seed: 21}
	ips := gen.Generate(windows * perWindow)
	src := &sliceSource{}
	want := make([]map[uint64]int64, windows)
	for w := range want {
		want[w] = make(map[uint64]int64)
		batch := make([]stream.Record, perWindow)
		for i, ip := range ips[w*perWindow : (w+1)*perWindow] {
			want[w][uint64(workload.Geolocate(ip))]++
			batch[i] = stream.Record{
				Time: testOrigin + int64(w)*int64(time.Second) + int64(i)*int64(time.Second)/int64(perWindow+1),
				Data: hurricane.Uint64Of.Encode(nil, uint64(ip)),
			}
		}
		src.push(batch...)
	}
	src.end()
	return src, want
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
			App:     apps.ClickStreamApp(parts, true, 0),
			Sources: map[string]stream.Source{apps.ClickStreamIn: src},
			Window:  time.Second,
			Origin:  testOrigin,
			// A window is seeded from the latest finished one: one at a
			// time, that is always its predecessor.
			MaxInFlight: 1,
		}
	}

	t.Run("name taken", func(t *testing.T) {
		ctx := testCtx(t)
		cluster, log := seedsCluster(t, "busy")
		// A live job owns the second window's name: its producer runs
		// until the test is over. Its partitioned edge has the name the
		// window's would have.
		owner := core.NewApp("owner")
		owner.SourceBag("held")
		owner.AddBag(core.BagSpec{Name: apps.ClickStreamShuf, Partitions: parts, Spread: true})
		owner.Bag("out")
		over := make(chan struct{})
		t.Cleanup(func() { close(over) })
		owner.AddTask(core.TaskSpec{Name: "route", Inputs: []string{"held"}, Outputs: []string{apps.ClickStreamShuf},
			Run: func(*core.TaskCtx) error { <-over; return nil }})
		owner.AddTask(core.TaskSpec{Name: "drain", Inputs: []string{apps.ClickStreamShuf}, Outputs: []string{"out"},
			Run: func(*core.TaskCtx) error { return nil }})
		if _, err := cluster.SubmitJob(ctx, owner, core.JobConfig{Name: "busy.w1", Prefix: "busy.w1"}); err != nil {
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
		for _, bag := range log.under("busy.w1/") {
			source := strings.HasPrefix(bag, "busy.w1/"+apps.ClickStreamIn+"#")
			work := strings.HasPrefix(bag, "busy.w1/owner!")
			if !(source || work) {
				t.Fatalf("the rejected window wrote into its name's live owner: %s", bag)
			}
		}
	})

	t.Run("seeds are the predecessor's warm start", func(t *testing.T) {
		ctx := testCtx(t)
		cluster, _ := seedsCluster(t, "clicks")
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
			got, err := apps.CollectClickStream(ctx, cluster.Store(), res.Bag(apps.ClickStreamOut))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want[w]) {
				t.Fatalf("window %d: %d regions, want %d", w, len(got), len(want[w]))
			}
			for region, n := range want[w] {
				if got[region].Count != n {
					t.Fatalf("window %d region %d: count %d, want %d", w, region, got[region].Count, n)
				}
			}
			if res.Seeded != (w > 0) {
				t.Fatalf("window %d: Seeded = %v", w, res.Seeded)
			}
			edge := res.Bag(apps.ClickStreamShuf)
			if w > 0 {
				// The window's edge ran on the warm start of its
				// predecessor's memory.
				em := prev.Job().Master().EdgeMemory()[prev.Bag(apps.ClickStreamShuf)]
				seed := shuffle.WarmStart(em.PMap, em.Stats, edge, parts, shuffle.DefaultIsolateFraction, shuffle.DefaultFan, true)
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
