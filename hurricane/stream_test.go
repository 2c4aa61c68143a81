package hurricane_test

import (
	"context"
	"io"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/apps"
	"repro/internal/workload"
)

// clickSource feeds pre-generated click tuples as a scripted stream source:
// one window's worth of records per poll batch.
type clickSource struct {
	mu      sync.Mutex
	batches [][]hurricane.StreamRecord[tuple]
}

func (s *clickSource) poll(ctx context.Context) ([]hurricane.StreamRecord[tuple], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return nil, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// TestStreamWarmStartSkewMemory runs ≥5 consecutive click-log windows
// with a partitioned shuffle edge through the scheduler and checks that
// (a) every window's per-region counts and distinct-IP estimates equal
// the serial groupby's (every click counted exactly once), and (b)
// cross-window skew memory warm-starts the later windows' partition maps
// (the first window runs cold; every successor is seeded from its
// predecessor's final map and merged edge sketch).
func TestStreamWarmStartSkewMemory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 2,
		ComputeNodes: 2,
		SlotsPerNode: 2,
		ChunkSize:    8 << 10,
		Node: hurricane.NodeConfig{
			MonitorInterval: 10 * time.Millisecond,
		},
		Master: hurricane.MasterConfig{CloneInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const (
		windows   = 5
		perWindow = 4000
		regions   = 16
		parts     = 4
	)
	gen := workload.ClickLogGen{S: 1.3, Regions: regions, UniquePerRegion: 1 << 10, Seed: 21}
	ips := gen.Generate(windows * perWindow)

	origin := int64(1_000_000_000_000)
	src := &clickSource{}
	want := make([]map[uint64]apps.GroupByResult, windows)
	for w := 0; w < windows; w++ {
		seg := ips[w*perWindow : (w+1)*perWindow]
		tuples := make([]workload.Tuple, len(seg))
		batch := make([]hurricane.StreamRecord[tuple], len(seg))
		for i, ip := range seg {
			tuples[i] = workload.Tuple{Key: uint64(workload.Geolocate(ip)), Payload: uint64(ip)}
			batch[i] = hurricane.StreamRecord[tuple]{
				Time:  origin + int64(w)*int64(time.Second) + int64(i)*int64(time.Second)/int64(perWindow+1),
				Value: tuple{First: tuples[i].Key, Second: tuples[i].Payload},
			}
		}
		want[w] = apps.SerialGroupBy(tuples)
		src.batches = append(src.batches, batch)
	}

	app := apps.GroupByApp(parts, true, 0, 0)

	h, err := hurricane.RunStream(ctx, cluster, hurricane.StreamSpec{
		Name:    "clicks",
		App:     app,
		Sources: map[string]hurricane.StreamSource{apps.GroupByIn: hurricane.StreamSourceOf(apps.TupleCodec, src.poll)},
		Window:  time.Second,
		Origin:  origin,
		// Seeding uses the latest *finished* window's memory; serialize
		// windows so every successor deterministically has one.
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	store := cluster.Store()
	seeded := 0
	for w := 0; w < windows; w++ {
		res, err := h.Next(ctx)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Err != nil {
			t.Fatalf("window %d failed: %v", w, res.Err)
		}
		if res.Records != perWindow {
			t.Fatalf("window %d sealed %d records, want %d", w, res.Records, perWindow)
		}
		got, err := apps.CollectGroupBy(ctx, store, res.Bag(apps.GroupByOut))
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want[w]) {
			t.Fatalf("window %d: got %v, want %v (exactly-once violated)", w, got, want[w])
		}
		if w == 0 && res.Seeded {
			t.Fatal("window 0 cannot be seeded; there is no predecessor memory")
		}
		if res.Seeded {
			seeded++
		}
	}
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The click distribution is zipf(1.3): the dominant regions are heavy
	// enough that window 0's final sketch must seed every successor.
	if seeded != windows-1 {
		t.Fatalf("%d/%d successor windows warm-started, want all %d", seeded, windows-1, windows-1)
	}
	if st := h.Stats(); st.MemoryWindow < 0 {
		t.Fatalf("no skew memory captured: %+v", st)
	}
}
