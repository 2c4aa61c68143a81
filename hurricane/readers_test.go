package hurricane_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/hurricane"
	"repro/internal/chunk"
)

// rowOnly hides a codec's columnar methods, so that its view is the blob
// view: its chunks are batches of one blob column of its row encoding.
type rowOnly[T any] struct{ hurricane.Codec[T] }

// encodings is the order-free fingerprint of a value set: chunks of a bag
// come back in any order, every codec defines Encode.
func encodings[T any](codec hurricane.Codec[T], vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(codec.Encode(nil, v))
	}
	sort.Strings(out)
	return out
}

// checkTaskReaders loads vals under the codec and under its row-only
// view, and reads each back through ForEach, ForEachScan, ForEachBatch and
// Collect under the view that wrote it: every reader must return exactly
// vals. Under the other view, Collect must refuse the bag as ErrCorrupt.
func checkTaskReaders[T any](t *testing.T, ctx context.Context, cluster *hurricane.Cluster,
	name string, codec hurricane.Codec[T], vals []T) {
	t.Helper()
	store := cluster.Store()
	want := encodings(codec, vals)
	views := map[string]hurricane.Codec[T]{"native": codec, "row-only": rowOnly[T]{codec}}
	for view, c := range views {
		what := fmt.Sprintf("%s/%s", name, view)
		var mu sync.Mutex
		got := map[string][]T{}
		keep := func(reader string) func(T) error {
			return func(v T) error {
				mu.Lock()
				got[reader] = append(got[reader], v)
				mu.Unlock()
				return nil
			}
		}
		app := hurricane.NewApp("readers").SourceBag("each").SourceBag("batch").SourceBag("scan")
		app.AddTask(hurricane.TaskSpec{
			Name: "each", Inputs: []string{"each"}, ScanInputs: []string{"scan"},
			Run: func(tc *hurricane.TaskCtx) error {
				if err := hurricane.ForEachScan(tc, 0, c, keep("ForEachScan")); err != nil {
					return err
				}
				return hurricane.ForEach(tc, 0, c, keep("ForEach"))
			},
		})
		app.AddTask(hurricane.TaskSpec{
			Name: "batch", Inputs: []string{"batch"},
			Run: func(tc *hurricane.TaskCtx) error {
				return hurricane.ForEachBatch(tc, 0, c, func(vec []T) error {
					mu.Lock()
					got["ForEachBatch"] = append(got["ForEachBatch"], vec...) // copy: vec is reused
					mu.Unlock()
					return nil
				})
			},
		})
		h, err := cluster.SubmitJob(ctx, app, hurricane.JobConfig{Name: fmt.Sprintf("%s-%s", name, view)})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, b := range []string{"each", "batch", "scan"} {
			if err := hurricane.Load(ctx, store, h.Bag(b), c, vals); err != nil {
				t.Fatalf("%s: load %s: %v", what, b, err)
			}
			if err := hurricane.Seal(ctx, store, h.Bag(b)); err != nil {
				t.Fatalf("%s: seal %s: %v", what, b, err)
			}
		}
		collected, err := hurricane.Collect(ctx, store, h.Bag("scan"), c)
		if err != nil {
			t.Fatalf("%s: Collect: %v", what, err)
		}
		mu.Lock()
		got["Collect"] = collected
		mu.Unlock()
		if err := h.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, reader := range []string{"ForEach", "ForEachScan", "ForEachBatch", "Collect"} {
			g := encodings(codec, got[reader])
			if len(g) != len(want) {
				t.Fatalf("%s: %s read %d values, want %d", what, reader, len(g), len(want))
			}
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("%s: %s read a different value set (first difference at sorted position %d)", what, reader, i)
				}
			}
		}
		for other, oc := range views {
			if _, err := hurricane.Collect(ctx, store, h.Bag("scan"), oc); other != view && !errors.Is(err, chunk.ErrCorrupt) {
				t.Fatalf("%s: Collect under the %s view: %v, want ErrCorrupt", what, other, err)
			}
		}
		if err := h.Discard(ctx); err != nil {
			t.Fatalf("%s: discard: %v", what, err)
		}
	}
}

// TestReadersAgreeAcrossLayouts: the row API is a view over the batch
// reader, so for every built-in codec — and a row-only view of it, whose
// chunks are blob-view batches — a bag reads back identically through every
// task-side and client-side reader under the view that wrote it, and is
// ErrCorrupt under the other.
func TestReadersAgreeAcrossLayouts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cluster, err := hurricane.NewCluster(hurricane.ClusterConfig{
		StorageNodes: 2,
		ComputeNodes: 2,
		SlotsPerNode: 2,
		ChunkSize:    256, // several chunks of each layout per bag
		Node: hurricane.NodeConfig{
			MonitorInterval: 4 * time.Millisecond,
		},
		Master: hurricane.MasterConfig{Policies: []hurricane.Policy{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const n = 300
	var (
		ints    []int64
		uints   []uint64
		floats  []float64
		strs    []string
		blobs   [][]byte
		kvs     []hurricane.KV
		nested  []hurricane.Pair[uint64, hurricane.Pair[int64, []byte]]
		payload = func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%7) }
	)
	for i := 0; i < n; i++ {
		ints = append(ints, int64(i-n/2)<<uint(i%40))
		uints = append(uints, uint64(i)*0x9e3779b97f4a7c15>>uint(i%60))
		floats = append(floats, float64(i)/3-50)
		strs = append(strs, fmt.Sprintf("k%0*d", i%5, i))
		blobs = append(blobs, payload(i))
		kvs = append(kvs, hurricane.KV{Key: fmt.Sprint("k", i%11), Value: payload(i)})
		nested = append(nested, hurricane.Pair[uint64, hurricane.Pair[int64, []byte]]{
			First: uint64(i) * 7919, Second: hurricane.Pair[int64, []byte]{First: int64(i - n/2), Second: payload(i)},
		})
	}
	ints = append(ints, math.MinInt64, math.MaxInt64)
	uints = append(uints, 0, math.MaxUint64)

	checkTaskReaders[int64](t, ctx, cluster, "int64", hurricane.Int64Of, ints)
	checkTaskReaders[uint64](t, ctx, cluster, "uint64", hurricane.Uint64Of, uints)
	checkTaskReaders[uint64](t, ctx, cluster, "uint64fixed", hurricane.Uint64FixedOf, uints)
	checkTaskReaders[float64](t, ctx, cluster, "float64", hurricane.Float64Of, floats)
	checkTaskReaders[string](t, ctx, cluster, "string", hurricane.StringOf, strs)
	checkTaskReaders[[]byte](t, ctx, cluster, "bytes", hurricane.BytesOf, blobs)
	checkTaskReaders[hurricane.KV](t, ctx, cluster, "kv", hurricane.KVOf, kvs)
	checkTaskReaders(t, ctx, cluster, "pair",
		hurricane.PairOf(hurricane.Uint64Of, hurricane.PairOf(hurricane.Int64Of, hurricane.BytesOf)), nested)
}
