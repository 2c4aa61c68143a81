package shuffle

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestEdgeOf(t *testing.T) {
	cases := map[string]string{
		PartitionBag("gb.shuf", 1):      "gb.shuf",
		IsolatedBag("gb.shuf", 0, 0, 1): "gb.shuf",
		IsolatedBag("gb.shuf", 2, 5, 8): "gb.shuf",
		"gb.shuf":                       "gb.shuf",
		"plain":                         "plain",
		"w5/gb.shuf.h12.s4":             "w5/gb.shuf",
	}
	for leaf, want := range cases {
		if got := EdgeOf(leaf); got != want {
			t.Errorf("EdgeOf(%q) = %q, want %q", leaf, got, want)
		}
	}
}

// newTestStore is an in-proc bag store over nodes storage nodes.
func newTestStore(t testing.TB, nodes, chunkSize int) *bag.Store {
	t.Helper()
	tr := transport.NewInProc()
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
		tr.Register(names[i], storage.NewNode(names[i]))
	}
	st, err := bag.NewStore(bag.Config{Nodes: names, Client: tr, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPartitionBatchMatchesRowRouting pins the routing contract: a
// writer's routing decision is exactly the partition map's, per-leaf counts
// stay exact, and the edge's sketch has each key's count to within what the
// stretches that did not feed it may hold: records/stretchFeedFraction.
func TestPartitionBatchMatchesRowRouting(t *testing.T) {
	ctx := context.Background()
	st := newTestStore(t, 2, 1<<10)
	w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4})

	const n = 1000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(uint64(i % 37))
	}
	refs := make([]RouteRef, n)
	want := BaseMap("e", 4)
	for i := range refs {
		refs[i] = w.RouteKey(keys[i])
		if got, leaf := want.RefName(refs[i]), want.Route(keys[i], i); got != leaf {
			t.Fatalf("row %d routed to %s, the map says %s", i, got, leaf)
		}
	}

	// Scatter whole batches per ref and check leaf counts stay exact.
	perRef := make(map[RouteRef]int)
	for _, ref := range refs {
		perRef[ref]++
	}
	for ref, rows := range perRef {
		b := chunk.GetBatchBuilder(0, []chunk.ColKind{chunk.ColVarint})
		for i := 0; i < rows; i++ {
			b.AppendUvarint(0, uint64(i))
			b.EndRow()
		}
		if err := w.InsertBatchChunk(ref, b.Encode(), rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	est := closedStats(w)
	if got := est.Total(); got != n {
		t.Fatalf("sketch leaf-count total %d, want %d", got, n)
	}
	checkRoundRobinEstimates(t, est, 37, n)
	// The batch counters made it into the leaf counts map.
	var total uint64
	for leaf, c := range est.Counts {
		if EdgeOf(leaf) != "e" {
			t.Fatalf("unexpected leaf %q", leaf)
		}
		total += c
	}
	if total != n {
		t.Fatalf("leaf counts sum to %d, want %d", total, n)
	}
}

// TestPartitionBatchUint64MatchesGeneric pins the uint64-native routing
// path's contract: hashing the key word directly must agree with hashing
// its 8-byte little-endian encoding, so placement — and therefore the
// whole partition map — is identical whichever entry point a producer
// uses.
func TestPartitionBatchUint64MatchesGeneric(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 255, 1 << 20, 0xdeadbeefcafef00d, ^uint64(0)} {
		if got, want := KeyHashUint64(v), KeyHash(key(v)); got != want {
			t.Fatalf("KeyHashUint64(%#x) = %#x, want KeyHash of encoding %#x", v, got, want)
		}
	}

	ctx := context.Background()
	st := newTestStore(t, 2, 1<<10)
	wg := NewWriter(ctx, WriterConfig{Store: st, Edge: "eg", Parts: 4})
	wu := NewWriter(ctx, WriterConfig{Store: st, Edge: "eu", Parts: 4})

	const n = 1000
	words := make([]uint64, n)
	keys := make([][]byte, n)
	for i := range words {
		words[i] = uint64(i % 37)
		keys[i] = key(words[i])
	}
	for i, uRef := range wu.PartitionBatchUint64(words) {
		if gRef := wg.RouteKey(keys[i]); gRef != uRef {
			t.Fatalf("row %d: uint64 path routed %+v, generic %+v", i, uRef, gRef)
		}
	}
	if err := wu.Close(); err != nil {
		t.Fatal(err)
	}

	// The word path's count feed is held to the same bound.
	checkRoundRobinEstimates(t, closedStats(wu), 37, n)
}

// checkRoundRobinEstimates holds the sketch of n records dealt round robin
// over keys 0..keys-1 to the writer's bound. The sketch is fed, stretch by
// stretch, the keys with at least 1/stretchFeedFraction of the stretch, so
// an estimate may miss up to n/stretchFeedFraction of a key's records; it
// exceeds the count by the count-min error at most. (Here one stretch holds
// all n records and every key has n/keys > n/stretchFeedFraction of them,
// so each is fed whole: the lower bound is not what lets this pass.)
func checkRoundRobinEstimates(t *testing.T, est *sketch.EdgeStats, keys, n int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		exact := uint64((n + keys - 1 - i) / keys)
		if c := est.CM.Estimate(key(uint64(i))); c+uint64(n)/stretchFeedFraction < exact || c > exact+cmSlack(n) {
			t.Fatalf("key %d: sketch estimate %d, exact count %d of %d records: outside [exact-n/%d, exact+%d]",
				i, c, exact, n, stretchFeedFraction, cmSlack(n))
		}
	}
}

// BenchmarkRouteUint64 is the routing path's per-record cost on a
// Zipf(1.3) key stream over 2^16 keys: hash, route, the exact key count of
// every record, and per stretch of 1,024 records a drain that feeds the
// sketch the stretch's heavy keys — a median of 9 (5–12) of its 258
// distinct keys.
func BenchmarkRouteUint64(b *testing.B) {
	st := newTestStore(b, 1, 0)
	keys := routeBenchKeys()
	w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		lo := i % len(keys)
		w.PartitionBatchUint64(keys[lo : lo+4096])
	}
}

// BenchmarkScatterWrite is a producer's write side on the same stream, in
// ns/rec, by key kind and API: route, count and group each block of 4,096
// benchmark tuples (uint64 key, fixed-width payload), then encode each
// leaf's rows and hand the chunks to the in-process store. "uint64" keys
// the scatter with KeyUint64, as a partitioned writer with a uint64 key
// does; "bytes" with the key's 8 little-endian bytes, one buffer reused.
// WriteBatch takes 4,096 records a call, Write one: "uint64/Write" is the
// row path of a uint64-keyed PartitionedWriter. The edge's bags are
// dropped, untimed, after every pass over the stream.
func BenchmarkScatterWrite(b *testing.B) {
	ctx := context.Background()
	keys := routeBenchKeys()
	ts := make([]tuple, len(keys))
	for i, k := range keys {
		ts[i] = tuple{First: k, Second: uint64(i)}
	}
	var kb [8]byte
	byteKey := func(v tuple) []byte { binary.LittleEndian.PutUint64(kb[:], v.First); return kb[:] }
	for _, bc := range []struct {
		name  string
		words bool
		batch bool
	}{{"uint64/WriteBatch", true, true}, {"uint64/Write", true, false}, {"bytes/WriteBatch", false, true}, {"bytes/Write", false, false}} {
		b.Run(bc.name, func(b *testing.B) {
			st := newTestStore(b, 1, 0)
			var s *Scatter[tuple]
			open := func() {
				s = NewScatter(NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4}), tupleCodec, byteKey)
				if bc.words {
					s.KeyUint64(func(v tuple) uint64 { return v.First })
				}
			}
			open()
			recs := 0
			b.ResetTimer()
			for ; recs < b.N; recs += 4096 {
				lo := recs % len(ts)
				if recs > 0 && lo == 0 {
					b.StopTimer()
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
					if err := st.DeletePrefix(ctx, "e."); err != nil {
						b.Fatal(err)
					}
					open()
					b.StartTimer()
				}
				if bc.batch {
					if err := s.WriteBatch(ts[lo : lo+4096]); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, v := range ts[lo : lo+4096] {
					if err := s.Write(v); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
		})
	}
}
