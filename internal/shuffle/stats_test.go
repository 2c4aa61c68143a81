package shuffle

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

// pathStore builds a two-node storage tier, in-process or behind TCP
// loopback listeners.
func pathStore(t *testing.T, tcp bool) *bag.Store {
	t.Helper()
	names := []string{"s0", "s1"}
	var inner transport.Client
	if tcp {
		addrs := make(map[string]string)
		for _, n := range names {
			srv := transport.NewTCPServer(storage.NewNode(n))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[n] = addr
		}
		c := transport.NewTCPClient(addrs)
		t.Cleanup(func() { c.Close() })
		inner = c
	} else {
		tr := transport.NewInProc()
		for _, n := range names {
			tr.Register(n, storage.NewNode(n))
		}
		inner = tr
	}
	st, err := bag.NewStore(bag.Config{Nodes: names, Client: inner, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// feedKey is the feeder's k-th key: 0 for every fourth record, else k%97,
// so key 0 is heavy in every stretch.
func feedKey(k uint64) uint64 {
	if k%4 == 0 {
		return 0
	}
	return k % 97
}

// feeder drives a writer one batch at a time through the row or the batch
// path; a batch is tickEvery records, one stretch of the count table on
// either path.
type feeder struct {
	w     *Writer
	batch bool
	next  uint64
	keys  []uint64
}

func (f *feeder) writeBatch(t *testing.T) {
	t.Helper()
	if f.batch {
		f.keys = f.keys[:0]
		for i := 0; i < tickEvery; i++ {
			f.keys = append(f.keys, feedKey(f.next))
			f.next++
		}
		f.w.PartitionBatchUint64(f.keys) // routing only: nothing to insert
		return
	}
	for i := 0; i < tickEvery; i++ {
		if err := f.w.Write(key(feedKey(f.next)), []byte("r")); err != nil {
			t.Fatal(err)
		}
		f.next++
	}
}

func paths(t *testing.T, fn func(t *testing.T, batch, tcp bool)) {
	for _, batch := range []bool{false, true} {
		for _, tcp := range []bool{false, true} {
			name := map[bool]string{false: "row", true: "batch"}[batch] + "/" + map[bool]string{false: "inproc", true: "tcp"}[tcp]
			t.Run(name, func(t *testing.T) { fn(t, batch, tcp) })
		}
	}
}

// TestCloseLeavesExactCounts: after Close, a writer's Stats are its exact
// per-partition record counts, so the merge of every writer's — what the
// master makes of the producers' done records when the edge seals — is the
// edge's, and its heavy list holds the key every writer saw most.
func TestCloseLeavesExactCounts(t *testing.T) {
	paths(t, func(t *testing.T, batch, tcp bool) {
		ctx := context.Background()
		st := pathStore(t, tcp)
		base := BaseMap("e", 4)
		want := make(map[string]uint64)
		var total uint64
		got := &sketch.EdgeStats{}
		ref := sketch.NewEdgeStats() // the writers' full stats, cells and all
		for wi := 0; wi < 3; wi++ {
			w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4})
			f := &feeder{w: w, batch: batch, next: uint64(1000 * wi)}
			first := f.next
			for i := 0; i <= wi; i++ {
				f.writeBatch(t)
			}
			for k := first; k < f.next; k++ {
				want[base.Route(key(feedKey(k)), 0)]++
				total++
			}
			if batch {
				// Records are counted when their chunks are handed over;
				// route-only batches carry none, so hand over the counts.
				for leaf, n := range countsOf(base, first, f.next) {
					ref := RouteRef{Iso: -1, Part: partOf(base, leaf)}
					if err := w.InsertBatchChunk(ref, []byte{0}, int(n)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := got.Merge(w.Stats()); err != nil {
				t.Fatal(err)
			}
			if err := ref.Merge(closedStats(w)); err != nil {
				t.Fatal(err)
			}
		}
		if got.Total() != total {
			t.Fatalf("merged total %d, want %d", got.Total(), total)
		}
		for leaf, n := range want {
			if got.Counts[leaf] != n {
				t.Fatalf("leaf %s: merged %d, want %d (all: %v)", leaf, got.Counts[leaf], n, got.Counts)
			}
		}
		if len(got.Counts) != len(want) {
			t.Fatalf("merged leaves %v, want %v", got.Counts, want)
		}
		// Without the cells, the merge keeps every count and candidate the
		// merge of the writers' full stats does.
		if got.CM != nil || !reflect.DeepEqual(got.Counts, ref.Counts) || !reflect.DeepEqual(got.Heavy, ref.Heavy) {
			t.Fatalf("merged stats %+v, the full stats merge to %+v", got, ref)
		}
		if len(got.Heavy) == 0 || !bytes.Equal(got.Heavy[0].Key, key(0)) || got.Heavy[0].Count < total/4 {
			t.Fatalf("heavy list %v: key 0 took a quarter of %d records", got.Heavy, total)
		}
	})
}

// closedStats is all a closed writer knows of its edge: its Stats and the
// count-min cells that priced the candidates.
func closedStats(w *Writer) *sketch.EdgeStats {
	st := w.Stats()
	st.CM = w.stats.CM
	return st
}

func countsOf(pm *PartitionMap, from, to uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k := from; k < to; k++ {
		out[pm.Route(key(feedKey(k)), 0)]++
	}
	return out
}

func partOf(pm *PartitionMap, leaf string) int {
	for p := 0; p < pm.Base; p++ {
		if PartitionBag(pm.Bag, p) == leaf {
			return p
		}
	}
	panic("not a base partition: " + leaf)
}

// TestShuffleBytesCountEncodedChunks: hurricane_shuffle_bytes_total has one
// meaning — encoded chunk bytes handed to the edge's inserters — whichever
// layout the codec writes and whichever API wrote the record, so it equals
// the bytes the edge's leaf bags hold.
func TestShuffleBytesCountEncodedChunks(t *testing.T) {
	const n = 20000
	for view, codec := range views[tuple](tupleCodec) {
		st := newTestStore(t, 1, 1<<10)
		o := obs.New(0)
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, Obs: o, Job: "j"})
		s := NewScatter(w, codec, tupleKey)
		var batch []tuple
		for i := 0; i < n; i++ {
			v := tuple{First: uint64(i % 97), Second: uint64(i)}
			if i%3 == 0 { // a third of the records one at a time
				if err := s.Write(v); err != nil {
					t.Fatal(err)
				}
			} else if batch = append(batch, v); len(batch) == 500 {
				if err := s.WriteBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := s.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var stored, rows uint64
		for _, cs := range leafChunks(t, st, w.Map()) {
			for _, c := range cs {
				r, _ := chunk.Count(c)
				rows += uint64(r)
				stored += uint64(len(c))
			}
		}
		counted := o.Counter("hurricane_shuffle_bytes_total", "job", "j", "edge", "e").Value()
		records := o.Counter("hurricane_shuffle_records_total", "job", "j", "edge", "e").Value()
		if counted != stored || records != n || rows != n {
			t.Fatalf("%s: counter says %d bytes of %d records, the leaf bags hold %d bytes of %d records (wrote %d)",
				view, counted, records, stored, rows, n)
		}
	}
}
