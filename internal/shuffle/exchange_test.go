package shuffle

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// exchangeStore builds a two-node storage tier, in-process or behind TCP
// loopback listeners. It also returns a count of each writer's exchanges:
// the OpSketch calls carrying its ID.
func exchangeStore(t *testing.T, tcp bool) (*bag.Store, func(writer string) int) {
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
	var mu sync.Mutex
	exchanges := make(map[string]int)
	f := transport.NewFaulty(inner)
	f.Add(transport.Rule{Match: transport.Match{Op: transport.OpSketch}, Tap: func(_ string, req *transport.Request, _ *transport.Response) {
		mu.Lock()
		defer mu.Unlock()
		exchanges[req.Dst]++
	}})
	st, err := bag.NewStore(bag.Config{Nodes: names, Client: f, ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st, func(writer string) int {
		mu.Lock()
		defer mu.Unlock()
		return exchanges[writer]
	}
}

// feeder drives a writer one batch at a time through the row or the batch
// path; a batch is tickEvery records, what lies between two looks at the
// exchange gate on either path.
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
			f.keys = append(f.keys, f.next%97)
			f.next++
		}
		f.w.PartitionBatchUint64(f.keys) // routing only: nothing to insert
		return
	}
	for i := 0; i < tickEvery; i++ {
		if err := f.w.Write(key(f.next%97), []byte("r")); err != nil {
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

// TestExchangeIsGatedOnTime: however many records go through, a writer
// makes at most one exchange per gate, plus the one at Close.
func TestExchangeIsGatedOnTime(t *testing.T) {
	paths(t, func(t *testing.T, batch, tcp bool) {
		st, exchangesOf := exchangeStore(t, tcp)
		const interval = 80 * time.Millisecond
		gate := interval / exchangesPerInterval
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0", StatsInterval: interval})
		f := &feeder{w: w, batch: batch}
		start := time.Now()
		for time.Since(start) < 150*time.Millisecond {
			f.writeBatch(t)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		got, most := exchangesOf("w0"), int(elapsed/gate)+2
		if got > most {
			t.Fatalf("%d exchanges in %v at a %v gate, want at most %d (%d records)", got, elapsed, gate, most, f.next)
		}
		if got < 3 {
			t.Fatalf("%d exchanges in %v at a %v gate: the gate never opened", got, elapsed, gate)
		}
	})
}

// TestCloseLeavesExactCounts: Close exchanges whatever the gate says (here
// it never opens), so the stats fetched afterwards are the exact
// per-partition record counts of every writer, merged.
func TestCloseLeavesExactCounts(t *testing.T) {
	paths(t, func(t *testing.T, batch, tcp bool) {
		ctx := context.Background()
		st, exchangesOf := exchangeStore(t, tcp)
		base := BaseMap("e", 4)
		want := make(map[string]uint64)
		var total uint64
		for wi := 0; wi < 3; wi++ {
			id := fmt.Sprintf("w%d", wi)
			w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: id, StatsInterval: time.Hour})
			f := &feeder{w: w, batch: batch, next: uint64(1000 * wi)}
			first := f.next
			for i := 0; i <= wi; i++ {
				f.writeBatch(t)
			}
			for k := first; k < f.next; k++ {
				want[base.Route(key(k%97), 0)]++
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
			if got := exchangesOf(id); got != 1 {
				t.Fatalf("writer %s made %d exchanges behind a closed gate, want 1 (Close)", id, got)
			}
		}
		got, err := st.FetchSketch(ctx, "e")
		if err != nil {
			t.Fatal(err)
		}
		if got.Total() != total {
			t.Fatalf("fetched total %d, want %d", got.Total(), total)
		}
		for leaf, n := range want {
			if got.Counts[leaf] != n {
				t.Fatalf("leaf %s: fetched %d, want %d (all: %v)", leaf, got.Counts[leaf], n, got.Counts)
			}
		}
		if len(got.Counts) != len(want) {
			t.Fatalf("fetched leaves %v, want %v", got.Counts, want)
		}
	})
}

func countsOf(pm *PartitionMap, from, to uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k := from; k < to; k++ {
		out[pm.Route(key(k%97), 0)]++
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

// TestCorruptWriterIsSkippedAtFetch: one producer's garbage costs the master
// that producer's stats, not the edge's.
func TestCorruptWriterIsSkippedAtFetch(t *testing.T) {
	ctx := context.Background()
	st, _ := exchangeStore(t, false)
	for wi := 0; wi < 2; wi++ {
		w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: fmt.Sprintf("w%d", wi)})
		(&feeder{w: w}).writeBatch(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ExchangeSketch(ctx, "e", "broken", []byte("not stats")); err != nil {
		t.Fatalf("the node validates nothing on the exchange path, yet: %v", err)
	}
	got, err := st.FetchSketch(ctx, "e")
	if err != nil {
		t.Fatalf("fetch failed on one corrupt writer: %v", err)
	}
	if got.Total() != 2*tickEvery {
		t.Fatalf("fetched total %d, want the two honest writers' %d", got.Total(), 2*tickEvery)
	}
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
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0", Obs: o, Job: "j"})
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
