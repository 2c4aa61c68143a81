package shuffle

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/transport"
)

type tuple = chunk.Pair[uint64, uint64]

var tupleCodec = chunk.PairCodec[uint64, uint64]{A: chunk.Uint64Codec{}, B: chunk.Uint64FixedCodec{}}

func tupleKey(t tuple) []byte { return key(t.First) }

// rowOnly hides a codec's columnar methods: its encoders write row chunks.
type rowOnly[T any] struct{ chunk.Codec[T] }

// views is a codec under both write layouts.
func views[T any](c chunk.Codec[T]) map[string]chunk.Codec[T] {
	return map[string]chunk.Codec[T]{"columnar": c, "row-only": rowOnly[T]{c}}
}

// leafChunks reads back every chunk of every leaf bag of pm.
func leafChunks(t *testing.T, st *bag.Store, pm *PartitionMap) map[string][]chunk.Chunk {
	t.Helper()
	out := make(map[string][]chunk.Chunk)
	for _, leaf := range pm.Leaves() {
		sc := st.Scanner(leaf)
		for {
			c, err := sc.Next(context.Background())
			if err == bag.ErrAgain || err == bag.ErrEmpty {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out[leaf] = append(out[leaf], c)
		}
	}
	return out
}

// TestWriteKeepsNoRecord: Writer.Write encodes its record at the call, so
// a producer may reuse the key and record buffers as soon as it returns.
func TestWriteKeepsNoRecord(t *testing.T) {
	st := newTestStore(t, 1, 256)
	w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0"})
	want := make(map[string]int)
	k, rec := make([]byte, 8), make([]byte, 3)
	for i := range 600 {
		k, rec = binary.LittleEndian.AppendUint64(k[:0], uint64(i%7)), append(rec[:0], byte(i), byte(i>>8), 'r')
		if err := w.Write(k, rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec)]++
		k[0], rec[0] = 0xff, 0xff // the producer reuses its buffers
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for leaf, cs := range leafChunks(t, st, w.Map()) {
		for _, c := range cs {
			recs, err := chunk.NewSliceIterator[[]byte](rawRecord{}, []chunk.Chunk{c}).Collect()
			if err != nil {
				t.Fatalf("%s: %v", leaf, err)
			}
			for _, r := range recs {
				want[string(r)]--
			}
		}
	}
	for r, n := range want {
		if n != 0 {
			t.Fatalf("record %x: %d more written than read back", r, n)
		}
	}
}

// TestScatterHoldsChunkSize: the chunk is the unit of late binding and
// cloning, so one WriteBatch of a million records of one key must come out
// as chunks of the store's size — in either layout — and a record no chunk
// can hold is an error from Write and WriteBatch alike, never a chunk.
func TestScatterHoldsChunkSize(t *testing.T) {
	const size, n = 4 << 10, 1 << 20
	hot := make([]tuple, n)
	for i := range hot {
		hot[i] = tuple{First: 42, Second: uint64(i)}
	}
	for view, codec := range views[tuple](tupleCodec) {
		st := newTestStore(t, 1, size)
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0"})
		s := NewScatter(w, codec, tupleKey)
		if err := s.WriteBatch(hot); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rows, chunks := 0, 0
		for leaf, cs := range leafChunks(t, st, w.Map()) {
			for _, c := range cs {
				r, err := chunk.Count(c)
				if err != nil || len(c) >= size+len(tupleCodec.Encode(nil, hot[n-1])) {
					t.Fatalf("%s: %s holds a chunk of %d bytes, %d rows (%v) at chunk size %d", view, leaf, len(c), r, err, size)
				}
				rows += r
				chunks++
			}
		}
		if rows != n || chunks < n*9/size {
			t.Fatalf("%s: %d rows in %d chunks, want %d rows", view, rows, chunks, n)
		}
	}
	for view, codec := range views[[]byte](chunk.BytesCodec{}) {
		st := newTestStore(t, 1, size)
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0"})
		s := NewScatter(w, codec, func(b []byte) []byte { return b[:1] })
		big := make([]byte, size+1)
		if err := s.Write(big); !errors.Is(err, chunk.ErrRecordTooLarge) {
			t.Fatalf("%s: Write of a %d-byte record at chunk size %d: %v", view, len(big), size, err)
		}
		if err := s.WriteBatch([][]byte{[]byte("fits"), big}); !errors.Is(err, chunk.ErrRecordTooLarge) {
			t.Fatalf("%s: WriteBatch holding a %d-byte record at chunk size %d: %v", view, len(big), size, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// publishAt publishes pm on the edge's home slot just before the writer's
// nth control exchange.
type publishAt struct {
	transport.Client
	st        *bag.Store
	pm        *PartitionMap
	nth, seen int
}

func (c *publishAt) Call(ctx context.Context, node string, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpSketch && req.Dst != "" {
		if c.seen++; c.seen == c.nth {
			if err := c.st.PublishSketchMap(ctx, c.pm.Bag, c.pm.Version, c.pm.Encode()); err != nil {
				return nil, err
			}
		}
	}
	return c.Client.Call(ctx, node, req)
}

// TestMapAdoptedInsideBlock: a map adopted at a tick inside a WriteBatch
// block routes the block's next record. A writer that exchanges at every
// tick is handed a map with a split and a spread isolation at its third
// exchange, record 2,048 of the first 4,096-record block. Each record must
// land where the map in force at its ordinal sends it, and WriteBatch must
// leave what Write leaves over the same stream — the same records per leaf
// in order, leaf counts, count-min cells and heavy list — for either key
// kind.
func TestMapAdoptedInsideBlock(t *testing.T) {
	const hot, adoptAt = 7, 2 * tickEvery
	base := BaseMap("e", 4)
	refined := base.Clone()
	refined.Version = 2
	refined.Splits = map[int]int{int(KeyHashUint64(3) % 4): 3}
	refined.Isolated = []Isolation{{Hash: KeyHashUint64(hot), Fan: 2, Key: key(hot)}}
	stream := make([]tuple, 3*scatterBlock)
	for i := range stream {
		k := uint64(i % 61)
		if i%3 == 0 {
			k = hot
		}
		stream[i] = tuple{First: k, Second: uint64(i)}
	}
	type edge struct {
		parts map[string][]tuple
		stats *sketch.EdgeStats
	}
	run := func(t *testing.T, words, batch bool) edge {
		ctx := context.Background()
		tr := transport.NewInProc()
		tr.Register("s0", storage.NewNode("s0"))
		c := &publishAt{Client: tr, pm: refined, nth: 3}
		st, err := bag.NewStore(bag.Config{Nodes: []string{"s0"}, Client: c, ChunkSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		c.st = st
		w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0", StatsInterval: time.Nanosecond})
		s := NewScatter(w, tupleCodec, tupleKey)
		if words {
			s.KeyUint64(func(v tuple) uint64 { return v.First })
		}
		if batch {
			err = s.WriteBatch(stream)
		} else {
			for _, v := range stream {
				if err = s.Write(v); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		out := edge{parts: make(map[string][]tuple)}
		for leaf, cs := range leafChunks(t, st, refined) {
			if out.parts[leaf], err = chunk.NewSliceIterator(tupleCodec, cs).Collect(); err != nil {
				t.Fatal(err)
			}
		}
		if out.stats, err = st.FetchSketch(ctx, "e"); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, words := range []bool{true, false} {
		t.Run(map[bool]string{true: "uint64", false: "bytes"}[words], func(t *testing.T) {
			want, got := run(t, words, false), run(t, words, true)
			for leaf, recs := range got.parts {
				for _, v := range recs {
					pm := base
					if v.Second >= adoptAt {
						pm = refined
					}
					if at := pm.Route(key(v.First), int(v.Second)); at != leaf {
						t.Fatalf("record %d (key %d) is in %s; the map in force at it says %s", v.Second, v.First, leaf, at)
					}
				}
			}
			if len(got.parts["e.h0.s1"]) == 0 || len(got.parts) != len(refined.Leaves()) {
				t.Fatalf("records in %d of the refined map's %d leaves", len(got.parts), len(refined.Leaves()))
			}
			if fmt.Sprint(got.parts) != fmt.Sprint(want.parts) {
				t.Error("WriteBatch left other records, or another order, than Write")
			}
			if fmt.Sprint(got.stats.Counts) != fmt.Sprint(want.stats.Counts) {
				t.Errorf("leaf counts %v, Write left %v", got.stats.Counts, want.stats.Counts)
			}
			if !bytes.Equal(got.stats.CM.Encode(), want.stats.CM.Encode()) {
				t.Error("count-min cells differ from Write's")
			}
			if fmt.Sprint(got.stats.Heavy) != fmt.Sprint(want.stats.Heavy) {
				t.Errorf("heavy keys %v, Write left %v", got.stats.Heavy, want.stats.Heavy)
			}
		})
	}
}
