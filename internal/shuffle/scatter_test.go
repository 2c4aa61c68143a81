package shuffle

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/sketch"
)

type tuple = chunk.Pair[uint64, uint64]

var tupleCodec = chunk.PairCodec[uint64, uint64]{A: chunk.Uint64Codec{}, B: chunk.Uint64FixedCodec{}}

func tupleKey(t tuple) []byte { return key(t.First) }

// rowOnly hides a codec's columnar methods: its encoders write batches of
// the blob view, one blob column of the codec's row encoding.
type rowOnly[T any] struct{ chunk.Codec[T] }

// views is a codec under its own view and under the blob view.
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
	w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4})
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
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4})
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
		w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4})
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

// TestRefinedMapInsideBlock: under a seed map with a spread isolation and
// a single-bag one, each record of a WriteBatch block lands where the map
// sends it, every leaf of the map fills, and WriteBatch leaves what Write
// leaves over the same stream — the same records per leaf in order, leaf
// counts, count-min cells and heavy list — for either key kind. The writer
// exchanges at every tick, so the ticks inside each 4,096-record block are
// on the path.
func TestRefinedMapInsideBlock(t *testing.T) {
	const hot = 7
	refined := BaseMap("e", 4)
	refined.Version = 2
	refined.Isolated = []Isolation{{Hash: KeyHashUint64(hot), Fan: 2, Key: key(hot)}, {Hash: KeyHashUint64(3), Fan: 1, Key: key(3)}}
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
		st := newTestStore(t, 1, 1<<20)
		w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, Map: refined})
		s := NewScatter(w, tupleCodec, tupleKey)
		if words {
			s.KeyUint64(func(v tuple) uint64 { return v.First })
		}
		var err error
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
		out.stats = closedStats(w)
		return out
	}
	for _, words := range []bool{true, false} {
		t.Run(map[bool]string{true: "uint64", false: "bytes"}[words], func(t *testing.T) {
			want, got := run(t, words, false), run(t, words, true)
			for leaf, recs := range got.parts {
				for _, v := range recs {
					if at := refined.Route(key(v.First), int(v.Second)); at != leaf {
						t.Fatalf("record %d (key %d) is in %s; the map says %s", v.Second, v.First, leaf, at)
					}
				}
			}
			// Every leaf fills: the base partitions and the isolation bags.
			for _, leaf := range refined.Leaves() {
				if len(got.parts[leaf]) == 0 {
					t.Fatalf("leaf %s of the refined map has no records (records in %d of %d leaves)", leaf, len(got.parts), len(refined.Leaves()))
				}
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

// TestWritesAfterClose: once a scatter is closed, Write and WriteBatch
// return chunk.ErrClosed — staged or not, for the typed scatter and the raw
// Writer.Write alike — and a second Close does nothing: no record reaches a
// leaf after the writer's final exchange, and the edge's totals are added to
// the metrics once.
func TestWritesAfterClose(t *testing.T) {
	for view, codec := range views[tuple](tupleCodec) {
		t.Run(view, func(t *testing.T) {
			o := obs.New(0)
			st := newTestStore(t, 1, 0)
			w := NewWriter(context.Background(), WriterConfig{Store: st, Edge: "e", Parts: 4, Obs: o, Job: "j"})
			s := NewScatter(w, codec, tupleKey)
			for i := range 100 {
				if err := s.Write(tuple{First: uint64(i % 7), Second: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(tuple{First: 1}); !errors.Is(err, chunk.ErrClosed) {
				t.Errorf("Write after Close: %v, want chunk.ErrClosed", err)
			}
			if err := s.WriteBatch([]tuple{{First: 2}, {First: 3}}); !errors.Is(err, chunk.ErrClosed) {
				t.Errorf("WriteBatch after Close: %v, want chunk.ErrClosed", err)
			}
			if err := w.Write(key(4), []byte("r")); !errors.Is(err, chunk.ErrClosed) {
				t.Errorf("Writer.Write after Close: %v, want chunk.ErrClosed", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Writer.Close after Scatter.Close: %v", err)
			}
			rows := 0
			for leaf, cs := range leafChunks(t, st, w.Map()) {
				for _, c := range cs {
					n, err := chunk.Count(c)
					if err != nil {
						t.Fatalf("%s: %v", leaf, err)
					}
					rows += n
				}
			}
			if rows != 100 {
				t.Errorf("the leaves hold %d records, want the 100 written before Close", rows)
			}
			if got := o.Counter("hurricane_shuffle_records_total", "job", "j", "edge", "e").Value(); got != 100 {
				t.Errorf("hurricane_shuffle_records_total = %d, want 100", got)
			}
		})
	}
}
