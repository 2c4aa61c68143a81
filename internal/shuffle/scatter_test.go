package shuffle

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bag"
	"repro/internal/chunk"
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
