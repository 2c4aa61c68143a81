package chunk

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

// Records returns the records framed in row chunk c.
func Records(c Chunk) ([][]byte, error) {
	var out [][]byte
	r := NewReader(c)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var chunks []Chunk
	w := NewWriter(64, func(c Chunk) error {
		chunks = append(chunks, c)
		return nil
	})
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%20+1)
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	var got [][]byte
	for _, c := range chunks {
		recs, err := Records(c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriterRecordNeverCrossesChunks(t *testing.T) {
	// Property: every emitted chunk decodes standalone — records never
	// straddle chunk boundaries.
	f := func(recs [][]byte) bool {
		var chunks []Chunk
		w := NewWriter(128, func(c Chunk) error {
			chunks = append(chunks, c)
			return nil
		})
		kept := 0
		for _, r := range recs {
			if len(r) > 100 {
				r = r[:100]
			}
			if err := w.Append(r); err != nil {
				return false
			}
			kept++
		}
		if err := w.Flush(); err != nil {
			return false
		}
		total := 0
		for _, c := range chunks {
			recs, err := Records(c)
			if err != nil {
				return false // would mean a record crossed a boundary
			}
			total += len(recs)
		}
		return total == kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRecordTooLarge(t *testing.T) {
	w := NewWriter(16, func(Chunk) error { return nil })
	if err := w.Append(make([]byte, 32)); err == nil {
		t.Fatal("expected ErrRecordTooLarge")
	}
}

func TestReaderCorrupt(t *testing.T) {
	// A length prefix pointing past the end of the chunk.
	c := Chunk{0x20, 0x01}
	r := NewReader(c)
	if _, err := r.Next(); err != ErrCorrupt {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestEmptyChunk(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("got %v, want EOF", err)
	}
	// An empty chunk has no batch header: Count refuses it.
	if _, err := Count(nil); !isCorrupt(err) {
		t.Fatalf("Count(nil): %v, want ErrCorrupt", err)
	}
}

func TestInt64CodecQuick(t *testing.T) {
	f := func(v int64) bool {
		buf := (Int64Codec{}).Encode(nil, v)
		got, n, err := (Int64Codec{}).Decode(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64CodecQuick(t *testing.T) {
	f := func(v uint64) bool {
		buf := (Uint64Codec{}).Encode(nil, v)
		got, n, err := (Uint64Codec{}).Decode(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64CodecQuick(t *testing.T) {
	f := func(v float64) bool {
		buf := (Float64Codec{}).Encode(nil, v)
		got, n, err := (Float64Codec{}).Decode(buf)
		if err != nil || n != 8 {
			return false
		}
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringCodecQuick(t *testing.T) {
	f := func(v string) bool {
		buf := (StringCodec{}).Encode(nil, v)
		got, n, err := (StringCodec{}).Decode(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairCodecNestedQuick(t *testing.T) {
	codec := PairCodec[string, Pair[int64, float64]]{
		A: StringCodec{},
		B: PairCodec[int64, float64]{A: Int64Codec{}, B: Float64Codec{}},
	}
	f := func(s string, i int64, fl float64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		v := Pair[string, Pair[int64, float64]]{First: s}
		v.Second.First = i
		v.Second.Second = fl
		buf := codec.Encode(nil, v)
		got, n, err := codec.Decode(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKVCodecQuick(t *testing.T) {
	f := func(k string, v []byte) bool {
		buf := (KVCodec{}).Encode(nil, KV{Key: k, Value: v})
		got, n, err := (KVCodec{}).Decode(buf)
		return err == nil && got.Key == k && bytes.Equal(got.Value, v) && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecShortRecord(t *testing.T) {
	if _, _, err := (Float64Codec{}).Decode([]byte{1, 2, 3}); err != ErrShortRecord {
		t.Fatalf("float: got %v", err)
	}
	if _, _, err := (StringCodec{}).Decode([]byte{0x05, 'a'}); err != ErrShortRecord {
		t.Fatalf("string: got %v", err)
	}
	if _, _, err := (Int64Codec{}).Decode(nil); err != ErrShortRecord {
		t.Fatalf("int: got %v", err)
	}
}

func TestTypedWriterIterator(t *testing.T) {
	var chunks []Chunk
	tw := NewTypedWriter[int64](Int64Codec{}, 64, func(c Chunk) error {
		chunks = append(chunks, c)
		return nil
	})
	const n = 1000
	for i := int64(0); i < n; i++ {
		if err := tw.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	it := NewSliceIterator[int64](Int64Codec{}, chunks)
	vals, err := it.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("got %d values, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

func TestIteratorEmptySource(t *testing.T) {
	it := NewSliceIterator[int64](Int64Codec{}, nil)
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("got %v, want EOF", err)
	}
}

func BenchmarkWriterAppend(b *testing.B) {
	rec := make([]byte, 100)
	w := NewWriter(DefaultSize, func(Chunk) error { return nil })
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderNext(b *testing.B) {
	var chunks []Chunk
	w := NewWriter(1<<20, func(c Chunk) error { chunks = append(chunks, c); return nil })
	rec := make([]byte, 100)
	for i := 0; i < 10000; i++ {
		w.Append(rec)
	}
	w.Flush()
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	i := 0
	r := NewReader(chunks[0])
	for n := 0; n < b.N; n++ {
		if _, err := r.Next(); err == io.EOF {
			i = (i + 1) % len(chunks)
			r = NewReader(chunks[i])
		}
	}
}
