package chunk

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

var kvTestCodec = PairCodec[uint64, Pair[int64, []byte]]{
	A: Uint64Codec{},
	B: PairCodec[int64, []byte]{A: Int64Codec{}, B: BytesCodec{}},
}

type kvTestRow = Pair[uint64, Pair[int64, []byte]]

func testRows(n int) []kvTestRow {
	rows := make([]kvTestRow, 0, n)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i%7)
		rows = append(rows, kvTestRow{
			First:  uint64(i) * 7919,
			Second: Pair[int64, []byte]{First: int64(i - n/2), Second: payload},
		})
	}
	return rows
}

func encodeBatch(t testing.TB, rows []kvTestRow, size int) []Chunk {
	t.Helper()
	var chunks []Chunk
	w := NewEncoder[kvTestRow](kvTestCodec, size, func(c Chunk, _ int) error {
		chunks = append(chunks, c)
		return nil
	})
	if err := w.AppendRows(rows, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return chunks
}

func TestBatchRoundTripColumnar(t *testing.T) {
	rows := testRows(500)
	chunks := encodeBatch(t, rows, 1<<10)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple batches, got %d", len(chunks))
	}
	for _, c := range chunks {
		if !IsBatch(c) {
			t.Fatal("batch writer emitted a non-batch chunk")
		}
	}
	got, err := NewSliceIterator[kvTestRow](kvTestCodec, chunks).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].First != rows[i].First || got[i].Second.First != rows[i].Second.First ||
			!bytes.Equal(got[i].Second.Second, rows[i].Second.Second) {
			t.Fatalf("row %d mismatch: got %+v want %+v", i, got[i], rows[i])
		}
	}
}

// TestBatchRowAdapter checks the generic batch→row re-framing: records
// produced by batchReader must be byte-identical to the codec's row
// encoding, so any row-format consumer can read batch chunks unchanged.
func TestBatchRowAdapter(t *testing.T) {
	rows := testRows(200)
	chunks := encodeBatch(t, rows, DefaultSize)
	var i int
	for _, c := range chunks {
		recs, err := Records(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			want := kvTestCodec.Encode(nil, rows[i])
			if !bytes.Equal(rec, want) {
				t.Fatalf("row %d re-framed as %x, want %x", i, rec, want)
			}
			i++
		}
	}
	if i != len(rows) {
		t.Fatalf("adapter yielded %d rows, want %d", i, len(rows))
	}
}

func TestBatchCountByHeader(t *testing.T) {
	rows := testRows(300)
	chunks := encodeBatch(t, rows, DefaultSize)
	total := 0
	for _, c := range chunks {
		n, err := Count(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(rows) {
		t.Fatalf("Count total %d, want %d", total, len(rows))
	}
}

// TestRowReaderRejectsBatch asserts a row Reader pointed at a batch chunk
// fails with ErrCorrupt rather than misparsing column payloads as rows.
func TestRowReaderRejectsBatch(t *testing.T) {
	chunks := encodeBatch(t, testRows(100), DefaultSize)
	r := NewReader(chunks[0])
	if _, err := r.Next(); err == nil || !isCorrupt(err) {
		t.Fatalf("row reader on batch chunk: got %v, want ErrCorrupt", err)
	}
}

// TestCorruptBatchHeader asserts every malformed-header shape surfaces as
// ErrCorrupt through DecodeBatch, Count, and the Iterator — never a panic.
func TestCorruptBatchHeader(t *testing.T) {
	base := encodeBatch(t, testRows(64), DefaultSize)[0]
	mutate := func(fn func(c []byte)) Chunk {
		c := append([]byte(nil), base...)
		fn(c)
		return c
	}
	cases := map[string]Chunk{
		"bad version":  mutate(func(c []byte) { c[len(batchMagic)] = 0x7f }),
		"bad kind":     mutate(func(c []byte) { c[len(batchMagic)+4] = 0x9f }),
		"truncated":    base[:len(base)-3],
		"trailing":     append(append([]byte(nil), base...), 0xaa, 0xbb),
		"column bound": mutate(func(c []byte) { c[len(batchMagic)+5] = 0xff }),
	}
	for name, c := range cases {
		if _, err := DecodeBatch(c, nil); err == nil || !isCorrupt(err) {
			t.Errorf("%s: DecodeBatch err = %v, want ErrCorrupt", name, err)
		}
	}
	// Count answers from the header alone (O(1)), so only header
	// corruption is visible to it.
	if _, err := Count(cases["bad version"]); err == nil || !isCorrupt(err) {
		t.Errorf("Count on bad version: got %v, want ErrCorrupt", err)
	}
	// Iterator over a corrupt batch must surface the error, not panic.
	it := NewSliceIterator[kvTestRow](kvTestCodec, []Chunk{cases["bad kind"]})
	if _, err := it.Next(); err == nil || !isCorrupt(err) {
		t.Fatalf("iterator over corrupt batch: got %v, want ErrCorrupt", err)
	}
}

func isCorrupt(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrCorrupt {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// FuzzBatchRoundTrip drives arbitrary row content through the batch
// writer and back through both decode paths (columnar and the batch→row
// adapter), and feeds arbitrary bytes to DecodeBatch: round-trips must be
// exact and corruption must error, never panic.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(-5), []byte("payload"), false)
	f.Add(uint64(0), int64(0), []byte{}, true)
	f.Add(^uint64(0), int64(math.MinInt64), bytes.Repeat([]byte{0x80}, 32), false)
	f.Fuzz(func(t *testing.T, k uint64, v int64, payload []byte, corrupt bool) {
		rows := []kvTestRow{
			{First: k, Second: Pair[int64, []byte]{First: v, Second: payload}},
			{First: k ^ 0xdead, Second: Pair[int64, []byte]{First: -v, Second: nil}},
		}
		chunks := encodeBatch(t, rows, DefaultSize)
		if len(chunks) != 1 {
			t.Fatalf("expected one batch, got %d", len(chunks))
		}
		c := chunks[0]
		if corrupt && len(payload) > 0 {
			// Arbitrary single-byte corruption anywhere in the chunk:
			// decoding may still succeed (payload bytes are opaque) but
			// must never panic, and row re-framing must stay in bounds.
			pos := int(k % uint64(len(c)))
			c = append([]byte(nil), c...)
			c[pos] ^= payload[0]
			bt, err := DecodeBatch(c, nil)
			if err != nil {
				return
			}
			var br batchReader
			br.reset(bt)
			for {
				if _, err := br.next(nil); err != nil {
					break
				}
			}
			return
		}
		got, err := NewSliceIterator[kvTestRow](kvTestCodec, []Chunk{c}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("got %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			if got[i].First != rows[i].First || got[i].Second.First != rows[i].Second.First ||
				!bytes.Equal(got[i].Second.Second, rows[i].Second.Second) {
				t.Fatalf("row %d mismatch", i)
			}
		}
		// Adapter path: re-framed records must equal the row encodings.
		recs, err := Records(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if want := kvTestCodec.Encode(nil, rows[i]); !bytes.Equal(rec, want) {
				t.Fatalf("row %d adapter mismatch", i)
			}
		}
	})
}

// TestBatchBuilderPooled pins the pooled-builder contract: steady-state
// encode cycles reuse column buffers, so per-batch allocations stay at
// the one Encode output allocation (plus the iterator's column vectors on
// decode).
func TestBatchBuilderPooled(t *testing.T) {
	kinds := KindsOf[kvTestRow](kvTestCodec)
	b := GetBatchBuilder(7, kinds)
	defer PutBatchBuilder(b)
	rows := testRows(128)
	// Warm the column buffers once.
	for _, r := range rows {
		kvTestCodec.EncodeColumn(b, 0, r)
		b.EndRow()
	}
	b.Encode()
	b.Clear()
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range rows {
			kvTestCodec.EncodeColumn(b, 0, r)
			b.EndRow()
		}
		b.Encode()
		b.Clear()
	})
	// One allocation for the encoded chunk; a small slack for size-class
	// growth under varying row content.
	if allocs > 2 {
		t.Fatalf("pooled builder allocates %.1f per batch, want <= 2", allocs)
	}
}

// BenchmarkBatchEncode is the allocs/op guard for the batch encode path:
// the regression it pins is "one allocation per batch", the property the
// shuffle scatter path depends on.
func BenchmarkBatchEncode(b *testing.B) {
	rows := testRows(1024)
	bb := GetBatchBuilder(1, KindsOf[kvTestRow](kvTestCodec))
	defer PutBatchBuilder(bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			kvTestCodec.EncodeColumn(bb, 0, r)
			bb.EndRow()
		}
		bb.Encode()
		bb.Clear()
	}
}

// BenchmarkBatchDecodeColumnar measures the vectorized decode path
// against BenchmarkReaderNext-style row decoding.
func BenchmarkBatchDecodeColumnar(b *testing.B) {
	rows := testRows(1024)
	c := encodeBatch(b, rows, DefaultSize)[0]
	var bt Batch
	var out []kvTestRow
	b.ReportAllocs()
	b.SetBytes(int64(len(c)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := DecodeBatch(c, &bt)
		if err != nil {
			b.Fatal(err)
		}
		out = out[:0]
		out, _, err = kvTestCodec.DecodeColumn(p, 0, out)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = out
}

// BenchmarkReaderReset is the allocs/op guard for Reader reuse: resetting
// a Reader across chunks must not allocate.
func BenchmarkReaderReset(b *testing.B) {
	var chunks []Chunk
	w := NewWriter(4<<10, func(c Chunk) error { chunks = append(chunks, c); return nil })
	enc := Uint64Codec{}
	var buf []byte
	for i := 0; i < 4096; i++ {
		buf = enc.Encode(buf[:0], uint64(i)*2654435761)
		if err := w.Append(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := new(Reader)
	for i := 0; i < b.N; i++ {
		total := 0
		for _, c := range chunks {
			r.Reset(c)
			for {
				rec, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				total += len(rec)
			}
		}
		if total == 0 {
			b.Fatal("empty scan")
		}
	}
}

func TestCountOffsetArithmetic(t *testing.T) {
	var chunks []Chunk
	w := NewWriter(1<<10, func(c Chunk) error { chunks = append(chunks, c); return nil })
	for i := 0; i < 300; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%40)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range chunks {
		n, err := Count(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 300 {
		t.Fatalf("Count total %d, want 300", total)
	}
	// A length prefix pointing past the chunk is corrupt, not a crash.
	bad := Chunk(binary.AppendUvarint(nil, 1<<30))
	if _, err := Count(bad); !isCorrupt(err) {
		t.Fatalf("Count on truncated frame: got %v, want ErrCorrupt", err)
	}
}
