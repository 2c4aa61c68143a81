package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The three ways into an Encoder: one Append per value, one AppendRows of
// the values, one AppendRows picking them out of a longer vector.
const (
	byAppend = iota
	byRows
	byIndex
)

// encodeAll writes vals through an Encoder of the given chunk size, by the
// given way in, and returns the emitted chunks, having checked each emit's
// row count against the chunk's own.
func encodeAll[T any](t testing.TB, codec Codec[T], size int, vals []T, how int) []Chunk {
	t.Helper()
	var chunks []Chunk
	e := NewEncoder(codec, size, func(c Chunk, rows int) error {
		if n, err := Count(c); err != nil || n != rows || rows == 0 {
			t.Fatalf("emitted a chunk of %d records (%v) as %d rows", n, err, rows)
		}
		chunks = append(chunks, c)
		return nil
	})
	switch how {
	case byAppend:
		for _, v := range vals {
			if err := e.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	case byRows:
		if err := e.AppendRows(vals, nil); err != nil {
			t.Fatal(err)
		}
	case byIndex:
		// vals sit at the odd places of src, other rows between them.
		src, idx := make([]T, 2*len(vals)), make([]int32, len(vals))
		for i, v := range vals {
			src[2*i], src[2*i+1], idx[i] = vals[len(vals)-1-i], v, int32(2*i+1)
		}
		if err := e.AppendRows(src, idx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// perRecord exposes a codec's columnar view and hides its bulk one, so an
// Encoder writes it one EncodeColumn per value at the call: the reference
// that Append's blocks are held to.
type perRecord[T any] struct{ ColumnCodec[T] }

// sameChunks fails unless got and want are the same chunks, byte for byte.
func sameChunks(t testing.TB, what string, got, want []Chunk) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: chunk #%d differs", what, i)
		}
	}
}

// checkWriters is the contract of the one-writer seam for one codec: the
// layout of every chunk follows the codec (batch under the codec itself and
// its per-record view, rows under its row-only view), whichever of Append,
// AppendRows and AppendRows through an index vector wrote it, and with
// byte-identical chunks from all three — and from Append under the codec
// and under its per-record view, so blocks are held to one EncodeColumn per
// value; no chunk exceeds the size by as much as one record, a row chunk
// not at all; and a Decoder reads the stream back value for value.
func checkWriters[T any](t testing.TB, codec Codec[T], size int, vals []T) {
	t.Helper()
	longest := 0
	for _, v := range vals {
		longest = max(longest, len(codec.Encode(nil, v)))
	}
	views := map[string]Codec[T]{"native": codec, "row-only": rowOnly[T]{codec}}
	if cc, ok := ColumnarOf(codec); ok {
		views["per-record"] = perRecord[T]{cc}
	}
	appended := make(map[string][]Chunk)
	for view, c := range views {
		chunks := encodeAll(t, c, size, vals, byAppend)
		appended[view] = chunks
		for _, how := range []int{byRows, byIndex} {
			sameChunks(t, fmt.Sprintf("%s: AppendRows (way %d) against Append", view, how), encodeAll(t, c, size, vals, how), chunks)
		}
		if len(chunks) < 2 && size <= 128 {
			t.Fatalf("%s: %d chunks, want several", view, len(chunks))
		}
		var got []T
		d := NewDecoder(c)
		for i, ch := range chunks {
			if IsBatch(ch) != (view != "row-only") {
				t.Fatalf("%s: chunk %d has the wrong layout", view, i)
			}
			if bound := size + longest; len(ch) >= bound || (!IsBatch(ch) && len(ch) > size) {
				t.Fatalf("%s: chunk %d is %d bytes at size %d, longest record %d", view, i, len(ch), size, longest)
			}
			var err error
			if got, err = d.Decode(ch, got); err != nil {
				t.Fatalf("%s: chunk %d: %v", view, i, err)
			}
		}
		if len(got) != len(vals) {
			t.Fatalf("%s: read %d values back, wrote %d", view, len(got), len(vals))
		}
		for i := range vals {
			if !bytes.Equal(codec.Encode(nil, got[i]), codec.Encode(nil, vals[i])) {
				t.Fatalf("%s: value %d = %v, want %v", view, i, got[i], vals[i])
			}
		}
	}
	if ref, ok := appended["per-record"]; ok {
		sameChunks(t, "Append against the per-record view", appended["native"], ref)
	}
}

// checkBlocks holds Append's blocks to the per-record view over seeded
// interleavings of the three writes: runs of Append that start and stop
// anywhere in a block, AppendRows with and without an index vector, and
// Flush — at chunk sizes that cut every record, several times a block and
// once in a few blocks. Both encoders take the same calls and must have
// emitted the same chunks, byte for byte, after every Flush and at Close.
func checkBlocks[T any](t *testing.T, codec Codec[T], vals []T) {
	t.Helper()
	cc, ok := ColumnarOf(codec)
	if !ok {
		t.Fatal("codec has no columnar view")
	}
	for len(vals) < 8*blockRows {
		vals = slices.Concat(vals, vals)
	}
	for _, size := range []int{128, 1000, 8192} {
		for seed := int64(0); seed < 8; seed++ {
			what := fmt.Sprintf("size %d, seed %d", size, seed)
			r := rand.New(rand.NewSource(seed))
			var got, want []Chunk
			enc := NewEncoder(codec, size, func(c Chunk, _ int) error { got = append(got, c); return nil })
			ref := NewEncoder[T](perRecord[T]{cc}, size, func(c Chunk, _ int) error { want = append(want, c); return nil })
			both := func(write func(e *Encoder[T]) error) {
				for _, e := range []*Encoder[T]{enc, ref} {
					if err := write(e); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
			}
			for off := 0; off < len(vals); {
				run := vals[off : off+min(len(vals)-off, 1+r.Intn(2*blockRows))]
				switch r.Intn(4) {
				case 0, 1:
					both(func(e *Encoder[T]) error {
						for _, v := range run {
							if err := e.Append(v); err != nil {
								return err
							}
						}
						return nil
					})
				case 2:
					both(func(e *Encoder[T]) error { return e.AppendRows(run, nil) })
				case 3:
					idx := make([]int32, len(run))
					for i := range idx {
						idx[i] = int32(off + i)
					}
					both(func(e *Encoder[T]) error { return e.AppendRows(vals, idx) })
				}
				off += len(run)
				if r.Intn(4) == 0 {
					both((*Encoder[T]).Flush)
					sameChunks(t, what+", at a Flush", got, want)
				}
			}
			both((*Encoder[T]).Close)
			sameChunks(t, what+", at Close", got, want)
		}
	}
}

// TestAppendBlockDifferential runs checkBlocks over every built-in codec;
// for those without a bulk view Append encodes at the call on both sides.
func TestAppendBlockDifferential(t *testing.T) {
	for _, c := range stockCases() {
		t.Run(c.name, c.blocks)
	}
}

// TestEncoderClosed: after Close every write is ErrClosed on every arm —
// including a bulk codec's Append, which would otherwise land in a block no
// Flush is left to drain — nothing more is emitted, and Close again is a
// no-op.
func TestEncoderClosed(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"bulk", func(t *testing.T) { checkClosed[uint64](t, Uint64Codec{}, 7) }},
		{"per-record", func(t *testing.T) { checkClosed[uint64](t, perRecord[uint64]{Uint64Codec{}}, 7) }},
		{"blob", func(t *testing.T) { checkClosed[[]byte](t, BytesCodec{}, []byte("v")) }},
		{"row", func(t *testing.T) { checkClosed[uint64](t, rowOnly[uint64]{Uint64Codec{}}, 7) }},
	} {
		t.Run(c.name, c.check)
	}
}

func checkClosed[T any](t *testing.T, codec Codec[T], v T) {
	emitted := 0
	e := NewEncoder(codec, 0, func(Chunk, int) error { emitted++; return nil })
	if err := e.Append(v); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil || emitted != 1 {
		t.Fatalf("Close: %v, %d chunks emitted, want 1", err, emitted)
	}
	for name, write := range map[string]func() error{
		"Append":              func() error { return e.Append(v) },
		"AppendRows":          func() error { return e.AppendRows([]T{v, v}, nil) },
		"AppendRows, indexed": func() error { return e.AppendRows([]T{v, v}, []int32{1}) },
		"AppendRows, empty":   func() error { return e.AppendRows(nil, nil) },
		"Flush":               e.Flush,
	} {
		if err := write(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if err := e.Close(); err != nil || emitted != 1 {
		t.Fatalf("second Close: %v, %d chunks emitted, want 1", err, emitted)
	}
}

// TestEncoderLayouts is the table for the one-writer seam: every built-in
// codec, native and row-only.
func TestEncoderLayouts(t *testing.T) {
	for _, c := range stockCases() {
		t.Run(c.name, c.writers)
	}
}

// TestEncoderSplitsAtSizeBound: one AppendRows of a million rows comes out
// as chunks of the configured size, not as one chunk of a million rows.
func TestEncoderSplitsAtSizeBound(t *testing.T) {
	codec := PairCodec[uint64, uint64]{A: Uint64Codec{}, B: Uint64FixedCodec{}}
	vals := make([]Pair[uint64, uint64], 1<<20)
	for i := range vals {
		vals[i] = Pair[uint64, uint64]{First: 7, Second: uint64(i)}
	}
	const size = 4 << 10
	rows := 0
	e := NewEncoder[Pair[uint64, uint64]](codec, size, func(c Chunk, n int) error {
		if len(c) >= size+9 {
			t.Fatalf("chunk of %d bytes (%d rows) at size %d", len(c), n, size)
		}
		rows += n
		return nil
	})
	if err := e.AppendRows(vals, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != len(vals) {
		t.Fatalf("emitted %d rows of %d", rows, len(vals))
	}
}

// TestEncoderRecordTooLarge: a record above the chunk size is refused in
// both layouts, and refusing it costs the stream nothing it already holds.
func TestEncoderRecordTooLarge(t *testing.T) {
	const size = 256
	for view, codec := range map[string]Codec[[]byte]{"native": BytesCodec{}, "row-only": rowOnly[[]byte]{BytesCodec{}}} {
		var chunks []Chunk
		e := NewEncoder(codec, size, func(c Chunk, _ int) error { chunks = append(chunks, c); return nil })
		for _, v := range [][]byte{[]byte("before"), make([]byte, size+1), []byte("after")} {
			err := e.Append(v)
			if big := len(v) > size; big != errors.Is(err, ErrRecordTooLarge) {
				t.Fatalf("%s: Append of %d bytes at size %d: %v", view, len(v), size, err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := NewSliceIterator(codec, chunks).Collect()
		if err != nil || len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
			t.Fatalf("%s: stream holds %q (%v), want the two records that fit", view, got, err)
		}
	}
	// A numeric record can be too large only for an absurd size; the rule
	// is the same.
	e := NewEncoder[uint64](Uint64Codec{}, 8, func(Chunk, int) error { return nil })
	if err := e.Append(math.MaxUint64); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("10-byte varint into 8-byte chunks: %v", err)
	}
	if err := e.Append(1); err != nil {
		t.Fatal(err)
	}
}

// FuzzEncoderRoundTrip cuts fuzz bytes into values of every built-in codec
// and holds the writer contract (checkWriters) over them at a fuzzed chunk
// size: Encoder to Decoder is the identity, under the codec and under its
// row-only view, through Append and AppendRows alike, with the size bound
// held.
func FuzzEncoderRoundTrip(f *testing.F) {
	f.Add([]byte("a few bytes to cut into values of every built-in type"), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x00, 0x7f}, 200), uint16(300))
	f.Add([]byte{}, uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, pad uint16) {
		// Enough values for several chunks whatever the input.
		data = append(data, bytes.Repeat([]byte{byte(pad), byte(pad >> 8), 1}, 400)...)
		size := 128 + int(pad)%1024
		var (
			ints   []int64
			uints  []uint64
			floats []float64
			strs   []string
			blobs  [][]byte
			kvs    []KV
			rows   []kvTestRow
		)
		for len(data) > 0 {
			var w [8]byte
			n := copy(w[:], data)
			u := binary.LittleEndian.Uint64(w[:])
			blob := data[:min(len(data), int(data[0])%17)]
			data = data[max(n, len(blob)):]
			ints = append(ints, int64(u))
			uints = append(uints, u>>(u%64))
			floats = append(floats, math.Float64frombits(u))
			strs = append(strs, string(blob))
			blobs = append(blobs, blob)
			kvs = append(kvs, KV{Key: string(blob), Value: w[:n]})
			rows = append(rows, kvTestRow{First: u, Second: Pair[int64, []byte]{First: int64(u), Second: blob}})
		}
		checkWriters[int64](t, Int64Codec{}, size, ints)
		checkWriters[uint64](t, Uint64Codec{}, size, uints)
		checkWriters[uint64](t, Uint64FixedCodec{}, size, uints)
		checkWriters[float64](t, Float64Codec{}, size, floats)
		checkWriters[string](t, StringCodec{}, size, strs)
		checkWriters[[]byte](t, BytesCodec{}, size, blobs)
		checkWriters[KV](t, KVCodec{}, size, kvs)
		checkWriters[kvTestRow](t, kvTestCodec, size, rows)
	})
}
