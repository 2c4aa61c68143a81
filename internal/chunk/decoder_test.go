package chunk

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"
)

// rowOnly hides a codec's columnar methods, so that its view is the blob
// view: one blob column of the codec's row encoding.
type rowOnly[T any] struct{ Codec[T] }

// views is a codec under its own view and under the blob view.
func views[T any](codec Codec[T]) map[string]Codec[T] {
	return map[string]Codec[T]{"native": codec, "row-only": rowOnly[T]{codec}}
}

// rowChunks writes vals as row chunks of the given size: the frozen
// benchmark's layout, which no engine path writes.
func rowChunks[T any](t testing.TB, codec Codec[T], size int, vals []T) []Chunk {
	t.Helper()
	var chunks []Chunk
	tw := NewTypedWriter(codec, size, func(c Chunk) error { chunks = append(chunks, c); return nil })
	for _, v := range vals {
		if err := tw.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// checkReaders asserts that each view of codec reads the chunks it wrote
// back equal, through a Decoder and through an Iterator, and refuses the
// other view's chunks as ErrCorrupt; and that row chunks read back through
// an Iterator, while a Decoder refuses them by name. Small chunks force
// several of each. Equality is by re-encoding, which every codec defines.
func checkReaders[T any](t *testing.T, codec Codec[T], vals []T) {
	t.Helper()
	same := func(what string, got []T) {
		t.Helper()
		if len(got) != len(vals) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(vals))
		}
		for i := range vals {
			if !bytes.Equal(codec.Encode(nil, got[i]), codec.Encode(nil, vals[i])) {
				t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], vals[i])
			}
		}
	}
	written := make(map[string][]Chunk)
	for view, c := range views(codec) {
		if written[view] = encodeAll(t, c, 96, vals, byAppend); len(written[view]) < 2 {
			t.Fatalf("%s: want several chunks, got %d", view, len(written[view]))
		}
	}
	for view, c := range views(codec) {
		for layout, chunks := range written {
			d := NewDecoder(c)
			var got []T
			var err error
			for _, ch := range chunks {
				if got, err = d.Decode(ch, got); err != nil {
					break
				}
			}
			if layout != view {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s view read the %s view's chunks: %v, want ErrCorrupt", view, layout, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Decode: %v", view, err)
			}
			same(view+"/Decoder", got)
			got, err = NewSliceIterator(c, chunks).Collect()
			if err != nil {
				t.Fatalf("%s: Iterator: %v", view, err)
			}
			same(view+"/Iterator", got)
		}
	}
	rows := rowChunks(t, codec, 96, vals)
	got, err := NewSliceIterator(codec, rows).Collect()
	if err != nil {
		t.Fatalf("rows: Iterator: %v", err)
	}
	same("rows/Iterator", got)
	if _, err := NewDecoder(codec).Decode(rows[0], nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "row chunk; codec reads [") {
		t.Fatalf("Decoder read a row chunk: %v, want ErrCorrupt naming both layouts", err)
	}
}

// numTestRow nests a pair on both sides, over all four numeric leaves, so
// every level of the tuple gathers and decodes through its own scratch.
type numTestRow = Pair[Pair[uint64, int64], Pair[uint64, float64]]

var numTestCodec = PairCodec[Pair[uint64, int64], Pair[uint64, float64]]{
	A: PairCodec[uint64, int64]{A: Uint64Codec{}, B: Int64Codec{}},
	B: PairCodec[uint64, float64]{A: Uint64FixedCodec{}, B: Float64Codec{}},
}

// stockCase is one built-in codec with a value set, closed over its type so
// the reader and the writer tables can range over all of them.
type stockCase struct {
	name    string
	readers func(t *testing.T)
	writers func(t *testing.T)
	blocks  func(t *testing.T)
}

func stock[T any](name string, codec Codec[T], vals []T) stockCase {
	return stockCase{
		name:    name,
		readers: func(t *testing.T) { checkReaders(t, codec, vals) },
		writers: func(t *testing.T) { checkWriters(t, codec, 128, vals) },
		blocks:  func(t *testing.T) { checkBlocks(t, codec, vals) },
	}
}

// stockCases is every built-in codec over values that exercise its
// encoding's edges.
func stockCases() []stockCase {
	const n = 200
	var (
		ints   []int64
		uints  []uint64
		fixed  []uint64
		floats []float64
		strs   []string
		blobs  [][]byte
		kvs    []KV
		flat   []Pair[uint64, uint64]
		signed []Pair[int64, float64]
		nested []numTestRow
	)
	for i := 0; i < n; i++ {
		ints = append(ints, int64(i-n/2)*(1<<uint(i%50)))
		uints = append(uints, uint64(i)<<uint(i%57))
		fixed = append(fixed, uint64(i)*0x9e3779b97f4a7c15)
		floats = append(floats, float64(i)/7-3)
		strs = append(strs, string(bytes.Repeat([]byte{'a' + byte(i%26)}, i%9)))
		blobs = append(blobs, bytes.Repeat([]byte{byte(i)}, i%11))
		kvs = append(kvs, KV{Key: string(rune('k' + i%5)), Value: bytes.Repeat([]byte{byte(i)}, i%6)})
		flat = append(flat, Pair[uint64, uint64]{First: uints[i], Second: fixed[i]})
		signed = append(signed, Pair[int64, float64]{First: ints[i], Second: floats[i]})
		nested = append(nested, numTestRow{First: Pair[uint64, int64]{First: uints[i], Second: ints[i]}, Second: Pair[uint64, float64]{First: fixed[i], Second: floats[i]}})
	}
	return []stockCase{
		stock[int64]("int64", Int64Codec{}, append(ints, math.MinInt64, math.MaxInt64)),
		stock[uint64]("uint64", Uint64Codec{}, append(uints, math.MaxUint64)),
		stock[uint64]("uint64fixed", Uint64FixedCodec{}, fixed),
		stock[float64]("float64", Float64Codec{}, append(floats, math.Inf(1), math.NaN())),
		stock[string]("string", StringCodec{}, strs),
		stock[[]byte]("bytes", BytesCodec{}, blobs),
		stock[KV]("kv", KVCodec{}, kvs),
		stock[kvTestRow]("pair", kvTestCodec, testRows(n)),
		stock[Pair[uint64, uint64]]("pair/varint-fixed", PairCodec[uint64, uint64]{A: Uint64Codec{}, B: Uint64FixedCodec{}}, flat),
		stock[Pair[int64, float64]]("pair/zigzag-float", PairCodec[int64, float64]{A: Int64Codec{}, B: Float64Codec{}}, signed),
		stock[numTestRow]("pair/nested-numeric", numTestCodec, nested),
	}
}

// TestDecoderLayouts is the table for the one-reader seam: every built-in
// codec, native and row-only, each over its own chunks, the other view's
// and row chunks.
func TestDecoderLayouts(t *testing.T) {
	for _, c := range stockCases() {
		t.Run(c.name, c.readers)
	}
}

// TestDecodeAccumulatesGeometrically: Collect decodes chunk after chunk
// into one growing slice. That slice must grow like append, not be
// reallocated to the exact size once per chunk.
func TestDecodeAccumulatesGeometrically(t *testing.T) {
	chunks := encodeBatch(t, testRows(20000), 1<<10)
	d := NewDecoder[kvTestRow](kvTestCodec)
	var out []kvTestRow
	grows := 0
	for _, c := range chunks {
		before := cap(out)
		var err error
		if out, err = d.Decode(c, out); err != nil {
			t.Fatal(err)
		}
		if cap(out) != before {
			grows++
		}
	}
	if len(chunks) < 200 || grows > 40 {
		t.Fatalf("%d reallocations over %d chunks", grows, len(chunks))
	}
}

// TestDecoderRejectsForeignBatch: a well-formed batch of another schema is
// corrupt to this reader, not an index out of range in a column decoder,
// and the error names both layouts.
func TestDecoderRejectsForeignBatch(t *testing.T) {
	var narrow []Chunk
	w := NewEncoder[uint64](Uint64Codec{}, DefaultSize, func(c Chunk, _ int) error {
		narrow = append(narrow, c)
		return nil
	})
	for i := uint64(0); i < 10; i++ {
		if err := w.Append(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		d    *Decoder[kvTestRow]
		want string
	}{
		"native":   {NewDecoder[kvTestRow](kvTestCodec), "chunk columns [varint]; codec reads [varint varint len bytes]"},
		"row-only": {NewDecoder[kvTestRow](rowOnly[kvTestRow]{kvTestCodec}), "chunk columns [varint]; codec reads blob [len bytes]"},
	} {
		if _, err := c.d.Decode(narrow[0], nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: one-column batch through another layout: got %v, want ErrCorrupt with %q", name, err, c.want)
		}
	}
}

// FuzzDecoder damages chunks of both views and a row chunk — one flipped
// byte, then a truncation — and feeds raw fuzz bytes as a chunk of their
// own. Decode, under the columnar codec and its row-only (blob) view, must
// return values or an error wrapping ErrCorrupt; it must never panic, and a
// claimed row count must never make it allocate beyond what the chunk's
// bytes can hold. An undamaged row chunk is ErrCorrupt. Each
// chunk holds 64 rows cut from the fuzzed values, varints of every width
// among them, so the damage lands in columns long enough for the
// word-at-a-time kernels; the numeric tuple adds fixed8 columns.
func FuzzDecoder(f *testing.F) {
	f.Add(uint64(1), int64(-5), []byte("payload"), uint16(3), byte(0x80), uint16(0))
	f.Add(uint64(0), int64(0), []byte{}, uint16(14), byte(0xff), uint16(5))
	f.Add(^uint64(0), int64(math.MinInt64), bytes.Repeat([]byte{0x80}, 32), uint16(20), byte(1), uint16(40))
	// A blob length prefix flipped to overflow int once added to its offset.
	f.Add(^uint64(0), int64(math.MinInt64+54), []byte("0"), uint16(8), byte(0xc3), uint16(4))
	// A flip inside the varint column's first whole word.
	f.Add(uint64(0x0123456789abcdef), int64(77), []byte("abc"), uint16(40), byte(0x80), uint16(0))
	f.Fuzz(func(t *testing.T, k uint64, v int64, payload []byte, pos uint16, flip byte, cut uint16) {
		payload = payload[:min(len(payload), 1<<10)] // 64 rows fit one chunk
		var kvs []kvTestRow
		var nums []numTestRow
		for i := 0; i < 64; i++ {
			// Shifting walks the values through every varint width.
			ki, vi := bits.RotateLeft64(k, i)>>uint(i), v>>uint(i)
			kvs = append(kvs, kvTestRow{First: ki, Second: Pair[int64, []byte]{First: vi, Second: payload[:len(payload)*i/64]}})
			nums = append(nums, numTestRow{First: Pair[uint64, int64]{First: ki, Second: vi}, Second: Pair[uint64, float64]{First: k + uint64(i), Second: float64(vi)}})
		}
		fuzzDecoder(t, kvTestCodec, kvs, payload, pos, flip, cut)
		fuzzDecoder(t, numTestCodec, nums, payload, pos, flip, cut)
	})
}

func fuzzDecoder[T any](t *testing.T, codec Codec[T], rows []T, raw []byte, pos uint16, flip byte, cut uint16) {
	var chunks [2][]Chunk // native view, blob view
	for i, c := range []Codec[T]{codec, rowOnly[T]{codec}} {
		chunks[i] = encodeAll(t, c, 1<<16, rows, byAppend)
	}
	row := rowChunks(t, codec, 1<<16, rows)[0]
	native := NewDecoder(codec)
	blob := NewDecoder[T](rowOnly[T]{codec})
	for _, d := range []*Decoder[T]{native, blob} {
		if _, err := d.Decode(row, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("row chunk: %v, want ErrCorrupt", err)
		}
	}
	damage := func(c Chunk) Chunk {
		c = append(Chunk(nil), c...)
		c[int(pos)%len(c)] ^= flip
		return c[:len(c)-int(cut)%len(c)]
	}
	inputs := []Chunk{
		damage(chunks[0][0]),
		damage(chunks[1][0]),
		damage(row),
		Chunk(raw),
		append(append(Chunk(nil), batchMagic[:]...), raw...),
	}
	for i, c := range inputs {
		for _, d := range []*Decoder[T]{native, blob} {
			got, err := d.Decode(c, nil)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("input %d: error %v does not wrap ErrCorrupt", i, err)
			}
			if cap(got) > 2*len(c)+8 { // slack for append's doubling
				t.Fatalf("input %d: %d-byte chunk decoded into room for %d rows", i, len(c), cap(got))
			}
		}
	}
}
