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

// refUvarints is what decodeUvarints must agree with: binary.Uvarint, one
// value at a time, stopping at the first it cannot read.
func refUvarints(data []byte, rows int) (vals []uint64, off int) {
	for len(vals) < rows {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			break
		}
		vals, off = append(vals, v), off+n
	}
	return vals, off
}

// checkKernel decodes rows values of data with the kernel, behind a prefix
// already in out, and holds it to the reference: same values, same bytes
// consumed, and ErrCorrupt exactly when the reference stops short — with
// out ending at the last whole row.
func checkKernel(t *testing.T, what string, data []byte, rows int) {
	t.Helper()
	want, wantOff := refUvarints(data, rows)
	got, off, err := decodeUvarints([]uint64{7, 7, 7}, data, rows)
	if len(got) < 3 || !slices.Equal(got[3:], want) {
		t.Fatalf("%s: decoded %d values %v, want %d %v", what, len(got)-3, got, len(want), want)
	}
	if (len(want) < rows) != (err != nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
		t.Fatalf("%s: %d of %d rows readable, error %v", what, len(want), rows, err)
	}
	if off != wantOff {
		t.Fatalf("%s: consumed %d bytes, want %d", what, off, wantOff)
	}
}

// uvarintOfLen returns a value whose varint takes n bytes, 1 to 10.
func uvarintOfLen(r *rand.Rand, n int) uint64 {
	if n == 10 {
		return 1<<63 + r.Uint64()>>1
	}
	lo, hi := uint64(1)<<(7*(n-1)), uint64(1)<<(7*n)
	if n == 1 {
		lo = 0
	}
	return lo + r.Uint64()%(hi-lo)
}

// checkColumn encodes vals as a varint column and holds the kernel to the
// reference on it, on it asked for a row more than it holds, and on it cut
// short at every byte.
func checkColumn(t *testing.T, what string, vals []uint64) {
	t.Helper()
	var data []byte
	for _, v := range vals {
		data = binary.AppendUvarint(data, v)
	}
	checkKernel(t, what, data, len(vals))
	checkKernel(t, what+", a row too many", data, len(vals)+1)
	for cut := range data {
		checkKernel(t, what+", truncated", data[:cut], len(vals))
	}
}

// TestUvarintKernelDifferential places a varint of every length, 1 to 10
// bytes, at every offset within an 8-byte word and every distance from
// the column's tail, among one-byte neighbours; then seeded columns of
// mixed widths. Each column is also cut short at every byte, and asked
// for a row more than it holds.
func TestUvarintKernelDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for n := 1; n <= 10; n++ {
		for before := 0; before < 18; before++ {
			for after := 0; after < 18; after++ {
				vals := make([]uint64, before+1+after)
				for i := range vals {
					vals[i] = r.Uint64() % 128
				}
				vals[before] = uvarintOfLen(r, n)
				checkColumn(t, "one wide value", vals)
			}
		}
	}
	for col := 0; col < 200; col++ {
		vals := make([]uint64, r.Intn(70))
		wide := 1 + r.Intn(10)
		for i := range vals {
			vals[i] = uvarintOfLen(r, 1+r.Intn(wide))
		}
		checkColumn(t, "mixed widths", vals)
	}
	// Eleven continuation bytes overflow a uvarint wherever they sit.
	for before := 0; before < 18; before++ {
		data := append(make([]byte, before), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1)
		checkKernel(t, "overlong varint", append(data, make([]byte, 20)...), before+8)
	}
}

// TestUvarintRunsDifferential holds the kernel to binary.Uvarint on runs
// of one width, where the word arms take over: runs of every width from 1
// to 10 bytes and of every length to 20 values, alone and between mixed
// neighbours; runs of 1 to 13 2-byte values — the arm that decodes four
// per word — starting at every byte offset mod 8 and ending 0 to 17 bytes
// from the column's end, so across the off+16 guard and at the end itself;
// and columns of mostly 2-byte values. Every column is also cut short at
// every byte (ErrCorrupt, no panic) and asked for a row more than it
// holds.
func TestUvarintRunsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for n := 1; n <= 10; n++ {
		for run := 1; run <= 20; run++ {
			vals := make([]uint64, run)
			for i := range vals {
				vals[i] = uvarintOfLen(r, n)
			}
			checkColumn(t, fmt.Sprintf("run of %d %d-byte values", run, n), vals)
			mixed := []uint64{uvarintOfLen(r, 1+r.Intn(10))}
			mixed = append(append(mixed, vals...), uvarintOfLen(r, 1+r.Intn(10)))
			checkColumn(t, fmt.Sprintf("run of %d %d-byte values, mixed neighbours", run, n), mixed)
		}
	}
	for lead := 0; lead < 16; lead++ { // bytes before the run: offsets mod 8, in the first word and the second
		for run := 1; run <= 13; run++ {
			for tail := 0; tail <= 17; tail++ { // one-byte values after it
				var vals []uint64
				for b := lead; b > 0; {
					w := 1 + r.Intn(min(b, 3)) // fill the lead with 1- to 3-byte values
					vals, b = append(vals, uvarintOfLen(r, w)), b-w
				}
				for range run {
					vals = append(vals, uvarintOfLen(r, 2))
				}
				for range tail {
					vals = append(vals, r.Uint64()%128)
				}
				checkColumn(t, fmt.Sprintf("%d 2-byte values after %d bytes, before %d", run, lead, tail), vals)
			}
		}
	}
	// Columns where 2-byte values dominate but are broken up by other
	// widths at random, so a word holds pairs of every alignment.
	for col := 0; col < 300; col++ {
		vals := make([]uint64, r.Intn(80))
		for i := range vals {
			w := 2
			if r.Intn(6) == 0 {
				w = 1 + r.Intn(10)
			}
			vals[i] = uvarintOfLen(r, w)
		}
		checkColumn(t, "mostly 2-byte values", vals)
	}
}

// TestFixedColumnKernels holds the fixed8 kernels' copy arm, the one a
// little-endian host runs, to their portable loop: the same column bytes
// out of EncodeRows, with no index vector and with one, and the same
// values, bit for bit, out of DecodeColumn, appended after elements
// already in out, from a column at an even and at an odd offset of its
// chunk. The last value selected is never zero, so a copy one value short
// leaves a difference behind it.
func TestFixedColumnKernels(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	uints := []uint64{0, 1, math.MaxUint64, 1 << 63, 0x0102030405060708}
	floats := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0xfff0000000000abc), // signalling NaN, sign set
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5,
	}
	for range 50 {
		uints = append(uints, r.Uint64())
		floats = append(floats, r.NormFloat64())
	}
	checkFixed8(t, "uint64", Uint64FixedCodec{}, uints, sameWord, sameWord)
	checkFixed8(t, "float64", Float64Codec{}, floats, math.Float64bits, math.Float64frombits)
}

func checkFixed8[T uint64 | float64](t *testing.T, name string, c interface {
	ColumnCodec[T]
	BulkColumnCodec[T]
}, vs []T, word func(T) uint64, value func(uint64) T) {
	t.Helper()
	bits := func(vs []T) (ws []uint64) {
		for _, v := range vs {
			ws = append(ws, word(v))
		}
		return ws
	}
	idx := make([]int32, 0, 2*len(vs))
	for i := len(vs) - 1; i >= 0; i-- { // backwards, each row twice
		idx = append(idx, int32(i), int32(i))
	}
	idx = append(idx, 2) // ending on math.MaxUint64 or −0
	odd := false
	for _, sel := range [][]int32{nil, idx} {
		rows := vs
		if sel != nil {
			rows = nil
			for _, i := range sel {
				rows = append(rows, vs[i])
			}
		}
		want := make([]byte, 8*len(rows))
		putFixed8s(want, rows, word)
		// A varint column of one- or two-byte keys ahead of the fixed one
		// moves it to an even or an odd offset of the chunk.
		for _, key := range []uint64{1, 1 << 7} {
			what := fmt.Sprintf("%s, index %t, key %d", name, sel != nil, key)
			b := new(BatchBuilder)
			b.Reset(0, []ColKind{ColVarint, ColFixed8})
			keys := make([]uint64, len(rows))
			keys[0] = key
			b.appendUvarints(0, keys)
			if next := c.EncodeRows(b, 1, vs, sel); next != 2 {
				t.Fatalf("%s: EncodeRows returned column %d, want 2", what, next)
			}
			if !bytes.Equal(b.cols[1], want) {
				t.Fatalf("%s: encoded column\n%x\nwant\n%x", what, b.cols[1], want)
			}
			b.EndRows(len(rows))
			ch := b.Encode()
			bt, err := DecodeBatch(ch, nil)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			// The fixed column is the chunk's last bytes.
			odd = odd || (len(ch)-len(bt.Cols[1].Data))%2 == 1

			wantVals := make([]T, len(rows))
			getFixed8s(wantVals, bt.Cols[1].Data, value)
			prefix := []T{value(7), value(8), value(9)}
			got, next, err := c.DecodeColumn(bt, 1, slices.Clone(prefix))
			if err != nil || next != 2 {
				t.Fatalf("%s: DecodeColumn returned column %d, %v", what, next, err)
			}
			if w := bits(append(prefix, wantVals...)); !slices.Equal(bits(got), w) {
				t.Fatalf("%s: decoded %x\nwant %x", what, bits(got), w)
			}
			if !slices.Equal(bits(wantVals), bits(rows)) {
				t.Fatalf("%s: portable arm decoded %x\nwant %x", what, bits(wantVals), bits(rows))
			}
		}
	}
	if !odd {
		t.Fatalf("%s: no fixed column sat at an odd offset of its chunk", name)
	}
}

// TestTupleAllocs holds the write and read paths' allocation budget on the
// benchmark's record: one allocation per batch encoded (the chunk), by
// AppendRows or by one Append per record once the first block is in, none
// per batch decoded once the Decoder's scratch is warm. Beside it, what
// Append's blocks must not change: a record that can alias the caller's
// memory is encoded at the call, and only a codec with a bulk view is held
// in a block at all.
func TestTupleAllocs(t *testing.T) {
	ts := benchTuples(zipfKeys(1.3, 1<<16-1))[:benchBatchRows]
	for name, write := range map[string]func(e *Encoder[benchTuple]) error{
		"AppendRows": func(e *Encoder[benchTuple]) error { return e.AppendRows(ts, nil) },
		"Append": func(e *Encoder[benchTuple]) error {
			for _, v := range ts {
				if err := e.Append(v); err != nil {
					return err
				}
			}
			return nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			var c Chunk
			e := NewEncoder[benchTuple](benchTupleCodec, 1<<20, func(ch Chunk, _ int) error { c = ch; return nil })
			d := NewDecoder[benchTuple](benchTupleCodec)
			var vec []benchTuple
			round := func() {
				if err := write(e); err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				var err error
				if vec, err = d.Decode(c, vec[:0]); err != nil || !slices.Equal(vec, ts) {
					t.Fatalf("decoded %d of %d rows: %v", len(vec), len(ts), err)
				}
			}
			round()
			if n := testing.AllocsPerRun(20, round); n > 1 {
				t.Fatalf("%v allocations per %d-row batch encoded and decoded, want 1", n, len(ts))
			}
		})
	}
	t.Run("caller's bytes", func(t *testing.T) {
		for view, codec := range views[[]byte](BytesCodec{}) {
			var chunks []Chunk
			e := NewEncoder(codec, 64, func(c Chunk, _ int) error { chunks = append(chunks, c); return nil })
			var want [][]byte
			buf := make([]byte, 4)
			for i := range 100 {
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(i))
				if err := e.Append(buf); err != nil {
					t.Fatal(err)
				}
				want = append(want, slices.Clone(buf))
				buf[0] = 0xff // the caller reuses its buffer
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := NewSliceIterator(codec, chunks).Collect()
			if err != nil || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: read back %x (%v), want %x", view, got, err, want)
			}
		}
	})
	t.Run("no block without a bulk view", func(t *testing.T) {
		unbuffered(t, "bytes", BytesCodec{}, 0, []byte("v"))
		unbuffered(t, "string", StringCodec{}, 0, "v")
		unbuffered(t, "kv", KVCodec{}, 0, KV{Key: "k", Value: []byte("v")})
		unbuffered[benchTuple](t, "row-only", rowOnly[benchTuple]{benchTupleCodec}, 0, ts[0])
		cc, _ := ColumnarOf[benchTuple](benchTupleCodec)
		unbuffered[benchTuple](t, "per-record", perRecord[benchTuple]{cc}, 0, ts[0])
		// A chunk size one record could exceed takes the measuring path.
		unbuffered[benchTuple](t, "tiny chunks", benchTupleCodec, 12, ts[0])
	})
}

// unbuffered appends v over a few blocks' worth of calls and fails if any
// of them left it in Append's block rather than the encoder's open chunk.
func unbuffered[T any](t *testing.T, name string, codec Codec[T], size int, v T) {
	t.Helper()
	emitted := 0
	e := NewEncoder(codec, size, func(_ Chunk, rows int) error { emitted += rows; return nil })
	for i := 1; i <= 2*blockRows; i++ {
		if err := e.Append(v); err != nil {
			t.Fatal(err)
		}
		if e.blk != nil || emitted+e.b.rows != i {
			t.Fatalf("%s: after %d Appends %d records are emitted and %d open, %d in a block", name, i, emitted, e.b.rows, len(e.blk))
		}
	}
}

// The benchmark's own record: a varint key beside a fixed 8-byte payload.
type benchTuple = Pair[uint64, uint64]

var benchTupleCodec = PairCodec[uint64, uint64]{A: Uint64Codec{}, B: Uint64FixedCodec{}}

// The benchmarks cycle through benchBatches distinct batches: one batch
// over and over teaches the branch predictor its varint lengths.
const (
	benchBatchRows = 4096
	benchBatches   = 64
)

// benchKeyColumns are the key columns the codec benchmarks price: the two
// the engine's benchmark feeds the codec through its shuffles — Zipf(1.3)
// over 2^16 keys (83 % one-byte, 16 % two-byte, 2 % three-byte varints)
// and Zipf(2) over 64 (every varint one byte) — and the shape of a join's
// build side, dense ids 0..16383 in order (99 % two-byte varints).
var benchKeyColumns = []struct {
	name string
	keys func(*rand.Rand) func() uint64
}{
	{"zipf1.3_64k", zipfKeys(1.3, 1<<16-1)},
	{"zipf2_64", zipfKeys(2, 63)},
	{"dense_16k", func(*rand.Rand) func() uint64 {
		var next uint64
		return func() uint64 {
			next++
			return (next - 1) % (1 << 14)
		}
	}},
}

// zipfKeys draws Zipf(s) keys over [0, imax].
func zipfKeys(s float64, imax uint64) func(*rand.Rand) func() uint64 {
	return func(r *rand.Rand) func() uint64 { return rand.NewZipf(r, s, 1, imax).Uint64 }
}

func benchTuples(keys func(*rand.Rand) func() uint64) []benchTuple {
	r := rand.New(rand.NewSource(47))
	key := keys(r)
	ts := make([]benchTuple, benchBatches*benchBatchRows)
	for i := range ts {
		ts[i] = benchTuple{First: key(), Second: r.Uint64()}
	}
	return ts
}

// BenchmarkTupleEncodeRows is the write path the engine runs per shuffle
// leaf: one bulk EncodeRows of a 4096-row block through an index vector,
// one Encode. One allocation per batch — the chunk.
func BenchmarkTupleEncodeRows(b *testing.B) {
	for _, col := range benchKeyColumns {
		b.Run(col.name, func(b *testing.B) {
			ts := benchTuples(col.keys)
			idx := make([]int32, benchBatchRows)
			for i := range idx {
				idx[i] = int32(i)
			}
			cc, _ := ColumnarOf[benchTuple](benchTupleCodec)
			bulk, _ := BulkOf(cc)
			bb := GetBatchBuilder(0, KindsOf(cc))
			defer PutBatchBuilder(bb)
			var c Chunk
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i % benchBatches * benchBatchRows
				bulk.EncodeRows(bb, 0, ts[lo:lo+benchBatchRows], idx)
				bb.EndRows(benchBatchRows)
				c = bb.Encode()
				bb.Clear()
			}
			b.StopTimer()
			b.SetBytes(int64(len(c)))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatchRows), "ns/rec")
		})
	}
}

// BenchmarkTupleAppend is the write path of a record-at-a-time producer:
// one Append per tuple into an Encoder at the default chunk size, in
// blocks under the codec ("block") and one EncodeColumn per value under
// its per-record view ("per-record"). One allocation per chunk emitted.
func BenchmarkTupleAppend(b *testing.B) {
	for _, col := range benchKeyColumns {
		cc, _ := ColumnarOf[benchTuple](benchTupleCodec)
		for _, view := range []struct {
			name  string
			codec Codec[benchTuple]
		}{{"block", benchTupleCodec}, {"per-record", perRecord[benchTuple]{cc}}} {
			b.Run(col.name+"/"+view.name, func(b *testing.B) {
				ts := benchTuples(col.keys)
				e := NewEncoder(view.codec, DefaultSize, func(Chunk, int) error { return nil })
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i % benchBatches * benchBatchRows
					for _, v := range ts[lo : lo+benchBatchRows] {
						if err := e.Append(v); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatchRows), "ns/rec")
			})
		}
	}
}

// BenchmarkTupleDecode is the read path: a Decoder turning one 4096-row
// batch chunk into tuples, into a reused vector. No allocation once the
// Decoder's scratch is warm.
func BenchmarkTupleDecode(b *testing.B) {
	for _, col := range benchKeyColumns {
		b.Run(col.name, func(b *testing.B) {
			ts := benchTuples(col.keys)
			var cs []Chunk
			enc := NewEncoder[benchTuple](benchTupleCodec, 1<<20, func(c Chunk, _ int) error {
				cs = append(cs, c)
				return nil
			})
			for lo := 0; lo < len(ts); lo += benchBatchRows {
				if err := enc.AppendRows(ts[lo:lo+benchBatchRows], nil); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			d := NewDecoder[benchTuple](benchTupleCodec)
			vec, err := d.Decode(cs[0], nil)
			if err != nil || len(vec) != benchBatchRows {
				b.Fatalf("decoded %d of %d rows: %v", len(vec), benchBatchRows, err)
			}
			b.SetBytes(int64(len(cs[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vec, err = d.Decode(cs[i%benchBatches], vec[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatchRows), "ns/rec")
		})
	}
}

// BenchmarkFixed8Column is the fixed8 kernels over one 4096-row uint64
// column, in ns per value: "copy" is the codec's EncodeRows and
// DecodeColumn as a little-endian host runs them, "loop" the portable arm
// a big-endian host runs instead, on the same buffers.
func BenchmarkFixed8Column(b *testing.B) {
	r := rand.New(rand.NewSource(47))
	vs := make([]uint64, benchBatchRows)
	for i := range vs {
		vs[i] = r.Uint64()
	}
	bb := new(BatchBuilder)
	bb.Reset(0, []ColKind{ColFixed8})
	Uint64FixedCodec{}.EncodeRows(bb, 0, vs, nil)
	bb.EndRows(len(vs))
	bt, err := DecodeBatch(bb.Encode(), nil)
	if err != nil {
		b.Fatal(err)
	}
	// An encode arm writes col, the builder's column buffer; a decode arm
	// writes out.
	data, col, out := bt.Cols[0].Data, bb.cols[0][:len(vs)*8], make([]uint64, len(vs))
	bb.Clear()
	for _, arm := range []struct {
		name string
		copy bool
		run  func()
	}{
		{"encode/copy", true, func() { Uint64FixedCodec{}.EncodeRows(bb, 0, vs, nil); bb.Clear() }},
		{"encode/loop", false, func() { putFixed8s(col, vs, sameWord) }},
		{"decode/copy", true, func() { out, _, _ = Uint64FixedCodec{}.DecodeColumn(bt, 0, out[:0]) }},
		{"decode/loop", false, func() { getFixed8s(out, data, sameWord) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			if arm.copy && !littleEndianHost {
				b.Skip("a big-endian host runs the loop")
			}
			clear(col)
			clear(out)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.run()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/value")
			if !bytes.Equal(col, data) && !slices.Equal(out, vs) {
				b.Fatal("the arm wrote neither the column nor its values")
			}
		})
	}
}
