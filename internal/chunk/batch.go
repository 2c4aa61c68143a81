// Columnar batch layout: the vectorized alternative to row framing.
//
// A batch chunk stores one section per column instead of one frame per
// record. The header carries a schema tag and the row count, then each
// column is a length-prefixed vector: varint columns hold back-to-back
// uvarints, fixed columns hold 8-byte little-endian values, and blob
// columns come in (lengths, bytes) pairs. Because every row codec in this
// package encodes a value as the concatenation of its fields' encodings,
// a batch is generically convertible back to row records (batchReader)
// without knowing the schema — that conversion is how a Decoder reads
// batch chunks through a row-only codec.
//
// A codec writes and reads columns through its columnar view, which only
// ColumnarOf resolves: a leaf codec is its own view, a pair's view is built
// from its halves' views once per stream, and a codec with a row-only part
// has none. BulkOf narrows a view to its bulk-encode kernels.
//
// Batch chunks are self-identifying: they open with a magic prefix that
// no valid row chunk can produce (an empty record followed by an
// overlong uvarint), so a row Reader pointed at a batch fails with
// ErrCorrupt instead of silently misparsing, and a Decoder dispatches per
// chunk — mixing row and batch chunks in one bag is legal.
package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// batchMagic opens every batch chunk. The leading 0x00 reads as an empty
// record and the ten 0x80 continuation bytes overflow a uvarint, so a row
// Reader deterministically returns ErrCorrupt — no valid row chunk can
// begin with this sequence.
var batchMagic = [11]byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}

// batchVersion is the current batch header version.
const batchVersion = 1

const (
	maxBatchCols = 256
	maxBatchRows = 1 << 28
)

// ColKind identifies the physical layout of one batch column.
type ColKind byte

const (
	// ColVarint holds back-to-back uvarints (zig-zag encoded for signed
	// values), one per row.
	ColVarint ColKind = 1
	// ColFixed8 holds 8-byte little-endian values, one per row.
	ColFixed8 ColKind = 2
	// ColLen holds back-to-back uvarint lengths for the ColBytes column
	// that must immediately follow it.
	ColLen ColKind = 3
	// ColBytes holds the concatenated payloads sliced by the preceding
	// ColLen column.
	ColBytes ColKind = 4
)

func (k ColKind) valid() bool { return k >= ColVarint && k <= ColBytes }

// IsBatch reports whether c is a batch chunk. Row and batch chunks are
// mutually exclusive; readers do not ask — they hand the chunk to a
// Decoder, which does.
func IsBatch(c Chunk) bool {
	return len(c) > len(batchMagic) && string(c[:len(batchMagic)]) == string(batchMagic[:])
}

// A Col is one decoded column of a batch. Data aliases the chunk.
type Col struct {
	Kind ColKind
	Data []byte
}

// A Batch is the decoded view of a batch chunk. Column data aliases the
// chunk, so a Batch is only valid while the chunk is.
type Batch struct {
	Tag  uint64
	Rows int
	Cols []Col
}

// batchHeader reads a batch chunk's version, tag and row count and returns
// the offset of what follows them. The caller has checked the magic.
func batchHeader(c Chunk) (tag uint64, rows, off int, err error) {
	off = len(batchMagic)
	if c[off] != batchVersion {
		return 0, 0, 0, fmt.Errorf("%w: unknown batch version %d", ErrCorrupt, c[off])
	}
	off++
	tag, n := binary.Uvarint(c[off:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad batch tag", ErrCorrupt)
	}
	off += n
	r, n := binary.Uvarint(c[off:])
	if n <= 0 || r > maxBatchRows {
		return 0, 0, 0, fmt.Errorf("%w: bad batch row count", ErrCorrupt)
	}
	return tag, int(r), off + n, nil
}

// DecodeBatch parses the batch chunk c. If into is non-nil its storage is
// reused. Malformed headers and out-of-bounds column extents return
// ErrCorrupt, never panic.
func DecodeBatch(c Chunk, into *Batch) (*Batch, error) {
	if !IsBatch(c) {
		return nil, fmt.Errorf("%w: missing batch magic", ErrCorrupt)
	}
	tag, rows, off, err := batchHeader(c)
	if err != nil {
		return nil, err
	}
	ncols, n := binary.Uvarint(c[off:])
	if n <= 0 || ncols > maxBatchCols {
		return nil, fmt.Errorf("%w: bad batch column count", ErrCorrupt)
	}
	off += n
	if ncols == 0 && rows != 0 {
		return nil, fmt.Errorf("%w: rows without columns", ErrCorrupt)
	}
	if into == nil {
		into = new(Batch)
	}
	into.Tag, into.Rows, into.Cols = tag, rows, into.Cols[:0]
	pendLen := false
	for i := uint64(0); i < ncols; i++ {
		if off >= len(c) {
			return nil, fmt.Errorf("%w: truncated column descriptor", ErrCorrupt)
		}
		kind := ColKind(c[off])
		off++
		if !kind.valid() {
			return nil, fmt.Errorf("%w: unknown column kind %d", ErrCorrupt, kind)
		}
		size, n := binary.Uvarint(c[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad column length", ErrCorrupt)
		}
		off += n
		end := off + int(size)
		if int(size) < 0 || end < off || end > len(c) {
			return nil, fmt.Errorf("%w: column extends past chunk", ErrCorrupt)
		}
		switch {
		case pendLen && kind != ColBytes:
			return nil, fmt.Errorf("%w: length column without bytes column", ErrCorrupt)
		case !pendLen && kind == ColBytes:
			return nil, fmt.Errorf("%w: bytes column without length column", ErrCorrupt)
		case kind == ColFixed8 && size != uint64(rows)*8:
			return nil, fmt.Errorf("%w: fixed column size %d for %d rows", ErrCorrupt, size, rows)
		case kind != ColBytes && size < uint64(rows):
			// Every row takes at least a byte of a varint or length
			// column, so the chunk's own size bounds what a decoder
			// allocates for the row count it claims.
			return nil, fmt.Errorf("%w: column of %d bytes for %d rows", ErrCorrupt, size, rows)
		}
		pendLen = kind == ColLen
		into.Cols = append(into.Cols, Col{Kind: kind, Data: c[off:end]})
		off = end
	}
	if pendLen {
		return nil, fmt.Errorf("%w: trailing length column", ErrCorrupt)
	}
	if off != len(c) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last column", ErrCorrupt, len(c)-off)
	}
	return into, nil
}

// batchRows reads only the row count from a batch chunk's header, without
// touching column payloads — O(header) regardless of batch size.
func batchRows(c Chunk) (int, error) {
	_, rows, _, err := batchHeader(c)
	return rows, err
}

// ---- batch building ----

// BatchBuilder accumulates column vectors for one batch. Values are
// appended field-by-field through a ColumnCodec's EncodeColumn, rows are
// delimited with EndRow, and Encode serializes the whole batch in a
// single allocation. Builders are reusable (Clear) and pooled
// (GetBatchBuilder/PutBatchBuilder).
type BatchBuilder struct {
	tag   uint64
	kinds []ColKind
	cols  [][]byte
	rows  int
	bytes int
	marks []int    // column lengths and byte count at the last mark
	words []uint64 // a leaf codec's pre-pass output (rowWords)
	hdr   []byte   // Encode's scratch: the header bytes
	parts [][]byte // and the pieces of the chunk, header and columns
}

// Reset re-targets the builder at a new schema, keeping column capacity.
func (b *BatchBuilder) Reset(tag uint64, kinds []ColKind) {
	b.tag = tag
	b.kinds = append(b.kinds[:0], kinds...)
	for len(b.cols) < len(b.kinds) {
		b.cols = append(b.cols, nil)
	}
	b.cols = b.cols[:len(b.kinds)]
	b.Clear()
}

// Clear drops buffered rows, keeping the schema and column capacity.
func (b *BatchBuilder) Clear() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.rows, b.bytes = 0, 0
}

// Size reports the encoded size estimate: column payload bytes plus the
// per-batch header overhead. An Encoder flushes when it reaches the chunk size.
func (b *BatchBuilder) Size() int {
	return b.bytes + len(batchMagic) + 1 + 3*binary.MaxVarintLen64 + len(b.kinds)*(1+binary.MaxVarintLen64)
}

// mark remembers the builder's extent so that rollback can drop whatever
// is appended after it — how an Encoder un-appends a record it finds too
// large only once its columns are in.
func (b *BatchBuilder) mark() {
	b.marks = b.marks[:0]
	for _, c := range b.cols {
		b.marks = append(b.marks, len(c))
	}
	b.marks = append(b.marks, b.bytes)
}

// rollback truncates every column back to the last mark.
func (b *BatchBuilder) rollback() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:b.marks[i]]
	}
	b.bytes = b.marks[len(b.cols)]
}

// EndRow marks the current row complete. Every column must have received
// exactly one value since the previous EndRow.
func (b *BatchBuilder) EndRow() { b.rows++ }

// EndRows delimits n rows at once — the bulk-encode counterpart of
// EndRow for column-major fills (see BulkColumnCodec).
func (b *BatchBuilder) EndRows(n int) { b.rows += n }

// AppendUvarint appends one uvarint value to a ColVarint column.
func (b *BatchBuilder) AppendUvarint(col int, v uint64) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendUvarint(b.cols[col], v)
	b.bytes += len(b.cols[col]) - n
}

// AppendFixed8 appends one 8-byte little-endian value to a ColFixed8 column.
func (b *BatchBuilder) AppendFixed8(col int, v uint64) {
	b.cols[col] = binary.LittleEndian.AppendUint64(b.cols[col], v)
	b.bytes += 8
}

// The column kernels. A loop over records is a loop over one column whose
// buffer is hoisted: grown once for the block, written by index (a fixed8
// column on a little-endian host: by one copy), accounted once. extend is
// the "grown once": n more elements of s for the loop to fill, returned
// beside the whole (extend(s[:0], n): n of scratch).
func extend[T any](s []T, n int) (all, tail []T) {
	s = slices.Grow(s, n)[:len(s)+n]
	return s, s[len(s)-n:]
}

// rowCount is how many rows vs and idx select: see BulkColumnCodec.
func rowCount[T any](vs []T, idx []int32) int {
	if idx != nil {
		return len(idx)
	}
	return len(vs)
}

// appendUvarints appends vs to a ColVarint column, the one- and two-byte
// arms first: a skewed column's hot values are its small ones.
func (b *BatchBuilder) appendUvarints(col int, vs []uint64) {
	buf, _ := extend(b.cols[col], len(vs)*binary.MaxVarintLen64)
	at := len(b.cols[col])
	for _, v := range vs {
		switch {
		case v < 1<<7:
			buf[at] = byte(v)
			at++
		case v < 1<<14:
			buf[at], buf[at+1] = byte(v)|0x80, byte(v>>7)
			at += 2
		default:
			at += binary.PutUvarint(buf[at:], v)
		}
	}
	b.bytes += at - len(b.cols[col])
	b.cols[col] = buf[:at]
}

// littleEndianHost reports whether this host keeps an 8-byte value in
// memory as the little-endian bytes of its bits: then a ColFixed8 column
// and a []uint64 or []float64 vector of its rows are the same bytes.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fixed8Bytes views vs's memory as bytes, for the fixed8 kernels' copy
// arm, which only a little-endian host takes. It is the package's one
// unsafe conversion, and safe because
//   - the view spans exactly the len(vs)*8 bytes of the vector, and each
//     copy through it meets a column of that length: extend sized the one
//     being encoded, and DecodeBatch and DecodeColumn have checked that the
//     one being decoded holds rows×8 bytes;
//   - the vector owns its backing array (a byte view needs no alignment);
//   - the view is copied through and dropped, so a decoded vector never
//     aliases the chunk, nor an encoded column the vector.
func fixed8Bytes[T uint64 | float64](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*8)
}

// appendFixed8s appends vs to a ColFixed8 column, value v as word(v). word
// is v's bits (sameWord, math.Float64bits): the copy arm takes them from
// memory.
func appendFixed8s[T uint64 | float64](b *BatchBuilder, col int, vs []T, word func(T) uint64) {
	buf, dst := extend(b.cols[col], len(vs)*8)
	if littleEndianHost {
		copy(dst, fixed8Bytes(vs))
	} else {
		putFixed8s(dst, vs, word)
	}
	b.cols[col] = buf
	b.bytes += len(dst)
}

// putFixed8s is appendFixed8s's portable arm: one value at a time.
func putFixed8s[T uint64 | float64](dst []byte, vs []T, word func(T) uint64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], word(v))
	}
}

// decodeFixed8s is a fixed8 leaf's DecodeColumn: it appends the rows of
// ColFixed8 column col to out, word w as value(w), the value whose bits w
// is.
func decodeFixed8s[T uint64 | float64](bt *Batch, col int, out []T, value func(uint64) T) ([]T, int, error) {
	data := bt.Cols[col].Data
	if len(data) != bt.Rows*8 {
		return out, col, fmt.Errorf("%w: fixed column size mismatch", ErrCorrupt)
	}
	out, dst := extend(out, bt.Rows)
	if littleEndianHost {
		copy(fixed8Bytes(dst), data)
	} else {
		getFixed8s(dst, data, value)
	}
	return out, col + 1, nil
}

// getFixed8s is decodeFixed8s's portable arm: one value at a time.
func getFixed8s[T uint64 | float64](dst []T, data []byte, value func(uint64) T) {
	for i := range dst {
		dst[i] = value(binary.LittleEndian.Uint64(data[i*8:]))
	}
}

// rowWords is the leaf codecs' pre-pass: the rows vs and idx select, as
// the words the kernels above encode, in the builder's scratch.
func rowWords[T any](b *BatchBuilder, vs []T, idx []int32, word func(T) uint64) []uint64 {
	u, _ := extend(b.words[:0], rowCount(vs, idx))
	b.words = u
	if idx == nil {
		for i, v := range vs {
			u[i] = word(v)
		}
	} else {
		for k, i := range idx {
			u[k] = word(vs[i])
		}
	}
	return u
}

func sameWord(v uint64) uint64  { return v }
func zigzagWord(v int64) uint64 { return uint64(v<<1 ^ v>>63) }

// decodeUvarints appends the first rows uvarints of data to out and
// returns it with the bytes they took. A word of eight bytes that holds
// exactly four 2-byte varints (a build side's dense ids) decodes in one
// step. Any other word is written out as eight values: all stand if all
// are single-byte varints, else those before the first continuation byte
// do and that one value decodes by length, two and three bytes inline —
// so a skewed key's mixed column moves a word at a time too. Longer
// varints and the last two words take binary.Uvarint; its failure wraps
// ErrCorrupt, out ending at the last row.
func decodeUvarints[T ~uint64 | ~int64 | ~int](out []T, data []byte, rows int) ([]T, int, error) {
	out, dst := extend(out, rows)
	for i, off := 0, 0; ; {
		if i+8 <= len(dst) && off+16 <= len(data) {
			w := binary.LittleEndian.Uint64(data[off:])
			cont := w & 0x8080808080808080
			d := dst[i : i+8 : i+8]
			if cont == 0x0080008000800080 {
				// Each 16-bit lane is one varint: its low seven bits, then
				// its high byte's seven shifted down past the flag.
				x := w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
				d[0], d[1], d[2], d[3] = T(x&0xffff), T(x>>16&0xffff), T(x>>32&0xffff), T(x>>48)
				i, off = i+4, off+8
				continue
			}
			d[0], d[1], d[2], d[3] = T(w&0xff), T(w>>8&0xff), T(w>>16&0xff), T(w>>24&0xff)
			d[4], d[5], d[6], d[7] = T(w>>32&0xff), T(w>>40&0xff), T(w>>48&0xff), T(w>>56)
			if cont == 0 {
				i, off = i+8, off+8
				continue
			}
			single := bits.TrailingZeros64(cont) >> 3
			i, off = i+single, off+single
			w = binary.LittleEndian.Uint64(data[off:])
			if w&0x8000 == 0 {
				dst[i] = T(w&0x7f | w>>1&0x3f80)
				i, off = i+1, off+2
				continue
			}
			if w&0x800000 == 0 {
				dst[i] = T(w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000)
				i, off = i+1, off+3
				continue
			}
		}
		if i == len(dst) {
			return out, off, nil
		}
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return out[:len(out)-rows+i], off, fmt.Errorf("%w: varint column underflow at row %d", ErrCorrupt, i)
		}
		dst[i] = T(v)
		i, off = i+1, off+n
	}
}

// appendBlob appends one variable-length value, bytes or string, to a
// (ColLen, ColBytes) column pair rooted at col.
func appendBlob[S ~string | ~[]byte](b *BatchBuilder, col int, p S) {
	n := len(b.cols[col])
	b.cols[col] = binary.AppendUvarint(b.cols[col], uint64(len(p)))
	b.cols[col+1] = append(b.cols[col+1], p...)
	b.bytes += len(b.cols[col]) - n + len(p)
}

// Encode serializes the buffered rows as a batch chunk. The returned
// chunk is freshly allocated; the builder can be cleared and reused.
func (b *BatchBuilder) Encode() Chunk {
	hdr := append(b.hdr[:0], batchMagic[:]...)
	hdr = append(hdr, batchVersion)
	hdr = binary.AppendUvarint(hdr, b.tag)
	hdr = binary.AppendUvarint(hdr, uint64(b.rows))
	hdr = binary.AppendUvarint(hdr, uint64(len(b.kinds)))
	// Join header pieces and columns: one exact allocation, never zeroed.
	parts, at := b.parts[:0], 0
	for i, k := range b.kinds {
		hdr = binary.AppendUvarint(append(hdr, byte(k)), uint64(len(b.cols[i])))
		parts = append(parts, hdr[at:], b.cols[i])
		at = len(hdr)
	}
	b.hdr, b.parts = hdr, append(parts, hdr[at:])
	return bytes.Join(b.parts, nil)
}

var batchBuilderPool = sync.Pool{New: func() any { return new(BatchBuilder) }}

// GetBatchBuilder returns a pooled builder reset to the given schema, so
// per-partition scatter paths do not allocate a fresh builder per chunk.
func GetBatchBuilder(tag uint64, kinds []ColKind) *BatchBuilder {
	b := batchBuilderPool.Get().(*BatchBuilder)
	b.Reset(tag, kinds)
	return b
}

// PutBatchBuilder returns a builder to the pool.
func PutBatchBuilder(b *BatchBuilder) { batchBuilderPool.Put(b) }

// ---- columnar codecs ----

// A ColumnCodec lays values out as column vectors inside batch chunks, in
// addition to the row format. Every leaf codec of this package is one; a
// pair is not, but has a columnar view when both its halves do. ColumnarOf
// is the one place that answers whether a codec has a view, and the one
// way to get it.
type ColumnCodec[T any] interface {
	Codec[T]
	// AppendColKinds appends the kinds of the codec's columns to dst.
	AppendColKinds(dst []ColKind) []ColKind
	// EncodeColumn appends one value's fields to the builder's columns
	// starting at column col and returns the next free column index. The
	// caller delimits rows with EndRow.
	EncodeColumn(b *BatchBuilder, col int, v T) int
	// DecodeColumn decodes every row of the batch starting at column col,
	// appending to out: out is extended once by the batch's rows and
	// written by index. It returns the grown slice and the next column
	// index.
	DecodeColumn(bt *Batch, col int, out []T) ([]T, int, error)
}

// columnarResolver is a pair: it resolves its halves' views into one view
// of its own, so that the per-record EncodeColumn/DecodeColumn calls skip
// dynamic interface conversion (assertE2I2/getitab show up in profiles
// when resolution happens per call).
type columnarResolver[T any] interface {
	resolveColumnar() (ColumnCodec[T], bool)
}

// ColumnarOf returns the columnar view of codec if it has one: a pair's
// view with its halves resolved, else the codec itself if it is a
// ColumnCodec. A pair's view holds scratch, so resolve once per stream and
// give the view to the one Encoder or Decoder that resolved it.
func ColumnarOf[T any](c Codec[T]) (ColumnCodec[T], bool) {
	if r, ok := c.(columnarResolver[T]); ok {
		return r.resolveColumnar()
	}
	cc, ok := c.(ColumnCodec[T])
	return cc, ok
}

// BulkColumnCodec is the bulk-encode extension of a columnar view, for
// scatter loops. EncodeRows appends the rows vs[idx[0]], vs[idx[1]], ...
// (all of vs in order when idx is nil) starting at column col and returns
// the next free column; the caller accounts the rows once with EndRows.
// Implementations fill column-major and keep the kernel contract: a loop
// over the rows is a loop over one column, whose buffer is grown once for
// the block, written by index and accounted once (appendUvarints,
// appendFixed8s, a pair's gather) — never a per-value Append. Use it only
// through BulkOf. EncodeRows is not stateless — a pair gathers into its
// view's scratch, a leaf's pre-pass into the builder's — so the view
// belongs to the one Encoder that resolved it (ColumnarOf + BulkOf).
type BulkColumnCodec[T any] interface {
	EncodeRows(b *BatchBuilder, col int, vs []T, idx []int32) int
}

// BulkOf returns the bulk-encode view of a columnar view, if it has one: a
// view with EncodeRows and no blob column. Every pair's view has
// EncodeRows, and the leaves without it are the ones with blob columns, so
// a pair has the bulk view exactly when both its halves do. A blob column
// is a (ColLen, ColBytes) pair, so its ColLen finds it. Resolve once per
// stream, like ColumnarOf.
func BulkOf[T any](c ColumnCodec[T]) (BulkColumnCodec[T], bool) {
	bc, ok := c.(BulkColumnCodec[T])
	if !ok || slices.Contains(KindsOf(c), ColLen) {
		return nil, false
	}
	return bc, true
}

// ScratchColumnCodec is kept for the frozen benchmark, which decodes a
// pair's view through it: DecodeColumnScratch is that view's DecodeColumn,
// whose half-columns live in the view's own scratch, under its
// single-owner name.
type ScratchColumnCodec[T any] interface {
	DecodeColumnScratch(bt *Batch, col int, out []T) ([]T, int, error)
}

// KindsOf returns codec's column kinds.
func KindsOf[T any](c ColumnCodec[T]) []ColKind { return c.AppendColKinds(nil) }

func (Uint64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColVarint) }

func (Uint64Codec) EncodeColumn(b *BatchBuilder, col int, v uint64) int {
	b.AppendUvarint(col, v)
	return col + 1
}

func (Uint64Codec) DecodeColumn(bt *Batch, col int, out []uint64) ([]uint64, int, error) {
	out, _, err := decodeUvarints(out, bt.Cols[col].Data, bt.Rows)
	return out, col + 1, err
}

func (Int64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColVarint) }

func (Int64Codec) EncodeColumn(b *BatchBuilder, col int, v int64) int {
	b.AppendUvarint(col, zigzagWord(v))
	return col + 1
}

func (Int64Codec) DecodeColumn(bt *Batch, col int, out []int64) ([]int64, int, error) {
	at := len(out)
	out, _, err := decodeUvarints(out, bt.Cols[col].Data, bt.Rows)
	for i, u := range out[at:] { // zig-zag, in place
		out[at+i] = int64(uint64(u)>>1) ^ -(u & 1)
	}
	return out, col + 1, err
}

func (Uint64FixedCodec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColFixed8) }

func (Uint64FixedCodec) EncodeColumn(b *BatchBuilder, col int, v uint64) int {
	b.AppendFixed8(col, v)
	return col + 1
}

func (Uint64FixedCodec) DecodeColumn(bt *Batch, col int, out []uint64) ([]uint64, int, error) {
	return decodeFixed8s(bt, col, out, sameWord)
}

func (Float64Codec) AppendColKinds(dst []ColKind) []ColKind { return append(dst, ColFixed8) }

func (Float64Codec) EncodeColumn(b *BatchBuilder, col int, v float64) int {
	b.AppendFixed8(col, math.Float64bits(v))
	return col + 1
}

func (Float64Codec) DecodeColumn(bt *Batch, col int, out []float64) ([]float64, int, error) {
	return decodeFixed8s(bt, col, out, math.Float64frombits)
}

// blobSpans parses a (ColLen, ColBytes) pair into [start,end) offsets of
// each row's payload inside the bytes column. The lengths decode into the
// upper half of spans and fold forward: pair i lands at 2i and 2i+1, never
// past n+i, the length it has just read.
func blobSpans(bt *Batch, col int) ([]int, error) {
	n, blob := bt.Rows, bt.Cols[col+1].Data
	spans, _, err := decodeUvarints(make([]int, n, 2*n), bt.Cols[col].Data, n)
	pos := 0
	for i, size := range spans[n:] {
		end := pos + size
		if size < 0 || end < pos || end > len(blob) {
			return spans[:2*i], fmt.Errorf("%w: blob extends past bytes column at row %d", ErrCorrupt, i)
		}
		spans[2*i], spans[2*i+1] = pos, end
		pos = end
	}
	return spans[:2*(len(spans)-n)], err
}

func (StringCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes)
}

func (StringCodec) EncodeColumn(b *BatchBuilder, col int, v string) int {
	appendBlob(b, col, v)
	return col + 2
}

func (StringCodec) DecodeColumn(bt *Batch, col int, out []string) ([]string, int, error) {
	spans, err := blobSpans(bt, col)
	if err != nil {
		return out, col, err
	}
	// One string conversion for the whole column; rows are substring
	// slices of it.
	all := string(bt.Cols[col+1].Data)
	out = slices.Grow(out, bt.Rows)
	for i := 0; i < len(spans); i += 2 {
		out = append(out, all[spans[i]:spans[i+1]])
	}
	return out, col + 2, nil
}

func (BytesCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes)
}

func (BytesCodec) EncodeColumn(b *BatchBuilder, col int, v []byte) int {
	appendBlob(b, col, v)
	return col + 2
}

// DecodeColumn's byte slices alias the batch's chunk, mirroring the row
// Decode contract.
func (BytesCodec) DecodeColumn(bt *Batch, col int, out [][]byte) ([][]byte, int, error) {
	spans, err := blobSpans(bt, col)
	if err != nil {
		return out, col, err
	}
	data := bt.Cols[col+1].Data
	out = slices.Grow(out, bt.Rows)
	for i := 0; i < len(spans); i += 2 {
		out = append(out, data[spans[i]:spans[i+1]:spans[i+1]])
	}
	return out, col + 2, nil
}

func (Uint64Codec) EncodeRows(b *BatchBuilder, col int, vs []uint64, idx []int32) int {
	if idx != nil {
		vs = rowWords(b, vs, idx, sameWord)
	}
	b.appendUvarints(col, vs)
	return col + 1
}

func (Int64Codec) EncodeRows(b *BatchBuilder, col int, vs []int64, idx []int32) int {
	b.appendUvarints(col, rowWords(b, vs, idx, zigzagWord))
	return col + 1
}

func (Uint64FixedCodec) EncodeRows(b *BatchBuilder, col int, vs []uint64, idx []int32) int {
	if idx != nil {
		vs = rowWords(b, vs, idx, sameWord)
	}
	appendFixed8s(b, col, vs, sameWord)
	return col + 1
}

func (Float64Codec) EncodeRows(b *BatchBuilder, col int, vs []float64, idx []int32) int {
	if idx != nil {
		appendFixed8s(b, col, rowWords(b, vs, idx, math.Float64bits), sameWord)
	} else {
		appendFixed8s(b, col, vs, math.Float64bits)
	}
	return col + 1
}

// resolveColumnar returns a view with both sub-codecs resolved up front;
// nested PairCodecs resolve recursively, so an arbitrarily deep tuple pays
// for interface resolution once per stream instead of once per record.
func (c PairCodec[A, B]) resolveColumnar() (ColumnCodec[Pair[A, B]], bool) {
	ca, okA := ColumnarOf(c.A)
	cb, okB := ColumnarOf(c.B)
	if !okA || !okB {
		return nil, false
	}
	// The scratch sits behind a pointer so the by-value interface copies
	// of one resolved view share it; each nested pair resolves its own.
	r := resolvedPairCodec[A, B]{PairCodec: c, ca: ca, cb: cb, sc: &pairScratch[A, B]{}}
	r.ba, _ = BulkOf(ca) // both set unless a half has a blob column,
	r.bb, _ = BulkOf(cb) // which keeps BulkOf from handing out r
	return r, true
}

// resolvedPairCodec is a pair's columnar view, the only one it has:
// PairCodec with its halves' views looked up once, out of the per-record
// path. ColumnarOf hands it to the one Encoder or Decoder that owns it,
// nested views included: so EncodeRows and DecodeColumn keep their
// half-columns in the view's scratch.
type resolvedPairCodec[A, B any] struct {
	PairCodec[A, B]
	ca ColumnCodec[A]
	cb ColumnCodec[B]
	ba BulkColumnCodec[A]
	bb BulkColumnCodec[B]
	sc *pairScratch[A, B]
}

// pairScratch holds a resolved pair's half-columns: gathered by
// EncodeRows, decoded into by DecodeColumn.
type pairScratch[A, B any] struct {
	as []A
	bs []B
}

func (c resolvedPairCodec[A, B]) AppendColKinds(dst []ColKind) []ColKind {
	return c.cb.AppendColKinds(c.ca.AppendColKinds(dst))
}

// EncodeRows splits the selected pairs into per-half column vectors once,
// then hands each half to its sub-codec's bulk loop — two virtual calls
// per leaf per batch, with the inner kernels fully concrete.
func (c resolvedPairCodec[A, B]) EncodeRows(b *BatchBuilder, col int, vs []Pair[A, B], idx []int32) int {
	as, _ := extend(c.sc.as[:0], rowCount(vs, idx))
	bs, _ := extend(c.sc.bs[:0], len(as))
	c.sc.as, c.sc.bs = as, bs
	if idx == nil {
		for i := range as {
			as[i], bs[i] = vs[i].First, vs[i].Second
		}
	} else {
		for k, i := range idx[:len(as)] {
			v := &vs[i]
			as[k], bs[k] = v.First, v.Second
		}
	}
	return c.bb.EncodeRows(b, c.ba.EncodeRows(b, col, as, nil), bs, nil)
}

func (c resolvedPairCodec[A, B]) EncodeColumn(b *BatchBuilder, col int, v Pair[A, B]) int {
	return c.cb.EncodeColumn(b, c.ca.EncodeColumn(b, col, v.First), v.Second)
}

func (c resolvedPairCodec[A, B]) DecodeColumn(bt *Batch, col int, out []Pair[A, B]) ([]Pair[A, B], int, error) {
	as, col, err := c.ca.DecodeColumn(bt, col, c.sc.as[:0])
	c.sc.as = as
	if err != nil {
		return out, col, err
	}
	bs, col, err := c.cb.DecodeColumn(bt, col, c.sc.bs[:0])
	c.sc.bs = bs
	if err == nil && len(as) != len(bs) {
		err = fmt.Errorf("%w: pair column row mismatch", ErrCorrupt)
	}
	if err != nil {
		return out, col, err
	}
	out, dst := extend(out, len(as))
	bs = bs[:len(dst)]
	for i := range dst {
		dst[i] = Pair[A, B]{First: as[i], Second: bs[i]}
	}
	return out, col, nil
}

func (c resolvedPairCodec[A, B]) DecodeColumnScratch(bt *Batch, col int, out []Pair[A, B]) ([]Pair[A, B], int, error) {
	return c.DecodeColumn(bt, col, out)
}

func (KVCodec) AppendColKinds(dst []ColKind) []ColKind {
	return append(dst, ColLen, ColBytes, ColLen, ColBytes)
}

func (KVCodec) EncodeColumn(b *BatchBuilder, col int, v KV) int {
	appendBlob(b, col, v.Key)
	appendBlob(b, col+2, v.Value)
	return col + 4
}

func (KVCodec) DecodeColumn(bt *Batch, col int, out []KV) ([]KV, int, error) {
	keys, col, err := (StringCodec{}).DecodeColumn(bt, col, make([]string, 0, bt.Rows))
	if err != nil {
		return out, col, err
	}
	vals, col, err := (BytesCodec{}).DecodeColumn(bt, col, make([][]byte, 0, bt.Rows))
	if err != nil {
		return out, col, err
	}
	out = slices.Grow(out, len(keys))
	for i := range keys {
		out = append(out, KV{Key: keys[i], Value: vals[i]})
	}
	return out, col, nil
}

// ---- generic batch → row adapter ----

// batchReader re-frames a decoded batch as row-encoded records without
// knowing the schema: each record is the concatenation of the row's
// per-column encodings, which is exactly the row format every codec in
// this package produces. It is the Decoder's path for row-only codecs.
type batchReader struct {
	bt      *Batch
	row     int
	offs    []int
	pendLen uint64
}

// reset re-points the reader at bt, retaining allocations.
func (r *batchReader) reset(bt *Batch) {
	r.bt, r.row, r.pendLen = bt, 0, 0
	r.offs = r.offs[:0]
	for range bt.Cols {
		r.offs = append(r.offs, 0)
	}
}

// next appends the next row, as a row-encoded record, to dst and returns
// the grown slice, or io.EOF after the last row.
func (r *batchReader) next(dst []byte) ([]byte, error) {
	if r.row >= r.bt.Rows {
		return dst, io.EOF
	}
	for i, col := range r.bt.Cols {
		data, off := col.Data, r.offs[i]
		switch col.Kind {
		case ColVarint, ColLen:
			v, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return dst, fmt.Errorf("%w: varint column underflow at row %d", ErrCorrupt, r.row)
			}
			dst = append(dst, data[off:off+n]...)
			r.offs[i] = off + n
			if col.Kind == ColLen {
				r.pendLen = v
			}
		case ColFixed8:
			if off+8 > len(data) {
				return dst, fmt.Errorf("%w: fixed column underflow at row %d", ErrCorrupt, r.row)
			}
			dst = append(dst, data[off:off+8]...)
			r.offs[i] = off + 8
		case ColBytes:
			end := off + int(r.pendLen)
			if int(r.pendLen) < 0 || end < off || end > len(data) {
				return dst, fmt.Errorf("%w: blob extends past bytes column at row %d", ErrCorrupt, r.row)
			}
			dst = append(dst, data[off:end]...)
			r.offs[i] = end
		}
	}
	r.row++
	return dst, nil
}
