package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrClosed is returned by an Encoder's writes after its Close.
var ErrClosed = errors.New("chunk: write to a closed encoder")

// blockRows is how many values a bulk-capable Encoder's Append holds before
// it encodes them, as one AppendRows block: enough that the kernels'
// per-block costs are a small share of a record's, few enough that an
// encoder keeps a KB or two. A shuffle's leaf encoders take their rows
// through AppendRows only (a shuffle.Scatter stages Write's records
// itself), so hurricane.Writer is what appends here one value at a time.
const blockRows = 64

// An Encoder turns values into chunks for one write stream: the mirror of
// Decoder, and the single place that decides how a chunk is written. Every
// chunk it writes is a batch in the columns of the codec's view (ColumnarOf:
// a codec with no view of its own gets a blob column of its row encoding),
// with column-major bulk fills when the view has the bulk kernels too — a
// chunk's layout is a property of its codec, never of the call that wrote
// it.
//
// The size rule: a chunk is emitted as soon as its encoded size estimate
// reaches size, so no chunk exceeds size by as much as one record; and a
// single record larger than size is ErrRecordTooLarge and leaves the stream
// as it was.
//
// When the codec has a bulk view (BulkOf), Append defers: it copies the
// value into a block of blockRows and encodes a full block with the bulk
// kernel, as one AppendRows would. AppendRows, Flush and Close encode a
// partly filled block first, so the chunks — their bytes, their cuts and
// the order of their records — are exactly those of encoding each value at
// its Append. A deferred value is a copy, so bulk codecs are those whose
// values own everything they encode (the numeric leaves and pairs of them);
// a codec with blob columns, the blob view included, encodes at the call,
// and its values may alias memory the caller reuses as soon as Append
// returns.
// The price of deferring is where errors surface: an emit error for a
// chunk a block completes is returned by the Append that filled the block,
// by AppendRows or by Flush, and the rest of that block is lost with it.
//
// An Encoder owns a pooled batch builder, the bulk view's gather scratch
// and Append's block: construct one per output stream (per worker, per
// shuffle leaf) and never share it between goroutines. The codec may be
// shared freely. After Close every write returns ErrClosed.
type Encoder[T any] struct {
	codec  Codec[T]
	size   int
	emit   func(c Chunk, rows int) error
	closed bool

	cc     ColumnCodec[T]
	b      *BatchBuilder
	limit  int                // column bytes at which b.Size() reaches size
	bulk   BulkColumnCodec[T] // nil unless maxRow bounds every record
	maxRow int                // most column bytes one record can take
	guard  bool               // one record could exceed size: measure each
	blk    []T                // bulk only: Append's values not yet encoded
}

// NewEncoder returns an Encoder cutting codec's values into chunks of size
// bytes (DefaultSize if size <= 0), each handed to emit with its record
// count. The emitted chunk is immutable and emit's to keep.
func NewEncoder[T any](codec Codec[T], size int, emit func(c Chunk, rows int) error) *Encoder[T] {
	if size <= 0 {
		size = DefaultSize
	}
	cc, _ := ColumnarOf(codec)
	e := &Encoder[T]{codec: codec, size: size, emit: emit, cc: cc}
	kinds := KindsOf(cc)
	e.b = GetBatchBuilder(tagOf(cc), kinds)
	e.limit = size - e.b.Size() // of the empty builder: the header's share
	for _, k := range kinds {
		switch k {
		case ColFixed8:
			e.maxRow += 8
		case ColVarint:
			e.maxRow += binary.MaxVarintLen64
		default: // blob columns: a record has no upper bound
			e.guard = true
		}
	}
	e.guard = e.guard || e.maxRow > size
	if bulk, ok := BulkOf(cc); ok && !e.guard {
		e.bulk = bulk
	}
	return e
}

// Codec returns the codec the Encoder was built from.
func (e *Encoder[T]) Codec() Codec[T] { return e.codec }

// Append adds one value to the stream: to the open chunk, or to the block
// a bulk-capable codec encodes it in.
func (e *Encoder[T]) Append(v T) error {
	switch {
	case e.closed:
		return ErrClosed
	case e.bulk != nil:
		if e.blk == nil {
			e.blk = make([]T, 0, blockRows)
		}
		if e.blk = append(e.blk, v); len(e.blk) < blockRows {
			return nil
		}
		return e.drain()
	}
	b := e.b
	if e.guard {
		b.mark()
	}
	before := b.bytes
	e.cc.EncodeColumn(b, 0, v)
	if n := b.bytes - before; e.guard && n > e.size {
		b.rollback()
		return fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, n, e.size)
	}
	b.EndRow()
	if b.bytes >= e.limit {
		return e.cut()
	}
	return nil
}

// AppendRows adds the selected values of vs (all of them when idx is nil)
// after any Append holds, cutting chunks at the size bound exactly as the
// same values through Append would. With a bulk-capable codec the rows go
// in column-major blocks: each block is as many rows as are certain to
// fit, so only the last few rows of a chunk go one at a time.
func (e *Encoder[T]) AppendRows(vs []T, idx []int32) error {
	if e.closed {
		return ErrClosed
	}
	if e.bulk == nil {
		for i := range rowCount(vs, idx) {
			j := i
			if idx != nil {
				j = int(idx[i])
			}
			if err := e.Append(vs[j]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.drain(); err != nil {
		return err
	}
	return e.encodeRows(vs, idx)
}

// drain encodes the values Append holds, as the one AppendRows they stand
// for.
func (e *Encoder[T]) drain() error {
	blk := e.blk
	e.blk = e.blk[:0]
	return e.encodeRows(blk, nil)
}

// encodeRows is AppendRows on the bulk view.
func (e *Encoder[T]) encodeRows(vs []T, idx []int32) error {
	n := rowCount(vs, idx)
	for off := 0; off < n; {
		take := max(1, (e.limit-e.b.bytes)/e.maxRow)
		take = min(take, n-off)
		if idx != nil {
			e.bulk.EncodeRows(e.b, 0, vs, idx[off:off+take])
		} else {
			e.bulk.EncodeRows(e.b, 0, vs[off:off+take], nil)
		}
		e.b.EndRows(take)
		off += take
		if e.b.bytes >= e.limit {
			if err := e.cut(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush emits the open chunk, if it holds any records, Append's block
// included.
func (e *Encoder[T]) Flush() error {
	if e.closed {
		return ErrClosed
	}
	if err := e.drain(); err != nil {
		return err
	}
	return e.cut()
}

// cut emits the open batch, if it holds any records.
func (e *Encoder[T]) cut() error {
	rows := e.b.rows
	if rows == 0 {
		return nil
	}
	c := e.b.Encode()
	e.b.Clear()
	return e.emit(c, rows)
}

// Close flushes and returns the batch builder to its pool. Closing a
// closed Encoder does nothing.
func (e *Encoder[T]) Close() error {
	if e.closed {
		return nil
	}
	err := e.Flush()
	e.closed = true
	PutBatchBuilder(e.b)
	e.b, e.blk = nil, nil
	return err
}
