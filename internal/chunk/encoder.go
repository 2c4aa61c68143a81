package chunk

import (
	"encoding/binary"
	"fmt"
)

// An Encoder turns values into chunks for one write stream: the mirror of
// Decoder, and the single place that decides how a chunk is written. A
// codec with a columnar view always yields batch chunks (column-major bulk
// fills when it has the bulk view too), a row-only codec always yields row
// chunks — a chunk's layout is a property of its codec, never of the call
// that wrote it.
//
// One size rule covers both layouts: a chunk is emitted before the record
// that would take a row chunk past size, or as soon as a batch's encoded
// size estimate reaches it, so no chunk exceeds size by as much as one
// record; and a single record larger than size is ErrRecordTooLarge and
// leaves the stream as it was.
//
// An Encoder owns a pooled batch builder and the bulk view's gather
// scratch: construct one per output stream (per worker, per shuffle leaf)
// and never share it between goroutines. The codec may be shared freely.
type Encoder[T any] struct {
	codec Codec[T]
	size  int
	emit  func(c Chunk, rows int) error

	// Columnar arm: cc is nil for row-only codecs.
	cc     ColumnCodec[T]
	b      *BatchBuilder
	limit  int                // column bytes at which b.Size() reaches size
	bulk   BulkColumnCodec[T] // nil unless maxRow bounds every record
	maxRow int                // most column bytes one record can take
	guard  bool               // one record could exceed size: measure each

	// Row arm: the typed row framer and the records in its open chunk.
	row  *TypedWriter[T]
	rows int
}

// NewEncoder returns an Encoder cutting codec's values into chunks of size
// bytes (DefaultSize if size <= 0), each handed to emit with its record
// count. The emitted chunk is immutable and emit's to keep.
func NewEncoder[T any](codec Codec[T], size int, emit func(c Chunk, rows int) error) *Encoder[T] {
	if size <= 0 {
		size = DefaultSize
	}
	e := &Encoder[T]{codec: codec, size: size, emit: emit}
	cc, ok := ColumnarOf(codec)
	if !ok {
		e.row = NewTypedWriter(codec, size, func(c Chunk) error {
			rows := e.rows
			e.rows = 0
			return e.emit(c, rows)
		})
		return e
	}
	e.cc = cc
	kinds := KindsOf(cc)
	e.b = GetBatchBuilder(0, kinds)
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

// Append adds one value to the open chunk.
func (e *Encoder[T]) Append(v T) error {
	if e.cc == nil {
		if err := e.row.Write(v); err != nil {
			return err
		}
		e.rows++
		return nil
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
		return e.Flush()
	}
	return nil
}

// AppendRows adds the selected values of vs (all of them when idx is nil),
// cutting chunks at the size bound exactly as the same values through
// Append would. With a bulk-capable codec the rows go in column-major
// blocks: each block is as many rows as are certain to fit, so only the
// last few rows of a chunk go one at a time.
func (e *Encoder[T]) AppendRows(vs []T, idx []int32) error {
	n := rowCount(vs, idx)
	if e.bulk == nil {
		for i := 0; i < n; i++ {
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
			if err := e.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush emits the open chunk, if it holds any records.
func (e *Encoder[T]) Flush() error {
	if e.cc == nil {
		return e.row.Flush()
	}
	rows := e.b.rows
	if rows == 0 {
		return nil
	}
	c := e.b.Encode()
	e.b.Clear()
	return e.emit(c, rows)
}

// Close flushes and returns the batch builder to its pool.
func (e *Encoder[T]) Close() error {
	err := e.Flush()
	if e.b != nil {
		PutBatchBuilder(e.b)
		e.b = nil
	}
	return err
}
