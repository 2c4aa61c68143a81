package chunk

import (
	"fmt"
	"io"
)

// A Decoder turns whole chunks into value vectors for one read stream. It
// is the single place that decides how a chunk is read — row framing or
// batch layout, native columnar decode or the re-framing adapter — so
// every reader above it (Iterator, the task-side ForEach family, the query
// planner's stages) sees one operation: chunk in, values out.
//
// A Decoder owns its batch header and its resolved columnar view, whose
// pairs decode through per-view scratch: construct one per stream (per
// worker, per task input) and never share it between goroutines. The codec
// it wraps may be shared freely.
type Decoder[T any] struct {
	codec Codec[T]
	cc    ColumnCodec[T] // nil for row-only codecs
	kinds []ColKind      // cc's column layout
	bt    Batch
	r     Reader
	br    batchReader
}

// NewDecoder returns a Decoder reading chunks of codec's values. The
// codec's columnar view is resolved here, once per stream.
func NewDecoder[T any](codec Codec[T]) *Decoder[T] {
	d := &Decoder[T]{codec: codec}
	if cc, ok := ColumnarOf(codec); ok {
		d.cc = cc
		d.kinds = KindsOf(cc)
	}
	return d
}

// Decode appends every value of c to out and returns the grown slice. Row
// and batch chunks may alternate freely on one Decoder. Values may alias
// c (byte-slice fields do), never the Decoder's scratch, so they stay
// valid across later Decode calls. A malformed chunk of either layout —
// bad framing, a bad batch header, or a record the codec cannot parse —
// returns an error wrapping ErrCorrupt, never panics.
func (d *Decoder[T]) Decode(c Chunk, out []T) ([]T, error) {
	if IsBatch(c) {
		return d.decodeBatch(c, out)
	}
	d.r.Reset(c)
	for {
		rec, err := d.r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		v, _, err := d.codec.Decode(rec)
		if err != nil {
			return out, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		out = append(out, v)
	}
}

func (d *Decoder[T]) decodeBatch(c Chunk, out []T) ([]T, error) {
	bt, err := DecodeBatch(c, &d.bt)
	if err != nil {
		return out, err
	}
	if d.cc != nil {
		// The column decoders index bt.Cols by the codec's layout, so a
		// batch of any other shape must be turned away here.
		if len(bt.Cols) != len(d.kinds) {
			return out, fmt.Errorf("%w: batch has %d columns, codec reads %d", ErrCorrupt, len(bt.Cols), len(d.kinds))
		}
		for i, k := range d.kinds {
			if bt.Cols[i].Kind != k {
				return out, fmt.Errorf("%w: batch column %d has kind %d, codec reads %d", ErrCorrupt, i, bt.Cols[i].Kind, k)
			}
		}
		out, _, err = d.cc.DecodeColumn(bt, 0, out)
		return out, err
	}
	// Row-only codec: re-frame each row as the record the row codec
	// expects. Decoded values may alias their record, so the rows
	// re-frame into one buffer per chunk that is never reused; re-framing
	// copies column bytes one for one, so len(c) bounds its size.
	d.br.reset(bt)
	buf := make([]byte, 0, len(c))
	for {
		start := len(buf)
		if buf, err = d.br.next(buf); err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		v, _, err := d.codec.Decode(buf[start:])
		if err != nil {
			return out, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		out = append(out, v)
	}
}
