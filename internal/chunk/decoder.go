package chunk

import "fmt"

// A Decoder turns whole chunks into value vectors for one read stream. It
// is the single place that decides how a chunk is read, so every reader
// above it (the task-side ForEach family, Collect, the query planner's
// stages) sees one operation: chunk in, values out. The engine writes one
// layout, the batch, so a Decoder reads that one: a chunk whose layout is
// not its codec's view's — a row chunk, or a batch of other columns — is
// ErrCorrupt naming both, and is never re-framed to fit.
//
// A Decoder owns its batch header and its resolved columnar view, whose
// pairs decode through per-view scratch: construct one per stream (per
// worker, per task input) and never share it between goroutines. The codec
// it wraps may be shared freely.
type Decoder[T any] struct {
	cc    ColumnCodec[T]
	tag   uint64    // cc's batch tag (tagOf)
	kinds []ColKind // cc's column layout
	bt    Batch
}

// NewDecoder returns a Decoder reading chunks of codec's values. The
// codec's columnar view is resolved here, once per stream.
func NewDecoder[T any](codec Codec[T]) *Decoder[T] {
	cc, _ := ColumnarOf(codec)
	return &Decoder[T]{cc: cc, tag: tagOf(cc), kinds: KindsOf(cc)}
}

// Decode appends every value of c to out and returns the grown slice.
// Values may alias c (byte-slice fields do), never the Decoder's scratch,
// so they stay valid across later Decode calls. A malformed chunk — a bad
// batch header, columns of another layout, or a value the codec cannot
// parse — returns an error wrapping ErrCorrupt, never panics.
func (d *Decoder[T]) Decode(c Chunk, out []T) ([]T, error) {
	if !IsBatch(c) {
		return out, fmt.Errorf("%w: row chunk; codec reads %s", ErrCorrupt, layoutName(d.tag, d.kinds))
	}
	bt, err := DecodeBatch(c, &d.bt)
	if err != nil {
		return out, err
	}
	// The column decoders index bt.Cols by the codec's layout, so a batch
	// of any other shape must be turned away here.
	same := bt.Tag == d.tag && len(bt.Cols) == len(d.kinds)
	for i := 0; same && i < len(d.kinds); i++ {
		same = bt.Cols[i].Kind == d.kinds[i]
	}
	if !same {
		kinds := make([]ColKind, len(bt.Cols))
		for i, col := range bt.Cols {
			kinds[i] = col.Kind
		}
		return out, fmt.Errorf("%w: chunk columns %s; codec reads %s", ErrCorrupt, layoutName(bt.Tag, kinds), layoutName(d.tag, d.kinds))
	}
	out, _, err = d.cc.DecodeColumn(bt, 0, out)
	return out, err
}

// layoutName spells a batch layout for an error: its column kinds, behind
// "blob" for the blob view.
func layoutName(tag uint64, kinds []ColKind) string {
	switch tag {
	case 0:
		return fmt.Sprint(kinds)
	case blobTag:
		return fmt.Sprint("blob ", kinds)
	}
	return fmt.Sprintf("tag %d %v", tag, kinds)
}
