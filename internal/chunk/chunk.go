// Package chunk implements Hurricane's fixed-size data chunks and the
// record framing used inside them.
//
// A chunk is the basic indivisible unit of data exchanged between workers
// and storage nodes (the paper uses 4 MB chunks). Workers serialize their
// application records into a chunk before inserting it into a bag, and
// deserialize records after removing a chunk. All serializers guarantee
// that records never cross chunk boundaries, so any chunk can be processed
// independently of all others — the property that makes fine-grained task
// cloning possible.
//
// The engine writes and reads one chunk layout, the columnar batch
// (batch.go), through Encoder and Decoder. The row layout of this file — a
// sequence of records, each a uvarint length prefix followed by that many
// payload bytes — is kept for the frozen benchmark, which prices it: Writer,
// Reader, NewTypedWriter and NewSliceIterator write and read it, and no
// engine path does.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// DefaultSize is the chunk size used by the paper's implementation (4 MB).
const DefaultSize = 4 << 20

// ErrRecordTooLarge is returned when a single record cannot fit into an
// empty chunk of the configured size.
var ErrRecordTooLarge = errors.New("chunk: record larger than chunk size")

// ErrCorrupt is returned when a chunk's record framing is malformed.
var ErrCorrupt = errors.New("chunk: corrupt record framing")

// A Chunk is an immutable block of framed records.
type Chunk []byte

// Writer accumulates records into row chunks of at most Size bytes and
// emits each chunk through the Emit callback once it is full. Records never
// straddle two chunks. It is kept for the frozen benchmark (see the package
// comment).
type Writer struct {
	// Size is the maximum chunk size in bytes.
	Size int
	// Emit is invoked with each completed chunk. The callback owns the
	// slice; the writer never reuses emitted memory.
	Emit func(Chunk) error

	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer producing chunks of at most size bytes.
// If size <= 0, DefaultSize is used.
func NewWriter(size int, emit func(Chunk) error) *Writer {
	if size <= 0 {
		size = DefaultSize
	}
	return &Writer{Size: size, Emit: emit}
}

// Append adds one record to the current chunk, flushing first if the record
// would not fit. It returns ErrRecordTooLarge if the framed record exceeds
// the chunk size outright.
func (w *Writer) Append(record []byte) error {
	n := binary.PutUvarint(w.tmp[:], uint64(len(record)))
	framed := n + len(record)
	if framed > w.Size {
		return fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, framed, w.Size)
	}
	if len(w.buf)+framed > w.Size {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, w.Size)
	}
	w.buf = append(w.buf, w.tmp[:n]...)
	w.buf = append(w.buf, record...)
	return nil
}

// Flush emits the current partial chunk, if any.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	c := Chunk(w.buf)
	w.buf = nil
	if w.Emit == nil {
		return nil
	}
	return w.Emit(c)
}

// Reader iterates over the records framed inside a row chunk. It is kept
// for the frozen benchmark (see the package comment).
type Reader struct {
	data Chunk
	off  int
}

// NewReader returns a Reader over c.
func NewReader(c Chunk) *Reader { return &Reader{data: c} }

// Reset re-points the reader at c, retaining the allocation so one Reader
// can serve a whole scan instead of being re-allocated per chunk.
func (r *Reader) Reset(c Chunk) { r.data, r.off = c, 0 }

// Next returns the next record, or io.EOF when the chunk is exhausted.
// The returned slice aliases the chunk; callers must not modify it.
// Pointing a row Reader at a columnar batch chunk returns ErrCorrupt —
// a Decoder reads those.
func (r *Reader) Next() ([]byte, error) {
	if r.off == 0 && IsBatch(r.data) {
		return nil, fmt.Errorf("%w: batch chunk read through row reader", ErrCorrupt)
	}
	if r.off >= len(r.data) {
		return nil, io.EOF
	}
	size, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return nil, ErrCorrupt
	}
	start := r.off + n
	end := start + int(size)
	if end > len(r.data) || end < start {
		return nil, ErrCorrupt
	}
	r.off = end
	return r.data[start:end], nil
}

// Remaining reports whether at least one more record is available.
func (r *Reader) Remaining() bool { return r.off < len(r.data) }

// Count returns the number of records in the batch chunk c, from its
// header alone, or an error wrapping ErrCorrupt for a bad header or a row
// chunk.
func Count(c Chunk) (int, error) {
	if !IsBatch(c) {
		return 0, fmt.Errorf("%w: row chunk", ErrCorrupt)
	}
	return batchRows(c)
}
