// Typed serializers and iterators for common record formats.
//
// The paper: "Hurricane provides a number of typed iterators for serializing
// and deserializing common formats (integers, floats, strings, tuples, etc.),
// which can be combined to represent more complex data types."
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrShortRecord is returned when decoding a record that is too short for
// the expected format.
var ErrShortRecord = errors.New("chunk: short record")

// A Codec serializes values of type T to and from record byte slices.
type Codec[T any] interface {
	// Encode appends the encoding of v to buf and returns the result.
	Encode(buf []byte, v T) []byte
	// Decode parses a value from record, returning the value and the
	// number of bytes consumed.
	Decode(record []byte) (T, int, error)
}

// ---- scalar codecs ----

// Int64Codec encodes int64 values as zig-zag varints.
type Int64Codec struct{}

func (Int64Codec) Encode(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func (Int64Codec) Decode(record []byte) (int64, int, error) {
	v, n := binary.Varint(record)
	if n <= 0 {
		return 0, 0, ErrShortRecord
	}
	return v, n, nil
}

// Uint64Codec encodes uint64 values as varints.
type Uint64Codec struct{}

func (Uint64Codec) Encode(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func (Uint64Codec) Decode(record []byte) (uint64, int, error) {
	v, n := binary.Uvarint(record)
	if n <= 0 {
		return 0, 0, ErrShortRecord
	}
	return v, n, nil
}

// Uint64FixedCodec encodes uint64 values as fixed 8-byte little-endian
// words. It is the right choice for high-entropy fields (hashes, random
// identifiers, opaque payloads): a uniformly random uint64 averages more
// than nine bytes as a varint and costs a ten-iteration decode loop per
// value, where the fixed layout is one load.
type Uint64FixedCodec struct{}

func (Uint64FixedCodec) Encode(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func (Uint64FixedCodec) Decode(record []byte) (uint64, int, error) {
	if len(record) < 8 {
		return 0, 0, ErrShortRecord
	}
	return binary.LittleEndian.Uint64(record), 8, nil
}

// Float64Codec encodes float64 values as fixed 8-byte little-endian IEEE 754.
type Float64Codec struct{}

func (Float64Codec) Encode(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func (Float64Codec) Decode(record []byte) (float64, int, error) {
	if len(record) < 8 {
		return 0, 0, ErrShortRecord
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(record)), 8, nil
}

// StringCodec encodes strings with a uvarint length prefix.
type StringCodec struct{}

func (StringCodec) Encode(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

func (StringCodec) Decode(record []byte) (string, int, error) {
	size, n := binary.Uvarint(record)
	if n <= 0 {
		return "", 0, ErrShortRecord
	}
	if size > uint64(len(record)-n) {
		return "", 0, ErrShortRecord
	}
	end := n + int(size)
	return string(record[n:end]), end, nil
}

// BytesCodec encodes byte slices with a uvarint length prefix.
type BytesCodec struct{}

func (BytesCodec) Encode(buf []byte, v []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

func (BytesCodec) Decode(record []byte) ([]byte, int, error) {
	size, n := binary.Uvarint(record)
	if n <= 0 {
		return nil, 0, ErrShortRecord
	}
	if size > uint64(len(record)-n) {
		return nil, 0, ErrShortRecord
	}
	end := n + int(size)
	return record[n:end], end, nil
}

// ---- composite codecs ----

// Pair is a two-field tuple.
type Pair[A, B any] struct {
	First  A
	Second B
}

// PairCodec combines two codecs into a codec for Pair values. Nested
// PairCodecs represent arbitrary nested tuples.
type PairCodec[A, B any] struct {
	A Codec[A]
	B Codec[B]
}

func (c PairCodec[A, B]) Encode(buf []byte, v Pair[A, B]) []byte {
	buf = c.A.Encode(buf, v.First)
	return c.B.Encode(buf, v.Second)
}

func (c PairCodec[A, B]) Decode(record []byte) (Pair[A, B], int, error) {
	var p Pair[A, B]
	a, n, err := c.A.Decode(record)
	if err != nil {
		return p, 0, err
	}
	b, m, err := c.B.Decode(record[n:])
	if err != nil {
		return p, 0, err
	}
	p.First, p.Second = a, b
	return p, n + m, nil
}

// KV is a key-value record with string key and opaque value, the workhorse
// record type of the map-reduce style applications in the paper.
type KV struct {
	Key   string
	Value []byte
}

// KVCodec serializes KV records.
type KVCodec struct{}

func (KVCodec) Encode(buf []byte, v KV) []byte {
	buf = (StringCodec{}).Encode(buf, v.Key)
	return (BytesCodec{}).Encode(buf, v.Value)
}

func (KVCodec) Decode(record []byte) (KV, int, error) {
	k, n, err := (StringCodec{}).Decode(record)
	if err != nil {
		return KV{}, 0, err
	}
	v, m, err := (BytesCodec{}).Decode(record[n:])
	if err != nil {
		return KV{}, 0, err
	}
	return KV{Key: k, Value: v}, n + m, nil
}

// ---- typed writer / iterator ----

// TypedWriter serializes values of type T into row chunks via an
// underlying chunk Writer, one value per record. It is kept for the frozen
// benchmark (see the package comment): the engine writes through Encoder.
type TypedWriter[T any] struct {
	W     *Writer
	Codec Codec[T]
	buf   []byte
}

// NewTypedWriter returns a TypedWriter emitting row chunks of at most size
// bytes through emit. It is kept for the frozen benchmark.
func NewTypedWriter[T any](codec Codec[T], size int, emit func(Chunk) error) *TypedWriter[T] {
	return &TypedWriter[T]{W: NewWriter(size, emit), Codec: codec}
}

// Write appends one value as a record.
func (t *TypedWriter[T]) Write(v T) error {
	t.buf = t.Codec.Encode(t.buf[:0], v)
	return t.W.Append(t.buf)
}

// Flush emits any buffered partial chunk.
func (t *TypedWriter[T]) Flush() error { return t.W.Flush() }

// Iterator deserializes values of type T from a sequence of chunks: a
// cursor over one chunk's values at a time. A batch chunk decodes through a
// Decoder; a row chunk, which only the frozen benchmark's row probes write,
// through the codec's Decode, record by record — the one row decode left.
type Iterator[T any] struct {
	chunks []Chunk
	codec  Codec[T]
	d      *Decoder[T]
	r      Reader
	vec    []T
	vi     int
}

// NewSliceIterator returns an Iterator over a fixed set of chunks. It is
// kept for the frozen benchmark, which reads row chunks through it.
func NewSliceIterator[T any](codec Codec[T], chunks []Chunk) *Iterator[T] {
	return &Iterator[T]{chunks: chunks, codec: codec, d: NewDecoder(codec)}
}

// Next returns the next decoded value, or io.EOF after the last chunk. A
// chunk is decoded whole before its first value is returned, so a corrupt
// chunk yields its error in place of all of its values.
func (it *Iterator[T]) Next() (T, error) {
	for it.vi >= len(it.vec) {
		var zero T
		if len(it.chunks) == 0 {
			return zero, io.EOF
		}
		c := it.chunks[0]
		it.chunks = it.chunks[1:]
		var err error
		it.vi = 0
		if IsBatch(c) {
			it.vec, err = it.d.Decode(c, it.vec[:0])
		} else {
			it.vec, err = it.decodeRows(c, it.vec[:0])
		}
		if err != nil {
			it.vec = it.vec[:0]
			return zero, err
		}
	}
	v := it.vec[it.vi]
	it.vi++
	return v, nil
}

// decodeRows appends the values of row chunk c to out.
func (it *Iterator[T]) decodeRows(c Chunk, out []T) ([]T, error) {
	it.r.Reset(c)
	for {
		rec, err := it.r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		v, _, err := it.codec.Decode(rec)
		if err != nil {
			return out, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		out = append(out, v)
	}
}

// Collect drains the iterator into a slice.
func (it *Iterator[T]) Collect() ([]T, error) {
	var out []T
	for {
		v, err := it.Next()
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, v)
	}
}
