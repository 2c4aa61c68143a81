package hurricane

import (
	"fmt"

	"repro/internal/shuffle"
)

// The skew-aware shuffle (internal/shuffle) partitions a logical bag by
// key onto P physical partition bags. Declare a partitioned bag with
// App.PartitionedBag (or AddBag with BagSpec.Partitions, plus
// BagSpec.Spread to permit spreading one key's records across consumers),
// write it from producer tasks with a PartitionedWriter, and consume it
// like any bag: the engine runs one consumer worker per physical
// partition, and on a Spread edge clones share a hot partition chunk by
// chunk. While producers run, each keeps the edge's statistics — exact
// record counts per physical partition and a short list of heavy-key
// candidates, priced by a count-min sketch it feeds only the keys heavy in
// some stretch of its stream; the application master records the merged
// counts and candidates (never the sketch's cells), and a later run or
// window warm-starts from them, pre-isolating the heavy keys.

// PartitionedWriter routes typed records by key into the physical
// partition bags of a partitioned output, by the edge's seed partition map
// when its job was submitted with one. It is a shuffle.Scatter: Write and
// WriteBatch are one path — the same routing, the same key counts for the
// edge's statistics, the same per-leaf chunk.Encoder, so the same chunks.
// When the codec's values own everything they encode (a bulk codec: the
// numeric leaves and pairs of them), Write keeps a copy of each record and
// routes them a block of a few thousand at a time, as WriteBatch does, so
// the key function must read only what the value owns; with any other
// codec Write routes its record at the call. Create one per producer worker
// with NewPartitionedWriter; the engine flushes it automatically when the
// task completes, and after that every write returns an error.
type PartitionedWriter[T any] struct{ s *shuffle.Scatter[T] }

// KeyOf is the form of a partitioned writer's key function: the key's
// bytes, or a uint64 that stands for its 8 little-endian bytes. The two
// forms place and count a key alike, so records keyed by a uint64 land
// where those keyed by its 8 bytes do, and the uint64 form reaches the
// writer's word loop with no byte round trip.
type KeyOf[T any] interface {
	func(T) []byte | func(T) uint64
}

// NewPartitionedWriter returns a partitioned writer for output out, which
// must be declared with BagSpec.Partitions > 0 (it panics otherwise, like
// a type error). key extracts the routing key from a record, as bytes or as
// a uint64 (KeyOf); a record's base partition is the hash of its key, so
// records with equal keys land in the same partition unless a seed map
// isolates the key with record-level spreading (BagSpec.Spread).
func NewPartitionedWriter[T any, K KeyOf[T]](tc *TaskCtx, out int, codec Codec[T], key K) *PartitionedWriter[T] {
	w := tc.ShuffleWriter(out)
	if w == nil {
		panic(fmt.Sprintf("hurricane: output bag %q is not partitioned", tc.OutputName(out)))
	}
	var s *shuffle.Scatter[T]
	switch key := any(key).(type) {
	case func(T) []byte:
		s = shuffle.NewScatter(w, codec, key)
	case func(T) uint64:
		s = shuffle.NewScatter(w, codec, nil)
		s.KeyUint64(key)
	}
	tc.OnFinish(s.Close)
	return &PartitionedWriter[T]{s: s}
}

// Write routes one record to its partition.
func (pw *PartitionedWriter[T]) Write(v T) error { return pw.s.Write(v) }

// WriteBatch routes a batch of records, after any that Write holds; it is
// Write over each of them, with the per-record dispatch paid once per
// partition per few thousand records.
func (pw *PartitionedWriter[T]) WriteBatch(vs []T) error { return pw.s.WriteBatch(vs) }

// NewPartitionedWriterUint64 is NewPartitionedWriter with a uint64 key.
//
// Deprecated: NewPartitionedWriter takes a func(T) uint64 key itself.
func NewPartitionedWriterUint64[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) uint64) *PartitionedWriter[T] {
	return NewPartitionedWriter(tc, out, codec, key)
}

// Uint64Key returns f: a uint64 key is a key form NewPartitionedWriter
// takes as it is.
//
// Deprecated: pass f to NewPartitionedWriter directly.
func Uint64Key[T any](f func(T) uint64) func(T) uint64 { return f }
