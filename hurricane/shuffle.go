package hurricane

import (
	"encoding/binary"
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
// partition bags of a partitioned output, adopting the seed partition map
// the master publishes for the edge. It is a shuffle.Scatter: Write and
// WriteBatch are one path — the same routing, the same key counts for the
// edge's statistics, the same per-leaf chunk.Encoder, so the same chunks —
// taken a record or a batch at a time. Create one per producer worker with
// NewPartitionedWriter; the engine flushes it automatically when the task
// completes.
type PartitionedWriter[T any] struct{ s *shuffle.Scatter[T] }

// NewPartitionedWriter returns a partitioned writer for output out, which
// must be declared with BagSpec.Partitions > 0 (it panics otherwise, like
// a type error). key extracts the routing key from a record; a record's
// base partition is the hash of its key, so records with equal keys land
// in the same partition unless a seed map isolates the key with
// record-level spreading (BagSpec.Spread).
func NewPartitionedWriter[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) []byte) *PartitionedWriter[T] {
	w := tc.ShuffleWriter(out)
	if w == nil {
		panic(fmt.Sprintf("hurricane: output bag %q is not partitioned", tc.OutputName(out)))
	}
	s := shuffle.NewScatter(w, codec, key)
	tc.OnFinish(s.Close)
	return &PartitionedWriter[T]{s: s}
}

// Write routes one record to its partition.
func (pw *PartitionedWriter[T]) Write(v T) error { return pw.s.Write(v) }

// WriteBatch routes a batch of records; it is Write over each of them, with
// the per-record dispatch paid once per partition per few thousand records.
func (pw *PartitionedWriter[T]) WriteBatch(vs []T) error { return pw.s.WriteBatch(vs) }

// NewPartitionedWriterUint64 is NewPartitionedWriter for uint64-keyed
// records (keys identified by their 8-byte little-endian encoding, the
// Uint64Key convention). Placement is exactly NewPartitionedWriter's with
// Uint64Key(key); routing hashes and counts the key words directly,
// skipping the per-record byte round-trip.
func NewPartitionedWriterUint64[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) uint64) *PartitionedWriter[T] {
	pw := NewPartitionedWriter(tc, out, codec, Uint64Key(key))
	pw.s.KeyUint64(key)
	return pw
}

// Uint64Key adapts a uint64-keyed extractor into the []byte key form
// PartitionedWriter expects (little-endian; the returned bytes are valid
// until the next call).
func Uint64Key[T any](f func(T) uint64) func(T) []byte {
	var buf [8]byte
	return func(v T) []byte {
		binary.LittleEndian.PutUint64(buf[:], f(v))
		return buf[:]
	}
}
