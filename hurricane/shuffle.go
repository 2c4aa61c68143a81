package hurricane

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/shuffle"
)

// The skew-aware shuffle (internal/shuffle) partitions a logical bag by
// key onto P physical partition bags. Declare a partitioned bag with
// App.PartitionedBag (or AddBag with BagSpec.Partitions, plus
// BagSpec.Spread to permit record-level spreading of isolated heavy
// hitters), write it from producer tasks with a PartitionedWriter, and
// consume it like any bag: the engine runs one consumer worker per
// physical partition. While producers run, they feed key counts into a
// per-edge count-min sketch; the application master watches the merged
// sketch and splits hot partitions at runtime, so skewed keyed workloads
// spread across consumers instead of serializing on one bag.

// Partitioner maps a record key to one of n base partitions. Implementations
// must be deterministic and shared by all producers of an edge.
type Partitioner = shuffle.Partitioner

// HashPartitioner is the default partitioner (FNV-1a modulo n).
type HashPartitioner = shuffle.HashPartitioner

// PartitionedWriter routes typed records by key into the physical
// partition bags of a partitioned output, adopting partition-map updates
// published by the master mid-stream. Create one per producer worker with
// NewPartitionedWriter; the engine flushes it automatically when the task
// completes.
type PartitionedWriter[T any] struct {
	w     *shuffle.Writer
	codec Codec[T]
	key   func(T) []byte
	buf   []byte
	kbuf  []byte

	// Batch scatter state (see batch.go): the codec's columnar view,
	// resolved lazily on the first WriteBatch, and one pooled batch
	// builder per routing decision. Base partitions — the overwhelmingly
	// common routing outcome — index a dense slice; isolation and
	// sub-partition refs take the map (a struct-keyed map lookup per
	// record is measurable at batch rates).
	cc         chunk.ColumnCodec[T]
	kinds      []chunk.ColKind
	baseLeaves []*chunk.BatchBuilder
	leaves     map[shuffle.RouteRef]*chunk.BatchBuilder
	chunkSize  int
	rowOnly    bool

	// keyU64, when set (NewPartitionedWriterUint64), unlocks the
	// uint64-native batch routing path: WriteBatch hashes and counts keys
	// as words instead of materializing an 8-byte encoding per record.
	// Placement is identical to the generic path by construction.
	keyU64  func(T) uint64
	u64keys []uint64

	// Bulk-encode scatter state: the codec's bulk view (nil when any
	// component codec lacks one) and reusable per-leaf row-index lists,
	// dense for base partitions, mapped for isolation/sub-partition refs.
	bulk    chunk.BulkColumnCodec[T]
	baseIdx [][]int32
	mapIdx  map[shuffle.RouteRef][]int32
}

// NewPartitionedWriter returns a partitioned writer for output out, which
// must be declared with BagSpec.Partitions > 0 (it panics otherwise, like
// a type error). key extracts the routing key from a record; records with
// equal keys land in the same partition unless the master isolates the key
// with record-level spreading (BagSpec.Spread).
func NewPartitionedWriter[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) []byte) *PartitionedWriter[T] {
	return NewPartitionedWriterWith(tc, out, codec, key, nil)
}

// NewPartitionedWriterWith is NewPartitionedWriter with a custom base
// partitioner (nil means the default HashPartitioner). All producers of an
// edge must use the same partitioner.
func NewPartitionedWriterWith[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) []byte, part Partitioner) *PartitionedWriter[T] {
	w := tc.ShuffleWriter(out, part)
	if w == nil {
		panic(fmt.Sprintf("hurricane: output bag %q is not partitioned", tc.OutputName(out)))
	}
	pw := &PartitionedWriter[T]{w: w, codec: codec, key: key, chunkSize: tc.Store().ChunkSize()}
	// pw.close (not w.Close) so pending batch builders flush before the
	// shuffle writer's inserters shut down.
	tc.OnFinish(pw.close)
	return pw
}

// Write routes one record to its partition.
func (pw *PartitionedWriter[T]) Write(v T) error {
	pw.kbuf = append(pw.kbuf[:0], pw.key(v)...)
	pw.buf = pw.codec.Encode(pw.buf[:0], v)
	return pw.w.Write(pw.kbuf, pw.buf)
}

// NewPartitionedWriterUint64 is NewPartitionedWriter for uint64-keyed
// records (keys identified by their 8-byte little-endian encoding, the
// Uint64Key convention). Row-path Write behaves exactly like
// NewPartitionedWriter with Uint64Key(key); WriteBatch additionally
// routes on the key words directly, skipping the per-record byte
// round-trip.
func NewPartitionedWriterUint64[T any](tc *TaskCtx, out int, codec Codec[T], key func(T) uint64) *PartitionedWriter[T] {
	pw := NewPartitionedWriterWith(tc, out, codec, Uint64Key(key), nil)
	pw.keyU64 = key
	return pw
}

// Uint64Key adapts a uint64-keyed extractor into the []byte key form
// PartitionedWriter expects (little-endian, allocation-free at the call
// site via the writer's internal buffer).
func Uint64Key[T any](f func(T) uint64) func(T) []byte {
	var buf [8]byte
	return func(v T) []byte {
		binary.LittleEndian.PutUint64(buf[:], f(v))
		return buf[:]
	}
}
