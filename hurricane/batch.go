package hurricane

import (
	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/shuffle"
)

// Vectorized task bodies. ForEachBatch and PartitionedWriter.WriteBatch
// are the batch counterparts of ForEach and PartitionedWriter.Write: a
// task that consumes and produces whole column batches pays the codec,
// routing, and sketch costs once per batch instead of once per record.
// Reads of either kind go through one chunk.Decoder per call, which
// accepts row and batch chunks alike, and non-columnar codecs write rows —
// so batch tasks and row tasks interoperate on the same bags.

// ForEachBatch drains input i of the task, invoking fn with successive
// value batches, one per non-empty chunk. The slice is reused between
// calls — fn must not retain it. This is the one read loop of the task
// API: ForEach is ForEachBatch with an inner loop, and both layouts of
// chunk reach either through the same chunk.Decoder.
func ForEachBatch[T any](tc *TaskCtx, input int, codec Codec[T], fn func([]T) error) error {
	return forEachVec(func() (Chunk, error) { return tc.Remove(input) }, codec, fn)
}

// forEachVec decodes the chunks next yields, until bag.ErrEmpty, into a
// reused vector handed to fn.
func forEachVec[T any](next func() (Chunk, error), codec Codec[T], fn func([]T) error) error {
	d := chunk.NewDecoder(codec)
	var vec []T
	for {
		c, err := next()
		if err == bag.ErrEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		if vec, err = d.Decode(c, vec[:0]); err != nil {
			return err
		}
		if len(vec) == 0 {
			continue
		}
		if err := fn(vec); err != nil {
			return err
		}
	}
}

// each adapts a per-record body to the vector loop.
func each[T any](fn func(T) error) func([]T) error {
	return func(vec []T) error {
		for _, v := range vec {
			if err := fn(v); err != nil {
				return err
			}
		}
		return nil
	}
}

// WriteBatch routes a batch of records in one pass: the partition map is
// consulted once, the routing vector is computed for the whole batch,
// rows are scattered into per-partition column builders, and the edge's
// sketch receives exact per-key counts in bulk. Requires a columnar
// codec; otherwise it degrades to per-record Write calls.
func (pw *PartitionedWriter[T]) WriteBatch(vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	if pw.cc == nil && !pw.rowOnly {
		if cc, ok := chunk.ColumnarOf(pw.codec); ok {
			pw.cc = cc
			pw.kinds = chunk.KindsOf(cc)
			pw.leaves = make(map[shuffle.RouteRef]*chunk.BatchBuilder)
			if bc, ok := chunk.BulkOf(cc); ok {
				pw.bulk = bc
			}
		} else {
			pw.rowOnly = true
		}
	}
	if pw.rowOnly {
		for i := range vs {
			if err := pw.Write(vs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var refs []shuffle.RouteRef
	if pw.keyU64 != nil {
		if cap(pw.u64keys) < len(vs) {
			pw.u64keys = make([]uint64, len(vs))
		}
		pw.u64keys = pw.u64keys[:len(vs)]
		for i := range vs {
			pw.u64keys[i] = pw.keyU64(vs[i])
		}
		refs = pw.w.PartitionBatchUint64(pw.u64keys)
	} else {
		refs = pw.w.PartitionBatch(len(vs), func(i int) []byte { return pw.key(vs[i]) })
	}
	if pw.bulk != nil {
		return pw.scatterBulk(vs, refs)
	}
	for i, ref := range refs {
		var b *chunk.BatchBuilder
		if ref.Iso < 0 && ref.Sub < 0 {
			// Base partition: dense-slice lookup, no map hashing.
			for ref.Part >= len(pw.baseLeaves) {
				pw.baseLeaves = append(pw.baseLeaves, nil)
			}
			if b = pw.baseLeaves[ref.Part]; b == nil {
				b = chunk.GetBatchBuilder(0, pw.kinds)
				pw.baseLeaves[ref.Part] = b
			}
		} else if b = pw.leaves[ref]; b == nil {
			b = chunk.GetBatchBuilder(0, pw.kinds)
			pw.leaves[ref] = b
		}
		pw.cc.EncodeColumn(b, 0, vs[i])
		b.EndRow()
		if b.Size() >= pw.chunkSize {
			if err := pw.flushLeaf(ref, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// scatterBulk is WriteBatch's fast scatter for bulk-encodable codecs: it
// groups the batch's row indices by routing decision, then encodes each
// group column-major with one EncodeRows call — so the virtual dispatch,
// row accounting, and chunk-size check run once per leaf per batch
// instead of once per record. Row order within a leaf is stream order,
// exactly as the per-record path produces.
func (pw *PartitionedWriter[T]) scatterBulk(vs []T, refs []shuffle.RouteRef) error {
	for i := range pw.baseIdx {
		pw.baseIdx[i] = pw.baseIdx[i][:0]
	}
	mapped := false
	for i, ref := range refs {
		if ref.Iso < 0 && ref.Sub < 0 {
			for ref.Part >= len(pw.baseIdx) {
				pw.baseIdx = append(pw.baseIdx, nil)
			}
			pw.baseIdx[ref.Part] = append(pw.baseIdx[ref.Part], int32(i))
		} else {
			if pw.mapIdx == nil {
				pw.mapIdx = make(map[shuffle.RouteRef][]int32)
			}
			pw.mapIdx[ref] = append(pw.mapIdx[ref], int32(i))
			mapped = true
		}
	}
	for p, idx := range pw.baseIdx {
		if len(idx) == 0 {
			continue
		}
		ref := shuffle.RouteRef{Iso: -1, Part: p, Sub: -1}
		for ref.Part >= len(pw.baseLeaves) {
			pw.baseLeaves = append(pw.baseLeaves, nil)
		}
		b := pw.baseLeaves[p]
		if b == nil {
			b = chunk.GetBatchBuilder(0, pw.kinds)
			pw.baseLeaves[p] = b
		}
		pw.bulk.EncodeRows(b, 0, vs, idx)
		b.EndRows(len(idx))
		if b.Size() >= pw.chunkSize {
			if err := pw.flushLeaf(ref, b); err != nil {
				return err
			}
		}
	}
	if !mapped {
		return nil
	}
	for ref, idx := range pw.mapIdx {
		if len(idx) == 0 {
			continue
		}
		b := pw.leaves[ref]
		if b == nil {
			b = chunk.GetBatchBuilder(0, pw.kinds)
			pw.leaves[ref] = b
		}
		pw.bulk.EncodeRows(b, 0, vs, idx)
		b.EndRows(len(idx))
		pw.mapIdx[ref] = idx[:0]
		if b.Size() >= pw.chunkSize {
			if err := pw.flushLeaf(ref, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushLeaf encodes and inserts one partition's pending batch.
func (pw *PartitionedWriter[T]) flushLeaf(ref shuffle.RouteRef, b *chunk.BatchBuilder) error {
	rows := b.Rows()
	if rows == 0 {
		return nil
	}
	c := b.Encode()
	b.Clear()
	return pw.w.InsertBatchChunk(ref, c, rows)
}

// close flushes pending batches, returns their builders to the pool, and
// closes the underlying shuffle writer. Registered as the task-finish
// hook by NewPartitionedWriterWith.
func (pw *PartitionedWriter[T]) close() error {
	var firstErr error
	for p, b := range pw.baseLeaves {
		if b == nil {
			continue
		}
		ref := shuffle.RouteRef{Iso: -1, Part: p, Sub: -1}
		if err := pw.flushLeaf(ref, b); err != nil && firstErr == nil {
			firstErr = err
		}
		chunk.PutBatchBuilder(b)
		pw.baseLeaves[p] = nil
	}
	for ref, b := range pw.leaves {
		if err := pw.flushLeaf(ref, b); err != nil && firstErr == nil {
			firstErr = err
		}
		chunk.PutBatchBuilder(b)
		delete(pw.leaves, ref)
	}
	if err := pw.w.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
