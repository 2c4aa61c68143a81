package plan

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
)

// Vectorized stage execution. Every compiled stage runs one batch loop
// (runStage): input chunks of either layout decode into a record vector
// through the worker's own decoder, the fused prefix of narrow operators
// applies over whole vectors (Filter as a selection pass that compacts
// the vector in place, Map as an in-place column transform), and the
// stage tail — per-record operators like FlatMap/Join/GroupBy/TopK, then
// the sink — consumes the surviving vector. Output batches when the
// output codec supports the columnar layout (ColumnarAnyCodec): a plain
// sink packs records into per-chunk column builders, an edge sink buffers
// records and routes them through the shuffle writer's one-pass batch
// partitioner; row-only output codecs write row chunks. Readers accept
// both layouts on any bag, so the results are identical either way.

// ColumnarAnyCodec is the optional batch-output extension of AnyCodec.
// The typed adapter in hurricane/q implements it whenever the wrapped
// chunk.Codec supports the batch layout; ColKinds returning nil means
// "row only", and the stage's sink writes row chunks.
type ColumnarAnyCodec interface {
	AnyCodec
	// ColKinds returns the batch column layout, or nil when the wrapped
	// codec is row-only.
	ColKinds() []chunk.ColKind
	// EncodeColumnAny appends one record's fields to the builder's
	// columns; the caller ends the row.
	EncodeColumnAny(b *chunk.BatchBuilder, v any)
}

// columnarOf resolves the batch-capable view of a codec, nil when the
// codec is row-only.
func columnarOf(c AnyCodec) ColumnarAnyCodec {
	if cc, ok := c.(ColumnarAnyCodec); ok && cc.ColKinds() != nil {
		return cc
	}
	return nil
}

// vecRouteBatch is how many emitted records an edge sink buffers before
// routing them as one batch (one map poll, one routing pass, one bulk
// sketch feed).
const vecRouteBatch = 1024

// vecKernel transforms one record vector in place (the returned slice
// shares the input's backing array).
type vecKernel func(vec []any) ([]any, error)

// vecPrefixLen returns how many leading ops of the fused chain are
// vectorizable. Filter and Map keep the vector a vector; the first
// FlatMap/Join/GroupBy/TopK starts the per-record tail.
func vecPrefixLen(ops []*Node) int {
	n := 0
	for n < len(ops) && (ops[n].kind == opFilter || ops[n].kind == opMap) {
		n++
	}
	return n
}

// lowerVecOps compiles the vectorizable prefix into batch kernels. Like
// lowerOps, the per-worker factories run once per call, so clones get
// their own operator state.
func lowerVecOps(ops []*Node) []vecKernel {
	out := make([]vecKernel, 0, len(ops))
	for _, n := range ops {
		switch n.kind {
		case opFilter:
			pred := n.filterF()
			out = append(out, func(vec []any) ([]any, error) {
				kept := vec[:0]
				for _, v := range vec {
					if pred(v) {
						kept = append(kept, v)
					}
				}
				return kept, nil
			})
		case opMap:
			fn := n.mapF()
			out = append(out, func(vec []any) ([]any, error) {
				for i, v := range vec {
					m, err := fn(v)
					if err != nil {
						return nil, err
					}
					vec[i] = m
				}
				return vec, nil
			})
		}
	}
	return out
}

// stageVecSink is stageSink with batch output: when the stage's output
// codec is columnar, records pack into column builders (a plain bag gets
// one builder, an edge sink scatters routed batches into per-partition
// builders). Row-only output codecs keep the original sink.
func stageVecSink(tc *core.TaskCtx, s *stage) (func(any) error, error) {
	oc := columnarOf(s.outCodec)
	if oc == nil {
		return stageSink(tc, s)
	}
	if s.edgeKeyFn == nil {
		sink := &plainVecSink{
			tc: tc, oc: oc,
			b:         chunk.GetBatchBuilder(0, oc.ColKinds()),
			chunkSize: tc.Store().ChunkSize(),
		}
		tc.OnFinish(sink.close)
		return sink.append, nil
	}
	w := tc.ShuffleWriter(0, nil)
	if w == nil {
		return nil, fmt.Errorf("plan: stage %s output %q is not partitioned", s.name, tc.OutputName(0))
	}
	sink := &edgeVecSink{
		oc: oc, key: s.edgeKeyFn, w: w,
		kinds:     oc.ColKinds(),
		leaves:    make(map[shuffle.RouteRef]*chunk.BatchBuilder),
		chunkSize: tc.Store().ChunkSize(),
	}
	tc.OnFinish(sink.close)
	return sink.append, nil
}

// plainVecSink batch-encodes a stage's records into its plain output bag.
type plainVecSink struct {
	tc        *core.TaskCtx
	oc        ColumnarAnyCodec
	b         *chunk.BatchBuilder
	chunkSize int
}

func (s *plainVecSink) append(v any) error {
	s.oc.EncodeColumnAny(s.b, v)
	s.b.EndRow()
	if s.b.Size() >= s.chunkSize {
		c := s.b.Encode()
		s.b.Clear()
		return s.tc.Insert(0, c)
	}
	return nil
}

func (s *plainVecSink) close() error {
	defer chunk.PutBatchBuilder(s.b)
	if s.b.Rows() == 0 {
		return nil
	}
	return s.tc.Insert(0, s.b.Encode())
}

// edgeVecSink batch-routes a stage's records into its shuffle edge:
// emitted records buffer up to vecRouteBatch, then one PartitionBatch
// call routes them all and each row lands in its partition's column
// builder. Chunks flush at the configured chunk size; close (the task's
// finish hook) drains the buffer and pending builders before closing the
// writer, so nothing is lost on completion.
type edgeVecSink struct {
	w         *shuffle.Writer
	oc        ColumnarAnyCodec
	key       func(any) uint64
	kinds     []chunk.ColKind
	pend      []any
	leaves    map[shuffle.RouteRef]*chunk.BatchBuilder
	chunkSize int
	kb        [8]byte
}

func (s *edgeVecSink) append(v any) error {
	s.pend = append(s.pend, v)
	if len(s.pend) >= vecRouteBatch {
		return s.route()
	}
	return nil
}

func (s *edgeVecSink) route() error {
	if len(s.pend) == 0 {
		return nil
	}
	// PartitionBatch consumes each key before the next index is asked
	// for, so one scratch buffer serves the whole batch.
	refs := s.w.PartitionBatch(len(s.pend), func(i int) []byte {
		binary.LittleEndian.PutUint64(s.kb[:], s.key(s.pend[i]))
		return s.kb[:]
	})
	for i, ref := range refs {
		b := s.leaves[ref]
		if b == nil {
			b = chunk.GetBatchBuilder(0, s.kinds)
			s.leaves[ref] = b
		}
		s.oc.EncodeColumnAny(b, s.pend[i])
		b.EndRow()
		if b.Size() >= s.chunkSize {
			if err := s.flushLeaf(ref, b); err != nil {
				return err
			}
		}
	}
	s.pend = s.pend[:0]
	return nil
}

func (s *edgeVecSink) flushLeaf(ref shuffle.RouteRef, b *chunk.BatchBuilder) error {
	rows := b.Rows()
	if rows == 0 {
		return nil
	}
	c := b.Encode()
	b.Clear()
	return s.w.InsertBatchChunk(ref, c, rows)
}

func (s *edgeVecSink) close() error {
	firstErr := s.route()
	for ref, b := range s.leaves {
		if err := s.flushLeaf(ref, b); err != nil && firstErr == nil {
			firstErr = err
		}
		chunk.PutBatchBuilder(b)
		delete(s.leaves, ref)
	}
	if err := s.w.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
