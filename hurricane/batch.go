package hurricane

import (
	"repro/internal/bag"
	"repro/internal/chunk"
)

// Vectorized task bodies. ForEachBatch is the batch counterpart of ForEach:
// a task that consumes whole value vectors pays the per-record dispatch once
// per chunk. Reads of either kind go through one chunk.Decoder per call, as
// writes of either kind go through one chunk.Encoder per stream (NewWriter,
// PartitionedWriter), and every chunk is a batch — so batch tasks and
// record-at-a-time tasks interoperate on the same bags.

// ForEachBatch drains input i of the task, invoking fn with successive
// value batches, one per non-empty chunk. The slice is reused between
// calls — fn must not retain it. This is the one read loop of the task
// API: ForEach is ForEachBatch with an inner loop over the same
// chunk.Decoder's vectors.
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
