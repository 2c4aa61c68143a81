package plan

// Vectorized stage execution. Every compiled stage runs one batch loop
// (runStage): input chunks of either layout decode into a record vector
// through the worker's own decoder, the fused prefix of narrow operators
// applies over whole vectors (Filter as a selection pass that compacts
// the vector in place, Map as an in-place column transform), and the
// stage tail — per-record operators like FlatMap/Join/GroupBy/TopK, then
// the sink (openSink) — consumes the surviving vector.

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
