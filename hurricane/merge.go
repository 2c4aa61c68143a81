package hurricane

// This file is the merge library (§2.3: "Hurricane provides a library of
// typical merge operations"): the merges the ClickLog and SquareSum apps
// use. A merge procedure is an ordinary TaskFunc whose inputs are the
// clones' partial-output bags and whose single output is the task's
// declared output. Unlike shuffle-and-sort, a merge can reconcile results
// that are not commutative-associative (unique counts, medians, sorted
// output) because each partial is a separately readable bag; a task
// supplies such a merge as its own TaskFunc.

// MergeSum returns a merge that sums one int64 record per partial into a
// single int64 record (the ClickLog Phase 3 merge: output.insert(partial1
// + partial2)).
func MergeSum() TaskFunc {
	return func(tc *TaskCtx) error {
		var total int64
		for i := 0; i < tc.NumInputs(); i++ {
			if err := ForEach(tc, i, Int64Of, func(v int64) error {
				total += v
				return nil
			}); err != nil {
				return err
			}
		}
		return NewWriter(tc, 0, Int64Of).Write(total)
	}
}

// MergeBitsetOr returns a merge that ORs bitset records together (the
// ClickLog Phase 2 merge: output.insert(partial1 | partial2)). Each
// partial may contain any number of bitset records; the result is a single
// record of the maximum length.
func MergeBitsetOr() TaskFunc {
	return func(tc *TaskCtx) error {
		var acc []byte
		for i := 0; i < tc.NumInputs(); i++ {
			if err := ForEach(tc, i, BytesOf, func(b []byte) error {
				if len(b) > len(acc) {
					grown := make([]byte, len(b))
					copy(grown, acc)
					acc = grown
				}
				for j := range b {
					acc[j] |= b[j]
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return NewWriter(tc, 0, BytesOf).Write(acc)
	}
}
