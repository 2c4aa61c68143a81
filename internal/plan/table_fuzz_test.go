package plan

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzJoinTable: for any build multiset, every probe of the table returns
// exactly the rows a map of slices holds for the key, in build order — for
// keys present, absent, zero, just below the least key and just above the
// greatest (wrapping at the ends of the key space), far enough below the
// least key to wrap a dense table's index, and keys whose hashes collide
// in the hashed index. The fuzzer's bytes choose each key from small
// values, a pool of keys that all land on one hashed slot, keys whose high
// bits alone differ, arbitrary values, byte-sized ids, keys just below
// 2^64, and the row's ordinal times a stride of 1 to 4. The layout is
// fixed by the keys: dense exactly when no key repeats and they span
// fewer than twice as many values as there are rows; otherwise the
// caller's rows in place exactly when no key repeats.
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 7, 1, 7, 2, 7, 0, 3, 1, 9, 1, 7})
	f.Add(binary.LittleEndian.AppendUint64([]byte{3, 0}, 1<<63))
	f.Add([]byte{2, 1, 2, 2, 1, 0, 1, 1, 2, 3, 0, 0, 0, 1})       // every key distinct
	f.Add([]byte{2, 1, 2, 2, 1, 0, 1, 1, 2, 3, 0, 0, 0, 1, 1, 1}) // distinct but the last
	f.Add([]byte{4, 10, 4, 13, 4, 11, 4, 12})                     // dense: 10..13
	f.Add([]byte{4, 10, 4, 12, 4, 14, 4, 17})                     // dense with gaps: span 7 of 8
	f.Add([]byte{4, 10, 4, 11, 4, 12, 4, 10})                     // dense span, one repeat in the last row
	f.Add([]byte{6, 2, 6, 2, 6, 2, 6, 2})                         // strided: 0, 3, 6, 9
	f.Add([]byte{6, 1, 6, 1, 6, 1, 6, 1})                         // stride 2: 0, 2, 4, 6, dense
	f.Add([]byte{5, 0, 5, 2, 5, 1, 5, 4})                         // dense just below 2^64
	f.Add([]byte{5, 0, 4, 0})                                     // ^0 and 0: the widest span
	f.Add([]byte{5, 1, 4, 0, 5, 0})                               // ^0-1, 0, ^0: close only past 2^64
	if h := collidingKey(5) * tableHashMul; h>>48 != 0xABCD {
		f.Fatalf("collidingKey(5) hashes to %#x", h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode (selector, value...) pairs into build rows (key, ordinal).
		var rows []tuple
		keys := map[uint64]bool{0: true, 1: true, ^uint64(0): true}
		for len(data) >= 2 {
			var k uint64
			switch sel, v := data[0]%8, data[1]; {
			case sel == 0:
				k = uint64(v) % 4 // small keys, 0 among them, repeated often
			case sel == 1:
				k = collidingKey(uint64(v) % 16)
			case sel == 2:
				k = uint64(v) << 56 // only high bits differ
			case sel == 4:
				k = uint64(v) // byte-sized ids: dense, with gaps, or repeated
			case sel == 5:
				k = ^uint64(v) // just below 2^64
			case sel == 6:
				k = uint64(len(rows)) * (uint64(v)%4 + 1) // the ordinal, strided
			case len(data) >= 10:
				k = binary.LittleEndian.Uint64(data[2:10])
				data = data[8:]
			}
			data = data[2:]
			rows = append(rows, tuple{First: k, Second: uint64(len(rows))})
			keys[k] = true
		}
		oracle := make(map[uint64][]tuple)
		lo, hi := ^uint64(0), uint64(0)
		for _, r := range rows {
			oracle[r.First] = append(oracle[r.First], r)
			keys[r.First+1] = true // mostly absent neighbours
			keys[r.First-1] = true
			lo, hi = min(lo, r.First), max(hi, r.First)
		}
		keys[lo-1], keys[hi+1], keys[lo-1<<63] = true, true, true
		table, err := newJoinTable(rows, tupleKey)
		if err != nil {
			t.Fatal(err)
		}
		unique := len(rows) > 0 && len(oracle) == len(rows)
		dense := unique && hi-lo < 2*uint64(len(rows))
		if got := table.present != nil; got != dense {
			t.Fatalf("%d build rows over %d keys spanning %d: table dense is %v", len(rows), len(oracle), hi-lo, got)
		}
		if dense && (table.base != lo || uint64(len(table.rows)) != hi-lo+1) {
			t.Fatalf("dense table of keys %d..%d: base %d, %d rows", lo, hi, table.base, len(table.rows))
		}
		inPlace := len(rows) > 0 && &table.rows[0] == &rows[0]
		if inPlace != (unique && !dense) {
			t.Fatalf("%d build rows over %d keys spanning %d: table built in place is %v", len(rows), len(oracle), hi-lo, inPlace)
		}
		for k := range keys {
			if got, want := fmt.Sprint(probeTable(table, k)), fmt.Sprint(oracle[k]); got != want {
				t.Fatalf("%d build rows: probe(%d) = %s, want %s", len(rows), k, got, want)
			}
		}
	})
}

// probeTable returns the build records of key as the join kernel finds
// them in t, whichever its layout.
func probeTable(t *joinTable[tuple], key uint64) []tuple {
	if t.present == nil {
		return t.lookup(key)
	}
	if i, ok := t.at(key); ok {
		return t.rows[i : i+1]
	}
	return nil
}

// collidingKey returns the i-th of a family of keys whose multiplicative
// hashes agree in their top 16 bits: in any table of up to 2^16 slots they
// all start probing at one slot.
func collidingKey(i uint64) uint64 {
	const inverse = 0xF1DE83E19937733D // of tableHashMul, mod 2^64
	return (0xABCD<<48 | i) * inverse
}

// TestJoinTableBuildsInPlace: a build side whose keys are all distinct
// and sparse is its own table — the rows stay in the caller's backing
// array, and the build allocates only the table and its slot index. Keys
// all distinct and dense take a key-ordered copy behind a bitmap: the
// table, the bitmap and the copy. A single repeated key, even in the last
// row, or keys that all repeat, take the two-pass layout, a copy whose
// runs read in build order; when their keys span a dense range, the
// bitmap that found the repeat is all the dense attempt allocated.
func TestJoinTableBuildsInPlace(t *testing.T) {
	const n = 1000
	unique := make([]tuple, n)
	for i := range unique {
		k := uint64(i)<<40 | uint64(i) // key 0 among them
		if i < 16 {
			k = collidingKey(uint64(i))
		}
		unique[i] = tuple{First: k, Second: uint64(i)}
	}
	table, err := newJoinTable(unique, tupleKey)
	if err != nil {
		t.Fatal(err)
	}
	if table.present != nil || &table.rows[0] != &unique[0] || len(table.rows) != n {
		t.Fatalf("unique keys: the table holds %d rows apart from the build vector", len(table.rows))
	}
	for _, r := range unique {
		if got := table.lookup(r.First); len(got) != 1 || got[0] != r {
			t.Fatalf("unique keys: lookup(%d) = %v, want [%v]", r.First, got, r)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = newJoinTable(unique, tupleKey) }); allocs != 2 {
		t.Errorf("unique keys: %v allocations per build, want 2 (the table and its slot index)", allocs)
	}

	// Keys 5 + ⌊3m/2⌋ for m < n, out of order: distinct, and spanning 3n/2.
	dense := make([]tuple, n)
	for i := range dense {
		k := uint64(i*7%n) * 3 / 2
		dense[i] = tuple{First: 5 + k, Second: uint64(i)}
	}
	table, err = newJoinTable(dense, tupleKey)
	if err != nil {
		t.Fatal(err)
	}
	if table.present == nil || &table.rows[0] == &dense[0] || table.base != 5 || len(table.rows) != (n-1)*3/2+1 {
		t.Fatalf("dense keys: base %d, %d rows, want a copy of %d rows from 5", table.base, len(table.rows), (n-1)*3/2+1)
	}
	for _, r := range dense {
		if got := probeTable(table, r.First); len(got) != 1 || got[0] != r {
			t.Fatalf("dense keys: probe(%d) = %v, want [%v]", r.First, got, r)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = newJoinTable(dense, tupleKey) }); allocs != 3 {
		t.Errorf("dense keys: %v allocations per build, want 3 (the table, its bitmap and its rows)", allocs)
	}

	lastRepeats := append(slices.Clone(unique[:n-1]), tuple{First: unique[n/2].First, Second: n - 1})
	denseLastRepeats := append(slices.Clone(dense[:n-1]), tuple{First: dense[n/2].First, Second: n - 1})
	everyRepeats := make([]tuple, n)
	for i := range everyRepeats {
		everyRepeats[i] = tuple{First: uint64(i % (n / 4)), Second: uint64(i)}
	}
	for _, tc := range []struct {
		name   string
		rows   []tuple
		allocs float64 // the bitmap if the keys span a dense range, the table, its slots and its rows
	}{
		{"last row repeats", lastRepeats, 3},
		{"dense, last row repeats", denseLastRepeats, 4},
		{"every key repeats", everyRepeats, 4},
	} {
		table, err := newJoinTable(tc.rows, tupleKey)
		if err != nil {
			t.Fatal(err)
		}
		if table.present != nil || &table.rows[0] == &tc.rows[0] {
			t.Fatalf("%s: the table was built dense (%v) or in place", tc.name, table.present != nil)
		}
		oracle := make(map[uint64][]tuple)
		for _, r := range tc.rows {
			oracle[r.First] = append(oracle[r.First], r)
		}
		for k, want := range oracle {
			if got := table.lookup(k); !slices.Equal(got, want) {
				t.Fatalf("%s: lookup(%d) = %v, want %v in build order", tc.name, k, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = newJoinTable(tc.rows, tupleKey) }); allocs != tc.allocs {
			t.Errorf("%s: %v allocations per build, want %v", tc.name, allocs, tc.allocs)
		}
	}
}
