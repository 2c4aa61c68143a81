package plan

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzJoinTable: for any build multiset, every probe of the flat table
// returns exactly the rows a map of slices holds for the key, in build
// order — for keys present, absent, zero, and keys whose hashes collide in
// the table's index (the fuzzer's bytes choose each key from a pool of
// keys that all land on one slot, or from small and arbitrary values) —
// and the table keeps the caller's rows exactly when no key repeats.
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 7, 1, 7, 2, 7, 0, 3, 1, 9, 1, 7})
	f.Add(binary.LittleEndian.AppendUint64([]byte{3, 0}, 1<<63))
	f.Add([]byte{2, 1, 2, 2, 1, 0, 1, 1, 2, 3, 0, 0, 0, 1})       // every key distinct
	f.Add([]byte{2, 1, 2, 2, 1, 0, 1, 1, 2, 3, 0, 0, 0, 1, 1, 1}) // distinct but the last
	if h := collidingKey(5) * tableHashMul; h>>48 != 0xABCD {
		f.Fatalf("collidingKey(5) hashes to %#x", h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode (selector, value...) pairs into build rows (key, ordinal).
		var rows []tuple
		keys := map[uint64]bool{0: true, 1: true, ^uint64(0): true}
		for len(data) >= 2 {
			var k uint64
			switch sel, v := data[0]%4, data[1]; {
			case sel == 0:
				k = uint64(v) % 4 // small keys, 0 among them, repeated often
			case sel == 1:
				k = collidingKey(uint64(v) % 16)
			case sel == 2:
				k = uint64(v) << 56 // only high bits differ
			case len(data) >= 10:
				k = binary.LittleEndian.Uint64(data[2:10])
				data = data[8:]
			}
			data = data[2:]
			rows = append(rows, tuple{First: k, Second: uint64(len(rows))})
			keys[k] = true
		}
		oracle := make(map[uint64][]tuple)
		for _, r := range rows {
			oracle[r.First] = append(oracle[r.First], r)
			keys[r.First+1] = true // mostly absent neighbours
		}
		table, err := newJoinTable(rows, tupleKey)
		if err != nil {
			t.Fatal(err)
		}
		inPlace := len(rows) > 0 && &table.rows[0] == &rows[0]
		if distinct := len(rows) > 0 && len(oracle) == len(rows); inPlace != distinct {
			t.Fatalf("%d build rows over %d keys: table built in place is %v", len(rows), len(oracle), inPlace)
		}
		for k := range keys {
			if got, want := fmt.Sprint(table.lookup(k)), fmt.Sprint(oracle[k]); got != want {
				t.Fatalf("%d build rows: lookup(%d) = %s, want %s", len(rows), k, got, want)
			}
		}
	})
}

// collidingKey returns the i-th of a family of keys whose multiplicative
// hashes agree in their top 16 bits: in any table of up to 2^16 slots they
// all start probing at one slot.
func collidingKey(i uint64) uint64 {
	const inverse = 0xF1DE83E19937733D // of tableHashMul, mod 2^64
	return (0xABCD<<48 | i) * inverse
}

// TestJoinTableBuildsInPlace: a build side whose keys are all distinct is
// its own table — the rows stay in the caller's backing array, and the
// build allocates only the table and its slot index. A single repeated
// key, even in the last row, or keys that all repeat, take the two-pass
// layout, a copy whose runs read in build order.
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
	if &table.rows[0] != &unique[0] || len(table.rows) != n {
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

	lastRepeats := append(slices.Clone(unique[:n-1]), tuple{First: unique[n/2].First, Second: n - 1})
	everyRepeats := make([]tuple, n)
	for i := range everyRepeats {
		everyRepeats[i] = tuple{First: uint64(i % (n / 4)), Second: uint64(i)}
	}
	for name, rows := range map[string][]tuple{"last row repeats": lastRepeats, "every key repeats": everyRepeats} {
		table, err := newJoinTable(rows, tupleKey)
		if err != nil {
			t.Fatal(err)
		}
		if &table.rows[0] == &rows[0] {
			t.Fatalf("%s: the table was built in place", name)
		}
		oracle := make(map[uint64][]tuple)
		for _, r := range rows {
			oracle[r.First] = append(oracle[r.First], r)
		}
		for k, want := range oracle {
			if got := table.lookup(k); !slices.Equal(got, want) {
				t.Fatalf("%s: lookup(%d) = %v, want %v in build order", name, k, got, want)
			}
		}
	}
}
