package plan

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzJoinTable: for any build multiset, every probe of the flat table
// returns exactly the rows a map of slices holds for the key, in build
// order — for keys present, absent, zero, and keys whose hashes collide in
// the table's index (the fuzzer's bytes choose each key from a pool of
// keys that all land on one slot, or from small and arbitrary values).
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 7, 1, 7, 2, 7, 0, 3, 1, 9, 1, 7})
	f.Add(binary.LittleEndian.AppendUint64([]byte{3, 0}, 1<<63))
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
