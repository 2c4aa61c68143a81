package shuffle

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodePartitionMap: partition-map records come back from an edge's
// control bag to a recovering master and from its home slot to every
// producer, and a corrupt one may cost a refinement, never the process. The
// decoder must never panic; a map it accepts must survive an encode/decode
// round trip; every key, with any ordinal, must route to one of the map's
// leaves — keys whose hash picks an isolation or a split partition too; and
// the map must not make its reader allocate more than its bytes justify:
// decoding allocates in proportion to the input, and the map lists at most
// maxLeaves bags whatever counts it claims.
func FuzzDecodePartitionMap(f *testing.F) {
	refined := BaseMap("gb.shuf", 4)
	refined.Version = 3
	refined.Splits = map[int]int{1: 3, 7: 2}
	refined.Isolated = []Isolation{{Hash: KeyHash(key(5)), Fan: 3, Key: key(5)}, {Hash: 9, Fan: 1}}
	f.Add(BaseMap("e", 1).Encode())
	f.Add(refined.Encode())
	f.Add([]byte(`{"version":2,"bag":"e","base":4,"splits":{"-1":4,"0":-3},"isolated":[{"hash":1,"fan":-2},{"hash":1,"fan":3}]}`))
	f.Add([]byte(`{"version":2,"bag":"e","base":1000000000}`))
	f.Add([]byte(`{"version":2,"bag":"e","base":3,"splits":{"0":1000000000}}`))
	f.Add([]byte(`{"version":2,"bag":"e","base":9223372036854775807,"isolated":[{"hash":0,"fan":9223372036854775807}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		pm, err := DecodePartitionMap(data)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := pm.Encode()
		again, err := DecodePartitionMap(enc)
		if err != nil {
			t.Fatalf("re-encoded map does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("round trip changed the map: %s -> %s", enc, again.Encode())
		}
		leaves := pm.Leaves()
		if len(leaves) > maxLeaves {
			t.Fatalf("a %d-byte record decoded to a map of %d leaves", len(data), len(leaves))
		}
		in := make(map[string]bool, len(leaves))
		for _, l := range leaves {
			in[l] = true
		}
		hashes := []uint64{0, math.MaxUint64, KeyHash(data)}
		for _, iso := range pm.Isolated {
			hashes = append(hashes, iso.Hash)
		}
		for p := range pm.Splits {
			hashes = append(hashes, uint64(p)) // partition p, where p < Base
		}
		for _, h := range hashes {
			for _, rr := range []int{0, 1, -1, len(data), math.MaxInt, math.MinInt} {
				if leaf := pm.RefName(pm.routeRefHashed(data, h, rr)); !in[leaf] {
					t.Fatalf("hash %#x, ordinal %d routes to %s, not a leaf of %s", h, rr, leaf, enc)
				}
			}
		}
	})
}
