package storage

import (
	"reflect"
	"testing"

	"repro/internal/sketch"
	"repro/internal/transport"
)

// FuzzSketchFetch: a producer's stats blob is stored unvalidated and only
// decoded when the master fetches, so the fetch path meets whatever bytes a
// producer sent. Whatever they are, the fetch must answer — never panic,
// never fail — with the honest producer's stats merged in; a blob that does
// decode must survive an encode/decode round trip and be merged, not lost.
func FuzzSketchFetch(f *testing.F) {
	good := sketch.NewEdgeStats()
	good.Counts["e.p0"], good.Counts["e.p1"] = 100, 10
	good.CM.Add([]byte("k"), 110)
	good.Heavy = []sketch.HeavyKey{{Key: []byte("k"), Count: 110}}
	goodBlob := good.AppendTo(nil)

	f.Add(goodBlob)
	f.Add(goodBlob[:len(goodBlob)/2])
	f.Add(sketch.NewEdgeStats().AppendTo(nil)[:3])
	f.Add([]byte("{"))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x01, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 2})
	f.Fuzz(func(t *testing.T, blob []byte) {
		n := NewNode("s0")
		for writer, data := range map[string][]byte{"honest": goodBlob, "fuzzed": blob} {
			if resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "e", Dst: writer, Data: data}); !resp.OK() {
				t.Fatalf("push %s: %+v", writer, resp)
			}
		}
		resp := n.Handle(&transport.Request{Op: transport.OpSketch, Bag: "e"})
		if !resp.OK() {
			t.Fatalf("fetch failed: %+v", resp)
		}
		merged, err := sketch.DecodeEdgeStats(resp.Data)
		if err != nil {
			t.Fatalf("fetch returned an undecodable merge: %v", err)
		}
		st, err := sketch.DecodeEdgeStats(blob)
		if err != nil || len(blob) == 0 {
			// Skipped (an empty payload is not a push at all).
			if !reflect.DeepEqual(merged.Counts, good.Counts) {
				t.Fatalf("corrupt blob changed the merge: %v", merged.Counts)
			}
			return
		}
		again, err := sketch.DecodeEdgeStats(st.AppendTo(nil))
		if err != nil || !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed the stats (%v): %+v -> %+v", err, st, again)
		}
		want := sketch.NewEdgeStats()
		if st.CM == nil || want.CM.Merge(st.CM) == nil {
			// Mergeable with the honest producer's: both must be in.
			for name, c := range good.Counts {
				if got := merged.Counts[name]; got != c+st.Counts[name] {
					t.Fatalf("count %s = %d, want %d + %d", name, got, c, st.Counts[name])
				}
			}
		} else if !reflect.DeepEqual(merged.Counts, good.Counts) {
			t.Fatalf("blob with foreign sketch dimensions left counts behind: %v", merged.Counts)
		}
	})
}
