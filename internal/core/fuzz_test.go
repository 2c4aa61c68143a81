package core

import (
	"testing"

	"repro/internal/sketch"
)

// FuzzDecodeEvent: the master decodes every done record it replays from the
// done bag, whatever bytes are there, and merges the edge statistics of the
// ones it accepts into the edge's record when the edge seals
// (edgeTelLocked). Decoding must never panic, and the statistics of an
// accepted record must merge without error — a decoded record carries no
// count-min cells, the one part of a merge that can fail — and total and
// rank their heavy keys as /debug/skew does.
func FuzzDecodeEvent(f *testing.F) {
	done := &event{TaskID: "route/w0@e0", Spec: "route", Node: "compute-0", OK: true,
		Edges: map[string]*sketch.EdgeStats{"shuf": {
			Counts: map[string]uint64{"shuf.p0": 100, "shuf.p1": 10},
			Heavy:  []sketch.HeavyKey{{Key: []byte("k"), Count: 110}},
		}}}
	blob := done.encode()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"ok":true,"edges":{"shuf":null,"":{}}}`))
	f.Add([]byte(`{"ok":true,"edges":{"shuf":{"counts":{"shuf.p0":18446744073709551615,"shuf.p1":1}}}}`))
	f.Add([]byte(`{"ok":true,"edges":{"shuf":{"heavy":[{"key":null,"count":0},{"key":"","count":7},{"key":"AA==","count":7}]}}}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEvent(data)
		if err != nil {
			return
		}
		merged := &sketch.EdgeStats{}
		for edge, st := range e.Edges {
			if st == nil {
				continue // edgeTelLocked skips a producer without stats for the edge
			}
			for range 2 { // a second producer with the same stats
				if err := merged.Merge(st); err != nil {
					t.Fatalf("edge %q: decoded stats do not merge: %v", edge, err)
				}
			}
		}
		if merged.CM != nil {
			t.Fatal("a decoded record carried count-min cells")
		}
		merged.TopKeys(sketch.MaxHeavyKeys, 0)
	})
}
