package apps

import (
	"context"
	"io"
	"time"

	"repro/hurricane"
	"repro/internal/workload"
)

// ClickStreamSource adapts a workload.ClickLogGen into a stream of
// GroupByApp window input: each click is the GroupByIn tuple (region, IP),
// its IP geolocated at the source, so a window counts clicks and estimates
// distinct IPs per region. Its StreamSource is
// hurricane.StreamSourceOf(TupleCodec, s.Poll). Synthetic event times
// advance exactly one window of width time.Second per PerWindow records
// from Origin, so window w of the stream sees records [w*PerWindow,
// (w+1)*PerWindow) of the generated log. Shared by the stream benchmark,
// hurricane-run -stream, and the streaming example, which must agree on the
// event-time formula to share ClickStreamWindows as their oracle input.
type ClickStreamSource struct {
	// Gen configures the click log (skew, regions, drift).
	Gen workload.ClickLogGen
	// Origin is the stream's event-time origin.
	Origin int64
	// PerWindow is how many records share one event-time window.
	PerWindow int
	// Total caps the stream; Poll returns io.EOF afterwards.
	Total int
	// Batch is records per poll (default 1024).
	Batch int

	it *workload.ClickIter
	i  int
}

// Poll returns the next Batch clicks, or io.EOF after Total.
func (s *ClickStreamSource) Poll(ctx context.Context) ([]hurricane.StreamRecord[joinPair], error) {
	if s.i >= s.Total {
		return nil, io.EOF
	}
	if s.it == nil {
		s.it = s.Gen.Iter()
	}
	n := s.Batch
	if n <= 0 {
		n = 1024
	}
	if rem := s.Total - s.i; rem < n {
		n = rem
	}
	recs := make([]hurricane.StreamRecord[joinPair], n)
	for k := range recs {
		w, off := s.i/s.PerWindow, s.i%s.PerWindow
		recs[k] = hurricane.StreamRecord[joinPair]{
			Time: s.Origin + int64(w)*int64(time.Second) +
				int64(off)*int64(time.Second)/int64(s.PerWindow+1),
			Value: clickTuple(s.it.Next()),
		}
		s.i++
	}
	return recs, nil
}

// clickTuple is the groupby tuple of one click: (region, IP).
func clickTuple(ip uint32) joinPair {
	return joinPair{First: uint64(workload.Geolocate(ip)), Second: uint64(ip)}
}

// ClickStreamWindows regenerates the click log a ClickStreamSource streams
// and returns each window's tuples, the ones the source emits for it: the
// input of every stream's per-window oracle.
func ClickStreamWindows(gen workload.ClickLogGen, windows, perWindow int) [][]workload.Tuple {
	ips := gen.Generate(windows * perWindow)
	out := make([][]workload.Tuple, windows)
	for w := range out {
		out[w] = make([]workload.Tuple, perWindow)
		for i, ip := range ips[w*perWindow : (w+1)*perWindow] {
			t := clickTuple(ip)
			out[w][i] = workload.Tuple{Key: t.First, Payload: t.Second}
		}
	}
	return out
}
