package apps

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/hurricane"
	"repro/internal/workload"
)

// ClickStream bag names — the per-window DAG of the continuous-ingestion
// benchmark and the hurricane-run -stream mode.
const (
	ClickStreamIn   = "clicks"  // source: raw click IPs (uint64 records)
	ClickStreamShuf = "cs.shuf" // partitioned shuffle edge keyed by region
	ClickStreamOut  = "cs.out"  // per-region partial aggregates
)

// csOutCodec encodes (region, (count, encoded-HLL)) partial aggregates.
var csOutCodec = hurricane.PairOf(hurricane.Uint64Of,
	hurricane.PairOf(hurricane.Int64Of, hurricane.BytesOf))

// ClickStreamApp builds the window DAG the streaming subsystem executes
// once per tumbling window: geolocate raw click IPs and route them onto a
// region-keyed partitioned shuffle edge, then aggregate per-region click
// counts and distinct-IP HLL sketches per physical partition. With a
// zipf click distribution one region dominates, so the window's hot
// partition is exactly what cross-window skew memory should pre-isolate in
// the next window.
//
// recordCostNS simulates per-record aggregation cost (see GroupByApp); it
// makes window latency track how evenly records spread across consumer
// slots, which is what warm-started partition maps improve.
func ClickStreamApp(parts int, spread bool, recordCostNS int) *hurricane.App {
	app := hurricane.NewApp("clickstream")
	app.SourceBag(ClickStreamIn)
	app.AddBag(hurricane.BagSpec{Name: ClickStreamShuf, Partitions: parts, Spread: spread})
	app.Bag(ClickStreamOut)

	app.AddTask(hurricane.TaskSpec{
		Name:    "route",
		Inputs:  []string{ClickStreamIn},
		Outputs: []string{ClickStreamShuf},
		Run: func(tc *hurricane.TaskCtx) error {
			pw := hurricane.NewPartitionedWriter(tc, 0, tupleCodec,
				hurricane.Uint64Key(func(t joinPair) uint64 { return t.First }))
			return hurricane.ForEach(tc, 0, hurricane.Uint64Of, func(ip uint64) error {
				region := uint64(workload.Geolocate(uint32(ip)))
				return pw.Write(joinPair{First: region, Second: ip})
			})
		},
	})

	app.AddTask(hurricane.TaskSpec{
		Name:    "aggregate",
		Inputs:  []string{ClickStreamShuf},
		Outputs: []string{ClickStreamOut},
		Run: func(tc *hurricane.TaskCtx) error {
			type agg struct {
				n   int64
				hll *hurricane.HLL
			}
			groups := make(map[uint64]*agg)
			var pbuf [8]byte
			var owedNS int64
			if err := hurricane.ForEach(tc, 0, tupleCodec, func(t joinPair) error {
				a := groups[t.First]
				if a == nil {
					a = &agg{hll: hurricane.NewHLL(10)}
					groups[t.First] = a
				}
				a.n++
				for i := 0; i < 8; i++ {
					pbuf[i] = byte(t.Second >> (8 * i))
				}
				a.hll.Add(pbuf[:])
				if recordCostNS > 0 {
					owedNS += int64(recordCostNS)
					if owedNS >= 500_000 {
						time.Sleep(time.Duration(owedNS))
						owedNS = 0
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if owedNS > 0 {
				time.Sleep(time.Duration(owedNS))
			}
			w := hurricane.NewWriter(tc, 0, csOutCodec)
			for region, a := range groups {
				rec := hurricane.Pair[uint64, hurricane.Pair[int64, []byte]]{
					First:  region,
					Second: hurricane.Pair[int64, []byte]{First: a.n, Second: a.hll.Encode()},
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			return nil
		},
	})
	return app
}

// ClickStreamSource adapts a workload.ClickLogGen into a StreamSource:
// encoded click IPs whose synthetic event times advance exactly one
// window of width time.Second per PerWindow records from Origin, so
// window w of the stream sees records [w*PerWindow, (w+1)*PerWindow) of
// the generated log. Shared by the stream benchmark, hurricane-run
// -stream, and the streaming example, which must agree on the event-time
// formula to share ClickStreamTruth as their oracle.
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

// Poll implements the stream Source interface.
func (s *ClickStreamSource) Poll(ctx context.Context) ([]hurricane.StreamRecord, error) {
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
	recs := make([]hurricane.StreamRecord, n)
	for k := range recs {
		w, off := s.i/s.PerWindow, s.i%s.PerWindow
		recs[k] = hurricane.StreamRecord{
			Time: s.Origin + int64(w)*int64(time.Second) +
				int64(off)*int64(time.Second)/int64(s.PerWindow+1),
			Data: hurricane.Uint64Of.Encode(nil, uint64(s.it.Next())),
		}
		s.i++
	}
	return recs, nil
}

// ClickStreamTruth regenerates the same click log a ClickStreamSource
// streams and returns the ground-truth per-region click counts of each
// window — the oracle every driver verifies window results against.
func ClickStreamTruth(gen workload.ClickLogGen, windows, perWindow int) []map[uint64]int64 {
	ips := gen.Generate(windows * perWindow)
	truth := make([]map[uint64]int64, windows)
	for w := range truth {
		truth[w] = make(map[uint64]int64)
		for _, ip := range ips[w*perWindow : (w+1)*perWindow] {
			truth[w][uint64(workload.Geolocate(ip))]++
		}
	}
	return truth
}

// ClickStreamResult is the final per-region aggregate of one window.
type ClickStreamResult struct {
	Count    int64
	Distinct float64
}

// CollectClickStream reads one window's partial aggregates from an
// explicit (window-namespaced) output bag and merges them per region.
func CollectClickStream(ctx context.Context, store *hurricane.Store, bagName string) (map[uint64]ClickStreamResult, error) {
	recs, err := hurricane.Collect(ctx, store, bagName, csOutCodec)
	if err != nil {
		return nil, err
	}
	counts := make(map[uint64]int64)
	hlls := make(map[uint64]*hurricane.HLL)
	for _, r := range recs {
		counts[r.First] += r.Second.First
		h, err := hurricane.DecodeHLL(r.Second.Second)
		if err != nil {
			return nil, fmt.Errorf("apps: clickstream partial for region %d: %w", r.First, err)
		}
		if prev := hlls[r.First]; prev == nil {
			hlls[r.First] = h
		} else if err := prev.Merge(h); err != nil {
			return nil, err
		}
	}
	out := make(map[uint64]ClickStreamResult, len(counts))
	for region, n := range counts {
		out[region] = ClickStreamResult{Count: n, Distinct: hlls[region].Estimate()}
	}
	return out, nil
}
