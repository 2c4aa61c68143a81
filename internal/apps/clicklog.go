// Package apps implements the paper's three evaluation applications on the
// Hurricane public API: ClickLog (§2.1, §5.1), HashJoin (§5.3), and
// PageRank (§5.3). The examples and the real-engine benchmarks run these.
package apps

import (
	"context"
	"fmt"

	"repro/hurricane"
	"repro/internal/workload"
)

// ClickLogBagIn is the source bag holding the click log.
const ClickLogBagIn = "clicklog"

// RegionBag names the per-region bag produced by Phase 1.
func RegionBag(r int) string { return "region." + workload.RegionName(r) }

// DistinctBag names the per-region distinct-set bag produced by Phase 2.
func DistinctBag(r int) string { return "distinct." + workload.RegionName(r) }

// CountBag names the per-region count bag produced by Phase 3.
func CountBag(r int) string { return "count." + workload.RegionName(r) }

// ClickLogApp builds the three-phase ClickLog application from the paper's
// Figure 1/3: Phase 1 maps the click log into per-region bags (no merge
// needed — concatenation suffices), Phase 2 computes each region's set of
// distinct IPs as a bitset (merge: bitwise OR), and Phase 3 counts the set
// bits (merge: sum).
//
// hostBits bounds the per-region IP space: Phase 2 bitsets cover host IDs
// in [0, 2^hostBits). Workloads generated by workload.ClickLogGen with
// UniquePerRegion ≤ 2^hostBits fit.
func ClickLogApp(regions, hostBits int, noClone bool) *hurricane.App {
	app := hurricane.NewApp("clicklog")
	app.SourceBag(ClickLogBagIn)

	phase1Outputs := make([]string, regions)
	for r := 0; r < regions; r++ {
		app.Bag(RegionBag(r)).Bag(DistinctBag(r)).Bag(CountBag(r))
		phase1Outputs[r] = RegionBag(r)
	}

	// Phase 1: geolocate each click and bucket it by region.
	app.AddTask(hurricane.TaskSpec{
		Name:    "phase1",
		Inputs:  []string{ClickLogBagIn},
		Outputs: phase1Outputs,
		NoClone: noClone,
		Run: func(tc *hurricane.TaskCtx) error {
			ws := make([]*hurricane.Writer[uint64], regions)
			for r := range ws {
				ws[r] = hurricane.NewWriter(tc, r, hurricane.Uint64Of)
			}
			return hurricane.ForEach(tc, 0, hurricane.Uint64Of, func(ip uint64) error {
				r := workload.Geolocate(uint32(ip))
				if r >= regions {
					return fmt.Errorf("clicklog: ip %#x outside %d regions", ip, regions)
				}
				return ws[r].Write(ip)
			})
		},
	})

	// Phases 2 and 3, one task pair per region.
	for r := 0; r < regions; r++ {
		r := r
		app.AddTask(hurricane.TaskSpec{
			Name:    "phase2." + workload.RegionName(r),
			Inputs:  []string{RegionBag(r)},
			Outputs: []string{DistinctBag(r)},
			Merge:   hurricane.MergeBitsetOr(),
			NoClone: noClone,
			Run: func(tc *hurricane.TaskCtx) error {
				var distinct bitset
				if err := hurricane.ForEach(tc, 0, hurricane.Uint64Of, func(ip uint64) error {
					distinct.set(hostID(uint32(ip), hostBits))
					return nil
				}); err != nil {
					return err
				}
				return hurricane.NewWriter(tc, 0, hurricane.BytesOf).Write(distinct.bytes())
			},
		})
		app.AddTask(hurricane.TaskSpec{
			Name:    "phase3." + workload.RegionName(r),
			Inputs:  []string{DistinctBag(r)},
			Outputs: []string{CountBag(r)},
			Merge:   hurricane.MergeSum(),
			NoClone: noClone,
			Run: func(tc *hurricane.TaskCtx) error {
				var count int64
				if err := hurricane.ForEach(tc, 0, hurricane.BytesOf, func(b []byte) error {
					count += popcount(b)
					return nil
				}); err != nil {
					return err
				}
				return hurricane.NewWriter(tc, 0, hurricane.Int64Of).Write(count)
			},
		})
	}
	return app
}

// hostID extracts the within-region host identifier from an IP.
func hostID(ip uint32, hostBits int) int {
	return int(ip & (uint32(1)<<hostBits - 1))
}

// LoadClickLog loads and seals the click log into bagName: ClickLogBagIn
// for a raw job, the job's name for it (JobHandle.Bag) otherwise.
func LoadClickLog(ctx context.Context, store *hurricane.Store, bagName string, ips []uint32) error {
	vals := make([]uint64, len(ips))
	for i, ip := range ips {
		vals[i] = uint64(ip)
	}
	if err := hurricane.Load(ctx, store, bagName, hurricane.Uint64Of, vals); err != nil {
		return err
	}
	return hurricane.Seal(ctx, store, bagName)
}

// ClickLogCounts reads back the per-region distinct counts after a run.
// bag maps each declared count bag to the name the job stored it under:
// JobHandle.Bag, or the identity for a raw job.
func ClickLogCounts(ctx context.Context, store *hurricane.Store, bag func(string) string, regions int) ([]int64, error) {
	out := make([]int64, regions)
	for r := 0; r < regions; r++ {
		vals, err := hurricane.Collect(ctx, store, bag(CountBag(r)), hurricane.Int64Of)
		if err != nil {
			return nil, err
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		out[r] = sum
	}
	return out, nil
}

// bitset is a growable bitmap (the paper's Phase 2 data structure).
type bitset struct {
	words []uint64
}

func (b *bitset) set(i int) {
	w := i >> 6
	if w >= len(b.words) {
		grown := make([]uint64, w+1)
		copy(grown, b.words)
		b.words = grown
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

func (b *bitset) bytes() []byte {
	out := make([]byte, 8*len(b.words))
	for i, w := range b.words {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out
}

func popcount(b []byte) int64 {
	var n int64
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}
