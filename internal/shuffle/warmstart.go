package shuffle

import "repro/internal/sketch"

// The warm-start defaults the planner (plan.Options) and stream windows seed
// under: a key is pre-isolated once its share of the stream reaches
// DefaultIsolateFraction of a mean partition's load, and spread over
// DefaultFan bags on a Spread edge.
const (
	DefaultIsolateFraction = 0.5
	DefaultFan             = 4
)

// WarmStart derives a seed partition map for a fresh shuffle edge from a
// predecessor edge's final map and merged producer statistics — the
// cross-window skew memory of the streaming subsystem (internal/stream).
// Each micro-batch window runs as its own job with its own edges, so
// without seeding every window would rediscover the same hot partitions
// and heavy-hitter keys from scratch; short windows often finish before
// detection even triggers. WarmStart transplants what the finished window
// learned:
//
//   - the predecessor's splits and isolations carry over verbatim (routing
//     is by key hash, which is stable across windows);
//   - heavy-hitter keys from the merged sketch that were not yet isolated
//     are pre-isolated when their observed share of the stream exceeds
//     isolateFraction of a mean partition's load.
//
// prev may be nil (no predecessor map) and stats may be nil (no sketch
// was captured); base is the new edge's declared base partition count, and
// isolateFraction and fan come filled in (plan.Options, or the defaults
// above for stream windows). A predecessor map with a different base
// cannot be transplanted — its split indices would refine the wrong key
// ranges — so only the stats are used then. Returns nil when nothing was
// learned (seeding a plain base map would be pure control-bag noise).
func WarmStart(prev *PartitionMap, stats *sketch.EdgeStats, newBag string, base int, isolateFraction float64, fan int, spread bool) *PartitionMap {
	if base < 1 {
		base = 1
	}
	var seed *PartitionMap
	if prev != nil && prev.Base == base {
		seed = prev.Clone()
	} else {
		seed = BaseMap(newBag, base)
	}
	seed.Bag = newBag
	if stats != nil {
		if fan < 1 || !spread {
			fan = 1
		}
		// A key is seed-isolated when its observed share reaches
		// isolateFraction of a mean partition's load — as a fraction of
		// the stream, isolateFraction/base (sketch.EdgeStats.TopKeys is
		// the canonical extraction).
		for _, hk := range stats.TopKeys(sketch.MaxHeavyKeys, isolateFraction/float64(base)) {
			hash := KeyHash(hk.Key)
			if seed.IsIsolated(hash) {
				continue
			}
			seed.Isolated = append(seed.Isolated, Isolation{
				Hash: hash, Fan: fan, Key: append([]byte(nil), hk.Key...),
			})
		}
	}
	if len(seed.Splits) == 0 && len(seed.Isolated) == 0 {
		return nil
	}
	// Version 1 is the plain base map every party derives locally; a seed
	// is numbered above it and above the map it refines.
	seed.Version++
	if seed.Version < 2 {
		seed.Version = 2
	}
	return seed
}
