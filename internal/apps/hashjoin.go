package apps

import (
	"context"
	"fmt"

	"repro/hurricane"
	"repro/internal/workload"
)

// HashJoin source and output bag names.
const (
	JoinBagR = "relR" // smaller (build) relation
	JoinBagS = "relS" // larger (probe) relation
)

// JoinPartR names partition p of the build relation.
func JoinPartR(p int) string { return fmt.Sprintf("r.p%d", p) }

// JoinPartS names partition p of the probe relation.
func JoinPartS(p int) string { return fmt.Sprintf("s.p%d", p) }

// JoinOut names the join output bag for partition p.
func JoinOut(p int) string { return fmt.Sprintf("join.p%d", p) }

// TupleCodec encodes relation tuples as (key, payload) pairs — the wire
// form of workload.Tuple, shared by the CLIs and examples. Keys are
// small and varint-friendly; payloads are high-entropy words, where the
// fixed 8-byte layout beats a ~10-byte varint on both size and decode
// cost.
var TupleCodec = hurricane.PairOf(hurricane.Uint64Of, hurricane.Uint64FixedOf)

// MatchCodec encodes join matches as (key, (payloadR, payloadS)).
var MatchCodec = hurricane.PairOf(hurricane.Uint64Of,
	hurricane.PairOf(hurricane.Uint64FixedOf, hurricane.Uint64FixedOf))

// Unexported aliases keep the package-internal call sites short.
var (
	tupleCodec = TupleCodec
	matchCodec = MatchCodec
)

// Tuple mirrors workload.Tuple on the wire.
type joinPair = hurricane.Pair[uint64, uint64]

// HashJoinApp builds the paper's hash join (§5.3): the smaller relation R
// is hash-partitioned into parts partitions and loaded in memory by each
// join task (via a scan input, so clones share the full build side); the
// larger relation S is partitioned correspondingly and streamed, with
// matches emitted as output. Skewed keys inflate some partitions' hit
// rates; Hurricane handles them by cloning the affected join tasks —
// clones split the streaming side chunk-by-chunk. It is the hand-wired
// oracle HashJoinPlan is checked against.
func HashJoinApp(parts int, noClone bool) *hurricane.App {
	app := hurricane.NewApp("hashjoin")
	app.SourceBag(JoinBagR).SourceBag(JoinBagS)
	rParts := make([]string, parts)
	sParts := make([]string, parts)
	for p := 0; p < parts; p++ {
		app.Bag(JoinPartR(p)).Bag(JoinPartS(p)).Bag(JoinOut(p))
		rParts[p] = JoinPartR(p)
		sParts[p] = JoinPartS(p)
	}

	for _, side := range []struct {
		task, in string
		outs     []string
	}{{"partitionR", JoinBagR, rParts}, {"partitionS", JoinBagS, sParts}} {
		app.AddTask(hurricane.TaskSpec{
			Name:    side.task,
			Inputs:  []string{side.in},
			Outputs: side.outs,
			NoClone: noClone,
			Run: func(tc *hurricane.TaskCtx) error {
				ws := make([]*hurricane.Writer[joinPair], parts)
				for p := range ws {
					ws[p] = hurricane.NewWriter(tc, p, tupleCodec)
				}
				return hurricane.ForEach(tc, 0, tupleCodec, func(t joinPair) error {
					return ws[int(t.First%uint64(parts))].Write(t)
				})
			},
		})
	}

	for p := 0; p < parts; p++ {
		p := p
		app.AddTask(hurricane.TaskSpec{
			Name:       fmt.Sprintf("join.p%d", p),
			Inputs:     []string{JoinPartS(p)}, // probe side: consumed, split across clones
			ScanInputs: []string{JoinPartR(p)}, // build side: scanned in full by every clone
			Outputs:    []string{JoinOut(p)},
			NoClone:    noClone,
			Run: func(tc *hurricane.TaskCtx) error {
				// Build phase: hash the (partition of the) smaller
				// relation.
				build := make(map[uint64][]uint64)
				if err := hurricane.ForEachScan(tc, 0, tupleCodec, func(t joinPair) error {
					build[t.First] = append(build[t.First], t.Second)
					return nil
				}); err != nil {
					return err
				}
				// Probe phase: stream the larger relation's partition.
				w := hurricane.NewWriter(tc, 0, matchCodec)
				return hurricane.ForEach(tc, 0, tupleCodec, func(t joinPair) error {
					for _, rp := range build[t.First] {
						m := hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]{
							First:  t.First,
							Second: hurricane.Pair[uint64, uint64]{First: rp, Second: t.Second},
						}
						if err := w.Write(m); err != nil {
							return err
						}
					}
					return nil
				})
			},
		})
	}
	return app
}

// LoadRelations loads and seals both join relations.
func LoadRelations(ctx context.Context, store *hurricane.Store, r, s []workload.Tuple) error {
	toPairs := func(ts []workload.Tuple) []joinPair {
		out := make([]joinPair, len(ts))
		for i, t := range ts {
			out[i] = joinPair{First: t.Key, Second: t.Payload}
		}
		return out
	}
	if err := hurricane.Load(ctx, store, JoinBagR, tupleCodec, toPairs(r)); err != nil {
		return err
	}
	if err := hurricane.Seal(ctx, store, JoinBagR); err != nil {
		return err
	}
	if err := hurricane.Load(ctx, store, JoinBagS, tupleCodec, toPairs(s)); err != nil {
		return err
	}
	return hurricane.Seal(ctx, store, JoinBagS)
}

// JoinResultCount totals the number of emitted matches across partitions.
func JoinResultCount(ctx context.Context, store *hurricane.Store, parts int) (int64, error) {
	var total int64
	for p := 0; p < parts; p++ {
		vals, err := hurricane.Collect(ctx, store, JoinOut(p), matchCodec)
		if err != nil {
			return 0, err
		}
		total += int64(len(vals))
	}
	return total, nil
}
