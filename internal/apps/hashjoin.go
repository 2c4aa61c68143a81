package apps

import (
	"context"

	"repro/hurricane"
	"repro/internal/workload"
)

// HashJoin source bag names.
const (
	JoinBagR = "relR" // smaller (build) relation
	JoinBagS = "relS" // larger (probe) relation
)

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

// joinPair mirrors workload.Tuple on the wire.
type joinPair = hurricane.Pair[uint64, uint64]

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
