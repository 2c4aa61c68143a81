package sched

import (
	"fmt"
	"strings"
)

// NameClaims is the set of physical bag names a job owns over its
// lifetime, and so exactly the names that releasing the job deletes: the
// exact names it declares (data bags and work bags) and prefix claims
// covering the names it derives at runtime, each a stem the derived names
// grow from (physical partition bags "<bag>.p<i>", isolated heavy-hitter
// bags "<bag>.h<i>" and "<bag>.h<i>.s<j>", clone partial bags
// "<out>~p<w>@e<n>").
//
// Two jobs whose claims overlap would silently steal each other's chunks
// — the bag substrate's exactly-once guarantee is per physical bag, not
// per job — and one job's release would delete the other's bags, so the
// registry rejects such a submission with a clear error instead.
type NameClaims struct {
	// Exact bag names the job owns.
	Exact []string
	// Prefix claims: the job owns every bag name starting with one of
	// these prefixes, whether or not it ever writes it.
	Prefix []string
}

// Conflict reports the first physical-name overlap between two claim
// sets.
func (c NameClaims) Conflict(o NameClaims) (string, bool) {
	if msg, bad := c.conflictOneWay(o); bad {
		return msg, true
	}
	return o.conflictOneWay(c)
}

// conflictOneWay checks c's exact names against all of o's claims, and
// c's prefixes against o's (the prefix-vs-prefix check is symmetric, so
// running it in one direction suffices; Conflict runs both directions for
// the exact-vs-prefix cases).
func (c NameClaims) conflictOneWay(o NameClaims) (string, bool) {
	for _, e := range c.Exact {
		for _, oe := range o.Exact {
			if e == oe {
				return fmt.Sprintf("bag %q claimed by both jobs", e), true
			}
		}
		for _, op := range o.Prefix {
			if strings.HasPrefix(e, op) {
				return fmt.Sprintf("bag %q lies under the claimed stem %q*", e, op), true
			}
		}
	}
	for _, p := range c.Prefix {
		for _, op := range o.Prefix {
			if strings.HasPrefix(p, op) || strings.HasPrefix(op, p) {
				return fmt.Sprintf("claimed stems %q* and %q* overlap", p, op), true
			}
		}
	}
	return "", false
}

// SelfConflict reports a declared bag name under one of the job's own
// stems (for example declaring both a partitioned bag "x" and a plain bag
// "x.p0" or "x.part2"): its runtime names could shadow the bag, and the
// release of the stem would delete it. Exact duplicates are not checked
// here — the application graph validator already rejects redeclared
// bags — and neither are overlapping stems: each stem is a declared name
// plus a suffix, so two of one job's stems overlap only when a declared
// name lies under one of them.
func (c NameClaims) SelfConflict() (string, bool) {
	for _, e := range c.Exact {
		for _, p := range c.Prefix {
			if strings.HasPrefix(e, p) {
				return fmt.Sprintf("bag %q lies under the job's own stem %q*", e, p), true
			}
		}
	}
	return "", false
}
