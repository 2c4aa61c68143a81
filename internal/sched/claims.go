package sched

import (
	"fmt"
	"strings"
)

// NameClaims is the set of physical bag names a job may touch over its
// lifetime: the exact names it declares (data bags, work bags, partition
// control bags), subtree claims covering a whole namespace, and derived
// claims covering names generated at runtime (physical partition bags
// "<bag>.p<i>", isolated heavy-hitter bags "<bag>.h<i>" and
// "<bag>.h<i>.s<j>", clone partial bags "<out>~p<w>@e<n>" — always the stem
// followed by a decimal digit).
//
// Two jobs whose claims overlap would silently steal each other's chunks
// — the bag substrate's exactly-once guarantee is per physical bag, not
// per job — so the registry rejects such a submission with a clear error
// instead.
type NameClaims struct {
	// Exact bag names the job owns.
	Exact []string
	// Prefix claims: the job owns every bag name starting with one of
	// these prefixes (a namespaced job's "<prefix>/" subtree, which its
	// Discard sweeps in full).
	Prefix []string
	// Derived claims: the job owns every bag name consisting of one of
	// these stems immediately followed by a decimal digit. Narrower than
	// a Prefix claim on purpose: a partitioned bag "x" derives "x.p3",
	// "x.p3.s1", "x.h0" — but a sibling bag literally named "x.part2"
	// is legal and must not be rejected.
	Derived []string
}

// derivedMatch reports whether name lies in stem's derived-name space:
// the stem followed immediately by a decimal digit.
func derivedMatch(stem, name string) bool {
	return len(name) > len(stem) && strings.HasPrefix(name, stem) &&
		name[len(stem)] >= '0' && name[len(stem)] <= '9'
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
// c's broad claims against each other's (the broad-vs-broad checks are
// symmetric, so running them in one direction suffices; Conflict runs
// both directions for the exact-vs-broad cases).
func (c NameClaims) conflictOneWay(o NameClaims) (string, bool) {
	for _, e := range c.Exact {
		for _, oe := range o.Exact {
			if e == oe {
				return fmt.Sprintf("bag %q claimed by both jobs", e), true
			}
		}
		for _, op := range o.Prefix {
			if strings.HasPrefix(e, op) {
				return fmt.Sprintf("bag %q lies in the claimed namespace %q*", e, op), true
			}
		}
		for _, od := range o.Derived {
			if derivedMatch(od, e) {
				return fmt.Sprintf("bag %q collides with derived-name stem %q<digit>", e, od), true
			}
		}
	}
	for _, p := range c.Prefix {
		for _, op := range o.Prefix {
			if strings.HasPrefix(p, op) || strings.HasPrefix(op, p) {
				return fmt.Sprintf("claimed namespaces %q* and %q* overlap", p, op), true
			}
		}
		for _, od := range o.Derived {
			// Overlap iff some "<stem><digit>..." name can start with p:
			// the stem extends into the subtree, or p itself lies in the
			// stem's derived space.
			if strings.HasPrefix(od, p) || derivedMatch(od, p) {
				return fmt.Sprintf("derived-name stem %q<digit> overlaps claimed namespace %q*", od, p), true
			}
		}
	}
	for _, d := range c.Derived {
		for _, od := range o.Derived {
			if d == od || derivedMatch(d, od) || derivedMatch(od, d) {
				return fmt.Sprintf("derived-name stems %q<digit> and %q<digit> overlap", d, od), true
			}
		}
	}
	return "", false
}

// SelfConflict reports an overlap within one job's own claims: a
// declared bag name that a sibling bag's derived names would shadow
// (for example declaring both a partitioned bag "x" and a plain bag
// "x.p0" — while "x.part2" is fine). Exact duplicates are not checked
// here — the application graph validator already rejects redeclared
// bags.
func (c NameClaims) SelfConflict() (string, bool) {
	for _, e := range c.Exact {
		for _, p := range c.Prefix {
			if strings.HasPrefix(e, p) {
				return fmt.Sprintf("bag %q lies in the job's own namespace claim %q*", e, p), true
			}
		}
		for _, d := range c.Derived {
			if derivedMatch(d, e) {
				return fmt.Sprintf("bag %q collides with the job's own derived-name stem %q<digit>", e, d), true
			}
		}
	}
	for i, d := range c.Derived {
		for _, od := range c.Derived[i+1:] {
			if d == od || derivedMatch(d, od) || derivedMatch(od, d) {
				return fmt.Sprintf("derived-name stems %q<digit> and %q<digit> overlap", d, od), true
			}
		}
	}
	return "", false
}
