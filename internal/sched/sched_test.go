package sched

import (
	"strings"
	"testing"
)

func TestClaimsConflicts(t *testing.T) {
	a := NameClaims{
		Exact:  []string{"a/in", "a/out", "a!ready"},
		Prefix: []string{"a/out~p"},
	}
	b := NameClaims{
		Exact:  []string{"b/in", "b/out", "b!ready"},
		Prefix: []string{"b/out~p"},
	}
	if msg, bad := a.Conflict(b); bad {
		t.Fatalf("disjoint claims conflict: %s", msg)
	}

	// Exact/exact overlap.
	c := NameClaims{Exact: []string{"a/out"}}
	if _, bad := a.Conflict(c); !bad {
		t.Fatal("shared exact bag not detected")
	}
	// Exact caught by the other job's stem.
	d := NameClaims{Exact: []string{"a/out~p3@e0"}}
	if _, bad := a.Conflict(d); !bad {
		t.Fatal("partial-bag name under a foreign stem not detected")
	}
	if _, bad := d.Conflict(a); !bad {
		t.Fatal("stem conflict must be symmetric")
	}
	// Any name under the stem conflicts, derived-looking or not: the
	// stem's release would delete it.
	e := NameClaims{Exact: []string{"a/out~partial"}}
	if _, bad := a.Conflict(e); !bad {
		t.Fatal("name under a foreign stem not detected")
	}
	// Nested stems overlap.
	f := NameClaims{Prefix: []string{"a/out~p5"}}
	if _, bad := a.Conflict(f); !bad {
		t.Fatal("nested stems not detected")
	}
	// A namespace prefix claim swallows everything under it.
	ns := NameClaims{Prefix: []string{"a/"}}
	if _, bad := ns.Conflict(a); !bad {
		t.Fatal("exact names under a foreign namespace not detected")
	}
	if _, bad := a.Conflict(ns); !bad {
		t.Fatal("namespace conflict must be symmetric")
	}
}

func TestClaimsSelfConflict(t *testing.T) {
	// Declaring a partitioned bag "x" (stems x.p / x.h) alongside a
	// plain bag "x.p0" shadows the derived partition names, and alongside
	// "x.part2" puts a bag where the stem's release deletes it.
	for _, under := range []string{"x.p0", "x.part2", "x.hits"} {
		c := NameClaims{Exact: []string{"x", under}, Prefix: []string{"x.p", "x.h"}}
		msg, bad := c.SelfConflict()
		if !bad || !strings.Contains(msg, under) {
			t.Fatalf("self conflict on %s not detected: %q %v", under, msg, bad)
		}
	}
	ok := NameClaims{Exact: []string{"x", "x-part2", "xp0", "y.p0"}, Prefix: []string{"x.p", "x.h"}}
	if msg, bad := ok.SelfConflict(); bad {
		t.Fatalf("clean claims flagged: %s", msg)
	}
}

// TestRegistryClaimsAndRelease: every submission starts; a duplicate id or
// a name collision with a live or finished job is refused, and only
// Release frees a finished job's names.
func TestRegistryClaimsAndRelease(t *testing.T) {
	r := NewRegistry()
	if err := r.Submit("a", NameClaims{Exact: []string{"a/x"}}, 0); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := r.Submit("b", NameClaims{Exact: []string{"b/x"}}, 2); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if w := r.Weight("a"); w != 1 {
		t.Fatalf("weight(a) = %d, want the default 1", w)
	}
	if w := r.Weight("b"); w != 2 {
		t.Fatalf("weight(b) = %d, want 2", w)
	}
	// Duplicate id.
	if err := r.Submit("a", NameClaims{Exact: []string{"other"}}, 0); err == nil {
		t.Fatal("duplicate id accepted")
	}
	// Collision with a live job.
	if err := r.Submit("d", NameClaims{Exact: []string{"a/x"}}, 0); err == nil {
		t.Fatal("bag collision accepted")
	}
	// A running job cannot be released.
	r.Release("a")
	if err := r.Submit("e", NameClaims{Exact: []string{"a/x"}}, 0); err == nil {
		t.Fatal("Release dropped a running job's claims")
	}
	// A finished job's claims persist until released.
	r.Finish("a")
	if err := r.Submit("e", NameClaims{Exact: []string{"a/x"}}, 0); err == nil {
		t.Fatal("claims of finished job should still conflict")
	}
	r.Release("a")
	if err := r.Submit("e", NameClaims{Exact: []string{"a/x"}}, 0); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if w := r.Weight("a"); w != 0 {
		t.Fatalf("weight of a released job = %d, want 0", w)
	}
}

func TestLeaseShares(t *testing.T) {
	l := NewLeases(false)
	l.SetTotal(8)
	l.Add("a", 1)
	l.Add("b", 1)
	if sa, sb := l.Stats("a").Share, l.Stats("b").Share; sa != 4 || sb != 4 {
		t.Fatalf("equal-weight shares = %d/%d, want 4/4", sa, sb)
	}
	l.Add("c", 2)
	// W=4, total 8: a=2, b=2, c=4.
	if sa, sb, sc := l.Stats("a").Share, l.Stats("b").Share, l.Stats("c").Share; sa != 2 || sb != 2 || sc != 4 {
		t.Fatalf("weighted shares = %d/%d/%d, want 2/2/4", sa, sb, sc)
	}
	l.Remove("c")
	if sa := l.Stats("a").Share; sa != 4 {
		t.Fatalf("share after removal = %d, want 4", sa)
	}
	// Shares never drop below 1 even when jobs outnumber slots.
	l.SetTotal(1)
	if sa, sb := l.Stats("a").Share, l.Stats("b").Share; sa < 1 || sb < 1 {
		t.Fatalf("minimum share violated: %d/%d", sa, sb)
	}
}

func TestLeaseBorrowAndStarve(t *testing.T) {
	l := NewLeases(false)
	l.SetTotal(4)
	l.Add("a", 1)
	l.Add("b", 1)
	// Job a may borrow the whole cluster while b shows no demand.
	for i := 0; i < 4; i++ {
		if !l.Acquire("a") {
			t.Fatalf("work-conserving acquire %d denied", i)
		}
	}
	if l.Stats("a").Running != 4 {
		t.Fatalf("running(a) = %d, want 4", l.Stats("a").Running)
	}
	// b becomes starved: a (over share) may not acquire further...
	l.MoveDemand("b", 3, Delta)
	if l.Acquire("a") {
		t.Fatal("over-share acquire allowed with starved neighbor")
	}
	// ...but b itself may.
	if !l.Acquire("b") {
		t.Fatal("starved job denied its own share")
	}
	// a's clone budget collapses to zero; b — with no starved neighbor of
	// its own — keeps the full free-slot budget (work conservation).
	if g := l.CloneBudget("a", 3); g != 0 {
		t.Fatalf("clone budget(a) = %d, want 0", g)
	}
	if g := l.CloneBudget("b", 3); g != 3 {
		t.Fatalf("clone budget(b) = %d, want 3", g)
	}
	// Preemption plan: b is short one slot, a is two over share.
	plan := l.Plan()
	if plan["a"] != 1 {
		t.Fatalf("plan = %v, want a:1", plan)
	}
	// Releases drain a back to its share; no more preemption needed.
	l.Release("a")
	l.Release("a")
	for i := 0; i < 3; i++ {
		l.MoveDemand("b", -1, Delta) // b's three blueprints are claimed
	}
	if plan := l.Plan(); len(plan) != 0 {
		t.Fatalf("plan with no demand = %v, want empty", plan)
	}
}

func TestLeaseDisabledPassThrough(t *testing.T) {
	l := NewLeases(true)
	l.SetTotal(2)
	l.Add("a", 1)
	l.Add("b", 1)
	l.MoveDemand("b", 10, Delta)
	for i := 0; i < 5; i++ {
		if !l.Acquire("a") {
			t.Fatal("disabled leases must never gate claims")
		}
	}
	if plan := l.Plan(); plan != nil {
		t.Fatalf("disabled leases must not preempt: %v", plan)
	}
	if g := l.CloneBudget("a", 7); g != 7 {
		t.Fatalf("disabled clone budget = %d, want 7", g)
	}
}

func TestLeasePlanDeficitCappedByDemand(t *testing.T) {
	l := NewLeases(false)
	l.SetTotal(8)
	l.Add("a", 1)
	l.Add("b", 1)
	for i := 0; i < 8; i++ {
		l.Acquire("a")
	}
	// b wants only one slot although its share is 4: yield just one.
	l.MoveDemand("b", 1, Delta)
	if plan := l.Plan(); plan["a"] != 1 {
		t.Fatalf("plan = %v, want a:1 (deficit capped by demand)", plan)
	}
}

func TestLeaseMoveDemand(t *testing.T) {
	l := NewLeases(false)
	l.SetTotal(4)
	l.Add("a", 1)
	l.Add("b", 1)
	// b's two pushes starve it; the first claim leaves it starved, the
	// second ends the starvation, and only that one says so.
	for i := 0; i < 2; i++ {
		if l.MoveDemand("b", 1, Delta) {
			t.Fatal("a push reported a starvation ended")
		}
	}
	if l.MoveDemand("b", -1, Delta) {
		t.Fatal("a claim that leaves b starved reported it ended")
	}
	if !l.MoveDemand("b", -1, Delta) {
		t.Fatal("the claim that ends b's starvation did not say so")
	}
	if got := l.Stats("b").Claims; got != 2 {
		t.Fatalf("claims(b) = %d, want 2", got)
	}
	// A claim landing before the push that counts it: the demand reads 0
	// meanwhile and is right once the push is counted.
	l.MoveDemand("a", -1, Delta)
	if got := l.Stats("a").Demand; got != 0 {
		t.Fatalf("demand(a) after an early claim = %d, want 0", got)
	}
	l.MoveDemand("a", 1, Delta)
	if got := l.Stats("a").Demand; got != 0 {
		t.Fatalf("demand(a) after its push = %d, want 0", got)
	}
	// A seed brackets its Sample with the claim count: a claim counted
	// during the Sample comes off what it counted.
	seed := l.Stats("b").Claims
	l.MoveDemand("b", -1, Delta) // claimed while the Sample ran
	l.MoveDemand("b", 3, seed)   // the Sample saw 3
	if got := l.Stats("b").Demand; got != 2 {
		t.Fatalf("seeded demand(b) = %d, want 2", got)
	}
	// A running job below its share whose seed finds nothing left stops
	// being starved.
	if !l.MoveDemand("b", 0, l.Stats("b").Claims) {
		t.Fatal("a seed that ends b's starvation did not say so")
	}
	if l.MoveDemand("gone", 1, Delta) || l.Stats("gone").Demand != 0 {
		t.Fatal("an unknown job has demand")
	}
}
