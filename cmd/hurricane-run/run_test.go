package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// testStore is a bag store over two in-process storage nodes, as main
// builds one over TCP. It returns the nodes too, so a test can list the
// bags each one holds.
func testStore(t *testing.T) (*bag.Store, []*storage.Node) {
	t.Helper()
	inproc := transport.NewInProc()
	var nodes []*storage.Node
	var names []string
	for i := range 2 {
		name := fmt.Sprintf("storage-%d", i)
		n := storage.NewNode(name)
		inproc.Register(name, n)
		nodes = append(nodes, n)
		names = append(names, name)
	}
	store, err := bag.NewStore(bag.Config{Nodes: names, Client: inproc, ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return store, nodes
}

// storedBags lists the bags every node holds, each slot bag under its
// bag's name.
func storedBags(nodes []*storage.Node) []string {
	var out []string
	for _, n := range nodes {
		for _, b := range n.BagNames() {
			out = append(out, b[:strings.LastIndexByte(b, '#')])
		}
	}
	return out
}

// bagsOf lists the stored bags in job's namespace.
func bagsOf(nodes []*storage.Node, job string) []string {
	return slices.DeleteFunc(storedBags(nodes), func(b string) bool { return !strings.HasPrefix(b, job+"/") })
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// testRequest is a small job of the given kind.
func testRequest(kind, name string) jobRequest {
	return jobRequest{Name: name, Job: kind, Records: 3000, Skew: 1.3, Parts: 2}
}

// TestDirectRunsLeaveNoBags: every kind passes its oracle through the
// direct path, and once it returns no bag is left on any storage node.
func TestDirectRunsLeaveNoBags(t *testing.T) {
	ctx := testCtx(t)
	store, nodes := testStore(t)
	for _, kind := range slices.Sorted(maps.Keys(jobKinds)) {
		res := runDirect(ctx, store, runConfig(2, 2), testRequest(kind, kind+"-direct"))
		if !res.OK {
			t.Fatalf("%s: %v", kind, res)
		}
		if left := storedBags(nodes); len(left) > 0 {
			t.Fatalf("%s: bags left after the run: %v", kind, left)
		}
	}
}

// TestDirectRunTwiceOnOneStore: a second direct run of a kind, under the
// same name, on the store of the first passes. A run that left its
// sealed input behind would fail the second with an insert into a sealed
// bag.
func TestDirectRunTwiceOnOneStore(t *testing.T) {
	ctx := testCtx(t)
	store, _ := testStore(t)
	for i := range 2 {
		if res := runDirect(ctx, store, runConfig(2, 2), testRequest("groupby", "gb")); !res.OK {
			t.Fatalf("run %d: %v", i, res)
		}
	}
}

// TestServedJobsWindow: a -serve process keeps its keptJobs newest
// finished jobs for the debug pages. After keptJobs+1 jobs the first one's
// bags are gone and its profile page answers 404, while every later job
// keeps its bags and the newest one's page answers 200; releasing the
// rest, as a clean exit does, leaves no job's bag behind.
func TestServedJobsWindow(t *testing.T) {
	ctx := testCtx(t)
	store, nodes := testStore(t)
	cluster := core.NewClusterOverStore(store, runConfig(2, 2))
	defer cluster.Shutdown()
	srv := &server{cluster: cluster}
	kinds := []string{"sqsum", "groupby", "query", "join", "clicklog"}
	var names []string
	for i := range keptJobs + 1 {
		name := fmt.Sprintf("j%d", i)
		names = append(names, name)
		srv.run(ctx, testRequest(kinds[i%len(kinds)], name))
		if cluster.Job(name) == nil {
			t.Fatalf("job %s is not kept after it finished", name)
		}
	}
	var results []jobResult
	if _, err := store.Scanner(doneBag).Drain(ctx, func(c chunk.Chunk) error {
		var r jobResult
		results = append(results, r)
		return json.Unmarshal(c, &results[len(results)-1])
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("%d result records, want %d", len(results), len(names))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("served %v", r)
		}
	}
	status := func(job string) int {
		rec := httptest.NewRecorder()
		cluster.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/profile/"+job, nil))
		return rec.Code
	}
	first, newest := names[0], names[len(names)-1]
	if left := bagsOf(nodes, first); len(left) > 0 {
		t.Errorf("job %s: bags left after %d newer jobs finished: %v", first, keptJobs, left)
	}
	if code := status(first); code != http.StatusNotFound {
		t.Errorf("/debug/profile/%s: status %d, want 404", first, code)
	}
	if code := status(newest); code != http.StatusOK {
		t.Errorf("/debug/profile/%s: status %d, want 200", newest, code)
	}
	for _, name := range names[1:] {
		if len(bagsOf(nodes, name)) == 0 {
			t.Errorf("kept job %s has no bags", name)
		}
	}

	srv.retain(ctx, nil, 0)
	for _, name := range names {
		if left := bagsOf(nodes, name); len(left) > 0 {
			t.Errorf("job %s: bags left after release: %v", name, left)
		}
	}
}
