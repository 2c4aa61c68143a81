package storage

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestNodeDebugHandler exercises the standalone storage node's HTTP
// surface end to end: drive some metered ops through the node, then
// scrape /metrics (Prometheus text with role="node" wire series) and
// /debug/storage (the per-bag chunk/byte JSON, stored and taken).
func TestNodeDebugHandler(t *testing.T) {
	n := NewNode("s0")
	n.Bind(obs.New(0), -1)

	for i := 0; i < 3; i++ {
		insert(t, n, "hot", []byte("abcd"))
	}
	insert(t, n, "cold", []byte("xy"))
	n.Handle(&transport.Request{Op: transport.OpSeal, Bag: "hot"})
	if resp := n.Handle(&transport.Request{Op: transport.OpRemove, Bag: "hot"}); !resp.OK() {
		t.Fatalf("remove: %+v", resp)
	}

	srv := httptest.NewServer(n.DebugHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		`hurricane_storage_op_total{role="node",node="s0",op="insert"} 4`,
		`hurricane_storage_op_total{role="node",node="s0",op="remove"} 1`,
		`hurricane_storage_op_total{role="node",node="s0",op="seal"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q; got:\n%s", want, body)
		}
	}

	body, ct = get("/debug/storage")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/storage content type %q", ct)
	}
	var stats NodeStats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/debug/storage not JSON: %v\n%s", err, body)
	}
	if stats.Node != "s0" || len(stats.Bags) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	byName := map[string]BagStats{}
	for _, b := range stats.Bags {
		byName[b.Bag] = b
	}
	hot := byName["hot"]
	if hot.TotalChunks != 3 || hot.ReadChunks != 1 || hot.TotalBytes != 12 || hot.ReadBytes != 4 || !hot.Sealed {
		t.Fatalf("hot bag stats = %+v", hot)
	}
	cold := byName["cold"]
	if cold.TotalChunks != 1 || cold.ReadChunks != 0 || cold.TotalBytes != 2 || cold.Sealed {
		t.Fatalf("cold bag stats = %+v", cold)
	}
	if stats.TotalChunks != 4 || stats.TotalBytes != 14 {
		t.Fatalf("node totals = %+v", stats)
	}
}

// TestNodeStatsUnbound: Stats works without a bound observer, and an
// unbound node's DebugHandler still serves (empty) metrics rather than
// panicking.
func TestNodeStatsUnbound(t *testing.T) {
	n := NewNode("s1")
	insert(t, n, "b", []byte("z"))
	st := n.Stats()
	if st.Node != "s1" || st.TotalChunks != 1 || st.TotalBytes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	srv := httptest.NewServer(n.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics on unbound node: status %d", resp.StatusCode)
	}
}
