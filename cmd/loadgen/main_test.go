package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/workload"
)

// startServer serves the EDM "ed" view (8 employees, 4 departments)
// from an in-process netserve server over a MemFS store, and returns
// its base URL.
func startServer(t *testing.T) string {
	t.Helper()
	edm := workload.NewEDM()
	pair := core.MustPair(edm.Schema, edm.ED, edm.DM)
	st, err := store.Create(store.NewMemFS(), pair, edm.Instance(8, 4), edm.Syms, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := netserve.NewServer(netserve.Options{})
	if err := srv.AddView("ed", st, edm.Syms, serve.Options{MaxBatch: 8}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts.URL
}

// testConfig is a small run: 3 clients, 96 ops in batches of 4 over 12
// keys each, departments the served instance has.
func testConfig() *config {
	return &config{view: "ed", clients: 3, ops: 96, batch: 4, tenants: []string{"good", "hog"},
		zipfS: 1.2, keys: 12, depts: 4, seed: 5}
}

// driveAll runs every client's op stream to completion, one client at a
// time, and fails the test on any transport or status failure.
func driveAll(t *testing.T, cfg *config, httpc *http.Client, base string) []*client {
	t.Helper()
	clients := newClients(cfg, obs.NewRegistry())
	acked := int64(0)
	for _, c := range clients {
		c.drive(cfg, httpc, base)
		if len(c.failures) > 0 {
			t.Fatalf("client %d: %v", c.idx, c.failures)
		}
		acked += c.acked - c.identity
	}
	if acked == 0 {
		t.Fatal("no op changed the view: the check below would be vacuous")
	}
	return clients
}

// TestVerifyFinalViewCleanRunAndLostAck: after a clean run the ack
// model matches the served view exactly, and a model entry flipped by
// hand — an ack the view does not hold — is reported against its key.
func TestVerifyFinalViewCleanRunAndLostAck(t *testing.T) {
	base := startServer(t)
	httpc := &http.Client{}
	cfg := testConfig()
	if err := discoverLayout(httpc, base, cfg); err != nil {
		t.Fatal(err)
	}
	clients := driveAll(t, cfg, httpc, base)
	if errs := verifyFinalView(httpc, base, cfg, clients); len(errs) > 0 {
		t.Fatalf("clean run reported lost acks: %v", errs)
	}

	c := clients[1]
	k := 0
	for k < len(c.present) && c.present[k] < 0 {
		k++
	}
	if k == len(c.present) {
		t.Fatal("client 1 holds no key")
	}
	c.present[k] = (c.present[k] + 1) % cfg.depts
	emp := fmt.Sprintf("lg_%s_c1_k%d ", c.tenant, k)
	errs := verifyFinalView(httpc, base, cfg, clients)
	if len(errs) != 1 || !strings.HasPrefix(errs[0], emp) {
		t.Fatalf("flipped ack for %s: errs = %v, want one naming it", emp, errs)
	}
}

// TestVerifyFinalViewFirstReadAfterAcks: a view nobody read while the
// ops ran still serves every acked op on its first read. The column
// layout is fixed here rather than discovered, so the final check is
// the server's first GET, and the whole run is one submit request, so
// no later commit can refresh a stale view before that GET.
func TestVerifyFinalViewFirstReadAfterAcks(t *testing.T) {
	base := startServer(t)
	httpc := &http.Client{}
	cfg := testConfig()
	cfg.clients, cfg.ops, cfg.batch = 1, 8, 8
	cfg.attrs, cfg.eCol, cfg.dCol = []string{"E", "D"}, 0, 1
	clients := driveAll(t, cfg, httpc, base)
	if errs := verifyFinalView(httpc, base, cfg, clients); len(errs) > 0 {
		t.Fatalf("first read after the acks missed acked ops: %v", errs)
	}
}

// TestDriveSmallKeySpaceNoOpErrors: with as many keys as a batch holds,
// every batch draws each key at most once, so every op meets the state
// it was built from — no op errors — and the acks match the final view.
func TestDriveSmallKeySpaceNoOpErrors(t *testing.T) {
	base := startServer(t)
	httpc := &http.Client{}
	cfg := testConfig()
	cfg.ops, cfg.keys, cfg.batch = 240, 8, 8
	if err := discoverLayout(httpc, base, cfg); err != nil {
		t.Fatal(err)
	}
	clients := driveAll(t, cfg, httpc, base)
	for _, c := range clients {
		if c.opErrs != 0 {
			t.Errorf("client %d: %d op errors: %v", c.idx, c.opErrs, c.reasons)
		}
	}
	if errs := verifyFinalView(httpc, base, cfg, clients); len(errs) > 0 {
		t.Fatalf("acks do not match the final view: %v", errs)
	}
}

// TestRunRejectsFewerKeysThanBatch: a batch cannot draw distinct keys
// from a smaller key space, so run refuses before sending anything.
func TestRunRejectsFewerKeysThanBatch(t *testing.T) {
	cfg := testConfig()
	cfg.keys, cfg.batch = 4, 8
	if err := run(cfg, "", false, false); err == nil || !strings.Contains(err.Error(), "-keys") {
		t.Fatalf("run with -keys 4 -batch 8 = %v, want a -keys error", err)
	}
}
