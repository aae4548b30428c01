package bench

import "testing"

// TestNetHarness runs the network workload's harness end to end on a
// small instance: HTTP server, two client connections, the served-view
// gate, shutdown, and recovery from the DirFS journal.
func TestNetHarness(t *testing.T) {
	h, err := start(smallNet, 4, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := h.run(400, 0, nil)
	if err != nil {
		h.stop()
		t.Fatal(err)
	}
	if ph.Failed != 0 || ph.Acked < 400 || len(ph.Updates) == 0 || len(ph.Reads) == 0 {
		h.stop()
		t.Fatalf("%d acked, %d failed, %d requests, %d reads", ph.Acked, ph.Failed, len(ph.Updates), len(ph.Reads))
	}
	if err := h.check(); err != nil {
		h.stop()
		t.Fatal(err)
	}
	if err := h.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.env.Recover(nil); err != nil {
		t.Fatal(err)
	}
}
