package store

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"github.com/constcomp/constcomp/internal/value"
)

// killChildArg, as the test binary's first positional argument, turns
// TestKillRecoverDirFS into the child it re-execs: the second argument
// is the store directory.
const killChildArg = "store-kill-child"

// killChildOps bounds a child's run, in case its parent is gone.
const killChildOps = 5000

// TestKillRecoverDirFS crashes a real process over real files. It
// re-execs the test binary as a child that opens a DirFS store (a
// Create the first time, a Recover after that) with SnapshotEvery 8, so
// the journal is rewound and recycled many times, and applies ops50's
// sequence one Apply at a time, printing each acknowledged seq. The
// parent SIGKILLs the child after a seeded number of acks, recovers
// the directory, and checks that no acknowledged op was lost and that
// the database is the serial reference at the recovered seq; the next
// child resumes the same directory.
//
// SIGKILL keeps the page cache: written but unsynced bytes survive the
// kill. So this checks recovery over the recycled files a killed
// process leaves, not power loss, which the MemFS matrices model.
func TestKillRecoverDirFS(t *testing.T) {
	if flag.Arg(0) == killChildArg {
		if err := runKillChild(flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir := t.TempDir()
	fsys, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	pair, _, _ := edmFixture()
	rng := rand.New(rand.NewSource(38))
	var acked uint64
	for kill := 0; kill < 20; kill++ {
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillRecoverDirFS$", killChildArg, dir)
		cmd.Stderr = &stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(out)
		// readAck returns the next whole acknowledged seq the child
		// printed; a line the kill cut short is not an ack.
		readAck := func() (uint64, bool) {
			line, err := r.ReadString('\n')
			if err != nil {
				return 0, false
			}
			seq, err := strconv.ParseUint(strings.TrimSpace(line), 10, 64)
			if err != nil {
				t.Fatalf("kill %d: child printed %q", kill, line)
			}
			return seq, true
		}
		want := 1 + rng.Intn(40)
		for n := 0; n < want; n++ {
			seq, ok := readAck()
			if !ok {
				cmd.Wait()
				t.Fatalf("kill %d: child stopped after %d acks: %s", kill, n, stderr.String())
			}
			acked = seq
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		for {
			seq, ok := readAck()
			if !ok {
				break
			}
			acked = seq
		}
		io.Copy(io.Discard, out)
		cmd.Wait()

		syms := value.NewSymbols()
		st, rep, err := Recover(fsys, pair, syms, Options{SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("kill %d: recover after ack %d: %v", kill, acked, err)
		}
		got := st.Seq()
		if got < acked || got > acked+1 {
			t.Fatalf("kill %d: recovered seq %d (report %v), want the last ack %d or the op in flight after it", kill, got, rep, acked)
		}
		if g, w := render(st.Database(), syms), referenceAfter(t, int(got)); g != w {
			t.Fatalf("kill %d: recovered database at seq %d:\n%s\nwant:\n%s", kill, got, g, w)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		acked = got
	}
	if acked < 100 {
		t.Fatalf("the children acknowledged %d ops in all; the journal was hardly recycled", acked)
	}
	t.Logf("%d ops recovered across 20 kills", acked)
}

// runKillChild is the child's side of TestKillRecoverDirFS: open the
// store in dir and apply ops until killed, printing each acked seq.
func runKillChild(dir string) error {
	fsys, err := NewDirFS(dir)
	if err != nil {
		return err
	}
	pair, db, syms := edmFixture()
	st, _, err := Open(fsys, pair, db, syms, Options{SnapshotEvery: 8})
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	for _, op := range opsN(syms, killChildOps)[st.Seq():] {
		if _, err := st.Apply(op); err != nil {
			return fmt.Errorf("op %d: %w", st.Seq()+1, err)
		}
		fmt.Fprintln(w, st.Seq())
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return st.Close()
}
