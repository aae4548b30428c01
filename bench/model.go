package bench

import (
	"fmt"
	"math/rand"

	"github.com/constcomp/constcomp/internal/core"
)

// PresentShare is the share of each client's keys pre-populated before
// the timed phase: the stationary presence of a key under the op mix (a
// present key is deleted with probability 0.3 per op, an absent one is
// always inserted, so p·0.3 = (1−p) gives p = 1/1.3 ≈ 0.77). Starting
// there keeps per-op cost flat over a run.
const PresentShare = 0.77

// zipfS is the key-popularity skew every client draws with.
const zipfS = 1.2

// DeletePct is the share, in percent, of ops on present keys that delete
// the key; the rest move it to a different department. Absent keys are
// always inserted.
const DeletePct = 30

// Op is one generated view update at the client-model level: a key of
// one client moving between departments (-1 = absent).
type Op struct {
	Client int
	Key    int
	Kind   core.UpdateKind
	From   int // department before; -1 for an insert
	To     int // department after; -1 for a delete
}

// Client is one closed-loop client: it owns a private keyspace, so the
// expected state of every key it owns is determined by its own acked
// ops alone, whatever other clients do concurrently.
type Client struct {
	ID    int
	dept  []int  // per key: current department per the acks, -1 absent
	busy  []bool // per key: an op on it is in flight
	rng   *rand.Rand
	zipf  *rand.Zipf
	depts int
}

// NewClient builds client id with keys keys over depts departments,
// pre-populated to PresentShare from its own seeded stream.
func NewClient(id, keys, depts int, seed int64) *Client {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)*7919 + 1))
	c := &Client{
		ID:    id,
		dept:  make([]int, keys),
		busy:  make([]bool, keys),
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(keys-1)),
		depts: depts,
	}
	for k := range c.dept {
		c.dept[k] = -1
		if rng.Float64() < PresentShare {
			c.dept[k] = c.pick(-1)
		}
	}
	return c
}

// KeyName is the employee name of client c's key k.
func KeyName(c, k int) string { return fmt.Sprintf("c%dk%d", c, k) }

// Dept returns key k's department per the acks (-1 absent).
func (c *Client) Dept(k int) int { return c.dept[k] }

// pick draws a department different from cur (cur = -1 for any).
func (c *Client) pick(cur int) int {
	if cur < 0 {
		return c.rng.Intn(c.depts)
	}
	d := c.rng.Intn(c.depts - 1)
	if d >= cur {
		d++
	}
	return d
}

// drawKey returns a zipf-distributed key with no op in flight. The
// caller keeps fewer ops in flight than keys, so it terminates.
func (c *Client) drawKey() int {
	for {
		if k := int(c.zipf.Uint64()); !c.busy[k] {
			return k
		}
	}
}

// Next generates the client's next op and marks its key in flight.
// Every generated op is translatable: departments keep their base rows
// (no op ever touches a base row), so deletes and moves never empty a
// department.
func (c *Client) Next() Op {
	k := c.drawKey()
	op := Op{Client: c.ID, Key: k, From: c.dept[k]}
	switch {
	case op.From < 0:
		op.Kind, op.To = core.UpdateInsert, c.pick(-1)
	case c.rng.Intn(100) < DeletePct:
		op.Kind, op.To = core.UpdateDelete, -1
	default:
		op.Kind, op.To = core.UpdateReplace, c.pick(op.From)
	}
	c.busy[k] = true
	return op
}

// NextMove generates a move of an idle present key (used to pad the
// journal to a fixed length); false when there is none.
func (c *Client) NextMove() (Op, bool) {
	for k := range c.dept {
		if c.dept[k] < 0 || c.busy[k] {
			continue
		}
		op := Op{Client: c.ID, Key: k, Kind: core.UpdateReplace, From: c.dept[k]}
		op.To = c.pick(op.From)
		c.busy[k] = true
		return op, true
	}
	return Op{}, false
}

// Ack settles an op: its key leaves flight, and an applied op advances
// the model. Unapplied ops (rejected, shed, failed) change nothing.
func (c *Client) Ack(op Op, applied bool) {
	c.busy[op.Key] = false
	if applied {
		c.dept[op.Key] = op.To
	}
}

// Rows returns the view rows (employee → department) the client's acks
// imply.
func (c *Client) Rows(into map[string]string) {
	for k, d := range c.dept {
		if d >= 0 {
			into[KeyName(c.ID, k)] = DeptName(d)
		}
	}
}

// ApplyOp advances an expected view (employee → department) by one
// applied op.
func ApplyOp(view map[string]string, op Op) {
	delete(view, KeyName(op.Client, op.Key))
	if op.To >= 0 {
		view[KeyName(op.Client, op.Key)] = DeptName(op.To)
	}
}

// DeptName and MgrName match workload.EDM.Instance's constants.
func DeptName(d int) string { return fmt.Sprintf("dept%d", d) }

// MgrName is department d's manager.
func MgrName(d int) string { return fmt.Sprintf("mgr%d", d) }

// BaseRows returns the ED view of workload.EDM.Instance(emp, depts):
// rows no client owns and no op may touch.
func BaseRows(emp, depts int, into map[string]string) {
	for i := 0; i < emp; i++ {
		into[fmt.Sprintf("emp%d", i)] = DeptName(i % depts)
	}
}

// DiffViews compares a view (employee → department) against the
// expected one and describes up to limit differences.
func DiffViews(got, want map[string]string, limit int) []string {
	var out []string
	add := func(s string) {
		if len(out) < limit {
			out = append(out, s)
		}
	}
	for e, d := range want {
		switch g, ok := got[e]; {
		case !ok:
			add(fmt.Sprintf("%s: want %s, missing", e, d))
		case g != d:
			add(fmt.Sprintf("%s: want %s, got %s", e, d, g))
		}
	}
	for e, g := range got {
		if _, ok := want[e]; !ok {
			add(fmt.Sprintf("%s: want absent, got %s", e, g))
		}
	}
	return out
}
