package store

import (
	"context"
	"errors"
	"fmt"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// File names inside the store's FS root. The second snapshot slot is
// SnapshotFile+".1" (see snapshot.go).
const (
	JournalFile  = "journal"
	SnapshotFile = "snapshot"
)

// ErrSessionBroken marks a durable session whose in-memory state ran
// ahead of the disk: an operation was applied but its journal record
// could not be confirmed durable. Accepting further updates would
// journal them on top of the uncertain record and make replay diverge,
// so the session refuses all further work; restart and Recover instead.
// The unacknowledged op's outcome is indeterminate: it was reported as
// failed, but when only the fsync failed its record may still have
// reached the disk, and Recover will then replay it. Callers that need
// to know must compare the recovered Seq (or re-read the state) against
// what they acknowledged.
var ErrSessionBroken = errors.New("store: session broken (applied op not confirmed durable); restart and recover")

// ErrDataLoss reports damage that recovering past would silently drop
// acknowledged operations: a journal whose live records stop short of
// an intact record that continues them (a seq at or above the next one
// expected, past corruption or a gap), or a damaged snapshot slot when
// the journal does not continue the other slot (the damaged one may
// have been the newer checkpoint). Recover refuses and leaves the store
// untouched unless Options.ForceRecover is set.
var ErrDataLoss = errors.New("store: journal corrupt mid-stream with intact records past the damage, or a damaged snapshot the journal does not bridge; recovering would lose acknowledged ops (set ForceRecover to recover anyway)")

// ErrInvariant reports that the constant-complement invariant failed to
// re-verify after a recovery replay: the journal and snapshot disagree
// about the complement, so the recovered state cannot be trusted.
var ErrInvariant = errors.New("store: constant-complement invariant failed after recovery replay")

// Options tunes a durable session.
type Options struct {
	// SnapshotEvery is the number of applied operations between
	// snapshots; each snapshot rewinds the journal. Zero means 64.
	SnapshotEvery int
	// ForceRecover lets Recover truncate mid-journal corruption even
	// when records that continue the live ones survive past the damage,
	// and recover from the older snapshot slot when the newer one is
	// damaged and the journal does not continue the older — either way
	// acknowledged operations may be lost. Without it such damage fails
	// recovery with ErrDataLoss; a torn, corrupt or stale tail with no
	// such record after it never needs forcing.
	ForceRecover bool
}

func (o Options) every() int {
	if o.SnapshotEvery <= 0 {
		return 64
	}
	return o.SnapshotEvery
}

// Session is a core.Session with crash safety: every applied update is
// journaled and fsynced before Apply acknowledges it, and the database
// is periodically checkpointed into whichever of the two snapshot slots
// recovery does not depend on. After a crash, Recover rebuilds the
// exact acknowledged state.
type Session struct {
	fsys FS
	pair *core.Pair
	syms *value.Symbols
	sess *core.Session
	j    *Journal
	opts Options

	// seq counts acknowledged (journaled) operations since Create.
	seq       uint64
	sinceSnap int
	broken    error
	snapErr   error
	// snapLen is the length of the last snapshot image written (0 when
	// unknown); it sizes the next checkpoint's buffer.
	snapLen int
	// slots are the two snapshot slots, each opened on its first
	// checkpoint in this session; floor indexes the one Recover would
	// load, which a checkpoint never writes.
	slots [2]snapSlot
	floor int
	// buf holds the framed records of one group commit. It is reused
	// across batches: File.Write does not retain it.
	buf []byte
}

// Create starts a fresh durable session: the initial database becomes
// snapshot 0 in the first slot and the journal starts empty. Any
// previous store contents under fsys are overwritten, and a leftover
// second slot is removed.
func Create(fsys FS, pair *core.Pair, db *relation.Relation, syms *value.Symbols, opts Options) (*Session, error) {
	sess, err := core.NewSession(pair, db)
	if err != nil {
		return nil, err
	}
	snapLen, err := writeSnapshot(fsys, SnapshotFile, 0, db, syms, 0)
	if err != nil {
		return nil, err
	}
	j, err := createJournal(fsys, JournalFile)
	if err != nil {
		return nil, err
	}
	// The journal file must exist durably before any append's fsync can
	// be trusted: an fsynced record in a file whose directory entry is
	// lost with power is lost with it.
	if err := fsys.SyncDir(); err != nil {
		return nil, fmt.Errorf("store: create: journal dir sync: %w", err)
	}
	return &Session{fsys: fsys, pair: pair, syms: syms, sess: sess, j: j, opts: opts, snapLen: snapLen}, nil
}

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	// SnapshotSeq is the sequence number of the snapshot used as the
	// replay floor.
	SnapshotSeq uint64
	// Replayed counts journal records applied on top of the snapshot;
	// Skipped counts leading records the snapshot had already absorbed
	// (a checkpoint's rewind leaves them until the next cycle's records
	// overwrite them).
	Replayed int
	Skipped  int
	// TruncatedBytes is the length of the journal tail cut off, with
	// Torn/Corrupt/Stale saying why: a partial record (crash
	// mid-append), a checksum/structure failure or a gap in the seqs, or
	// an intact record of an earlier cycle, below the live ones, in a
	// journal the last checkpoint rewound.
	TruncatedBytes int64
	Torn           bool
	Corrupt        bool
	Stale          bool
	// InvariantOK confirms the post-replay re-verification: the database
	// is legal and the complement projection matches the snapshot's.
	InvariantOK bool
}

func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered at snapshot seq %d: %d replayed, %d skipped", r.SnapshotSeq, r.Replayed, r.Skipped)
	if r.TruncatedBytes > 0 {
		why := "corrupt"
		switch {
		case r.Torn:
			why = "torn"
		case r.Stale:
			why = "stale"
		}
		s += fmt.Sprintf(", %d-byte %s tail truncated", r.TruncatedBytes, why)
	}
	if r.InvariantOK {
		s += "; invariant verified"
	}
	return s
}

// Recover rebuilds the durable session from fsys: it loads the newest
// valid snapshot slot, replays the journal's live records past it
// (truncating the tail after them first), and re-verifies the
// constant-complement invariant on the result. Constants are interned
// into syms, which is typically empty — the journal and snapshot carry
// names, not ids, so recovery does not depend on the dead process's
// interning order. The returned session writes its next records after
// the live ones, and its first checkpoint rewinds the journal.
func Recover(fsys FS, pair *core.Pair, syms *value.Symbols, opts Options) (*Session, *RecoveryReport, error) {
	m := smetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	slots, err := readSlots(fsys)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: %w", err)
	}
	floor, damaged, err := chooseFloor(slots)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: %w", err)
	}
	snapSeq := slots[floor].seq
	db, err := snapshotBody(&slots[floor].body, pair.Schema().Universe(), syms)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: %s: %w", slotFiles[floor], err)
	}
	data, err := readAll(fsys, JournalFile)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: journal: %w", err)
	}
	rep := &RecoveryReport{SnapshotSeq: snapSeq}

	// Decode the live prefix, validating the sequence numbers: leading
	// records at or below the snapshot seq were absorbed by it and are
	// left from before the checkpoint's rewind; past them the records
	// must run contiguously. The prefix ends at the first frame that is
	// not the next record: an intact record below it is an earlier
	// cycle's (stale), and a gap can only come from damage, so it
	// truncates like a bad checksum. The live ops stay checked payloads
	// until they replay, so nothing a stale or damaged tail names is
	// interned.
	var ops [][]byte
	next := snapSeq + 1
	off, err := ScanJournal(data, func(seq uint64, op []byte) error {
		switch {
		case seq == next:
			ops = append(ops, op)
			next++
		case seq <= snapSeq && len(ops) == 0:
			rep.Skipped++
		case seq < next:
			return errStale
		default:
			return ErrCorrupt
		}
		return nil
	})
	rep.Torn = errors.Is(err, ErrTorn)
	rep.Corrupt = errors.Is(err, ErrCorrupt)
	rep.Stale = errors.Is(err, errStale)
	// No silent rollback: a damaged slot next to the floor is either a
	// checkpoint torn mid-overwrite — the journal then still holds the
	// floor's successor, since it is rewound only after the slot is
	// synced — or a newer checkpoint damaged later. That one's absorbed
	// ops survive only while the next cycle has not overwritten them;
	// a journal that still starts at the floor's successor bridges it.
	if damaged && len(ops) == 0 && !opts.ForceRecover {
		return nil, rep, fmt.Errorf("store: recover: %s is damaged and the journal does not continue %s at seq %d: %w",
			slotFiles[1-floor], slotFiles[floor], snapSeq+1, ErrDataLoss)
	}
	if int(off) < len(data) {
		rep.TruncatedBytes = int64(len(data)) - off
		// Past the live prefix lie an earlier cycle's records, all below
		// next, or the residue of a crash mid-write: both are safe to
		// cut. A record at or above next past the damage is an
		// acknowledged operation, and silently dropping it needs an
		// explicit ForceRecover.
		if !opts.ForceRecover && liveRecordIn(data[off:], next) {
			return nil, rep, fmt.Errorf("store: recover: %w", ErrDataLoss)
		}
		if err := fsys.Truncate(JournalFile, off); err != nil {
			return nil, nil, fmt.Errorf("store: recover: truncating journal tail: %w", err)
		}
	}

	sess, err := core.NewSession(pair, db)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: snapshot database: %w", err)
	}
	// One slab holds every replayed op's cells, with room for each to
	// be a replace of view-width tuples.
	cells := make(relation.Tuple, 2*pair.ViewAttrs().Len()*len(ops))
	for i, payload := range ops {
		op, err := DecodeOp(payload, -1, -1, syms, cells)
		if err == nil {
			cells = cells[min(len(cells), len(op.Tuple)+len(op.With)):]
			_, err = sess.Apply(op)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: recover: replaying record %d: journal diverges from snapshot: %w", snapSeq+1+uint64(i), err)
		}
		rep.Replayed++
	}

	// Re-verify the framework invariant on the recovered state: legal
	// database, complement projection unchanged from the snapshot.
	cur := sess.DatabaseRef()
	legal, _ := pair.Schema().Legal(cur)
	y := pair.ComplementAttrs()
	rep.InvariantOK = legal && cur.Project(y).Equal(db.Project(y))
	if !rep.InvariantOK {
		return nil, rep, fmt.Errorf("store: recover: %w", ErrInvariant)
	}

	j, err := openJournalAt(fsys, JournalFile, off)
	if err != nil {
		return nil, rep, fmt.Errorf("store: recover: reopening journal: %w", err)
	}
	// Re-fsync the replayed journal before trusting it: when recovery
	// follows a *failed fsync* (not a power loss), the records it just
	// replayed may still be sitting dirty in the page cache — readable
	// now, gone after the next power cut. Acknowledging ops on top of
	// an unsynced prefix would repeat the exact failure being healed.
	if err := j.Sync(); err != nil {
		j.Close()
		return nil, rep, fmt.Errorf("store: recover: re-syncing replayed journal: %w", err)
	}
	// The open may have created the journal (a crash can lose the file
	// while keeping the snapshot); make its directory entry durable
	// before acknowledging any new op into it.
	if err := fsys.SyncDir(); err != nil {
		j.Close()
		return nil, rep, fmt.Errorf("store: recover: journal dir sync: %w", err)
	}
	if m != nil {
		m.recoveries.Inc()
		m.replayed.Add(int64(rep.Replayed))
		m.truncatedBytes.Add(rep.TruncatedBytes)
		m.recoverNs.ObserveDuration(obs.SinceNS(t0))
	}
	return &Session{
		fsys:      fsys,
		pair:      pair,
		syms:      syms,
		sess:      sess,
		j:         j,
		opts:      opts,
		seq:       next - 1,
		sinceSnap: rep.Replayed,
		floor:     floor,
	}, rep, nil
}

// errStale ends the live prefix at an intact record below the next seq:
// an earlier cycle's record in a journal the last checkpoint rewound.
var errStale = errors.New("store: stale record")

// liveRecordIn reports whether a complete, checksummed record with seq
// at least next can be decoded starting at any byte offset of data (the
// journal past its live prefix). Framing is not self-synchronizing, so
// every offset is tried; a recycled journal holds about one snapshot
// cycle of records, keeping this cheap. It only checks structure: it
// allocates nothing and interns nothing from the tail.
func liveRecordIn(data []byte, next uint64) bool {
	for i := range data {
		payload, _, err := splitFrame(data[i:], maxRecordPayload)
		if err != nil {
			continue
		}
		if seq, _, err := splitRecord(payload); err == nil && seq >= next {
			return true
		}
	}
	return false
}

// Open resumes from an existing store (Recover) or starts a fresh one
// with db (Create) when fsys holds no snapshot at all. Only the
// specific "no snapshot" condition falls back to Create — any other
// recovery failure (damaged snapshot, corrupt journal, a missing
// journal alongside an intact snapshot) is returned rather than
// silently overwriting the store with a fresh database. The report is
// nil on the fresh path.
func Open(fsys FS, pair *core.Pair, db *relation.Relation, syms *value.Symbols, opts Options) (*Session, *RecoveryReport, error) {
	sess, rep, err := Recover(fsys, pair, syms, opts)
	if errors.Is(err, ErrNoSnapshot) {
		s, err := Create(fsys, pair, db, syms, opts)
		return s, nil, err
	}
	return sess, rep, err
}

// Database returns a snapshot of the current database.
func (s *Session) Database() *relation.Relation { return s.sess.Database() }

// Pair returns the view/complement pair this session serves.
func (s *Session) Pair() *core.Pair { return s.pair }

// View returns the current view instance.
func (s *Session) View() *relation.Relation { return s.sess.View() }

// ViewRef returns the session's maintained view image (immutable; see
// core.Session.ViewRef). The serving pipeline publishes it to readers
// at New and after each committed batch: no re-projection, but the
// session clones the O(|view|) image before the next batch's first
// change.
func (s *Session) ViewRef() *relation.Relation { return s.sess.ViewRef() }

// Seq returns the number of acknowledged operations since Create.
func (s *Session) Seq() uint64 { return s.seq }

// SnapshotErr returns the most recent snapshot failure, if the store is
// running degraded on journal-only durability. It clears when a later
// snapshot succeeds.
func (s *Session) SnapshotErr() error { return s.snapErr }

// Broken returns the error that broke this session (nil while healthy).
// The self-healing layer uses the cause — not the ErrSessionBroken wrap —
// to classify whether resurrection can help.
func (s *Session) Broken() error { return s.broken }

// DecideCtx tests an update without applying it, bounded by a context.
func (s *Session) DecideCtx(ctx context.Context, op core.UpdateOp) (*core.Decision, error) {
	return s.sess.DecideCtx(ctx, op)
}

// Apply decides, applies, and makes durable one update.
func (s *Session) Apply(op core.UpdateOp) (*core.Decision, error) {
	return s.ApplyCtx(context.Background(), op)
}

// ApplyCtx is Apply bounded by a context. The durability contract: when
// ApplyCtx returns nil the operation is fsynced in the journal; on any
// error the operation is not acknowledged. A rejection or budget trip
// leaves the database unchanged and the store healthy; a journal
// failure after the in-memory apply breaks the session (ErrSessionBroken
// thereafter), because memory is ahead of disk — the failed op's
// durability is then indeterminate (see ErrSessionBroken). A snapshot
// failure does
// not fail the op — durability degrades gracefully to journal-only and
// is retried at the next snapshot point (see SnapshotErr). It is a
// group commit of one.
func (s *Session) ApplyCtx(ctx context.Context, op core.UpdateOp) (*core.Decision, error) {
	one := func(i int) (BatchOp, bool) { return BatchOp{Ctx: ctx, Op: op}, i == 0 }
	items, err := s.ApplyOpsCtx(one)
	if len(items) == 0 {
		return nil, err
	}
	if err == nil {
		err = items[0].Err
	}
	return items[0].Decision, err
}

// rotate checkpoints the database into the slot that is not the
// recovery floor and rewinds the journal, in strict durability order:
// the slot is overwritten in place, cut to the image's length and
// fsynced — and, the first time this session opened it, its directory
// entry made durable — and only then becomes the floor and the journal
// is rewound to offset 0. A steady-state checkpoint is thus one write
// and one fsync, with no namespace change. The rewind changes nothing
// on disk: the next cycle's records overwrite the absorbed ones, all at
// or below the new floor's seq, which Recover skips or treats as the
// end of the live log. A slot failure leaves the floor and the journal
// as they were, so the old floor plus the full journal still
// reconstruct everything, and the next checkpoint retries the same
// slot; a crash mid-overwrite damages only the slot recovery does not
// need.
//
// The checkpoint encodes the session's live database in place rather
// than a clone: rotate runs on the session's only caller (the
// committer, in the serving pipeline) between applies, so nothing
// mutates the database while it is read.
func (s *Session) rotate() error {
	m := smetrics.Load()
	var t0 int64
	if m != nil {
		t0 = obs.NowNS()
	}
	img, err := encodeImage(s.syms, s.seq, s.sess.DatabaseRef(), s.snapLen)
	if err != nil {
		return err
	}
	t := 1 - s.floor
	sl := &s.slots[t]
	if err := sl.overwrite(s.fsys, slotFiles[t], img); err != nil {
		return err
	}
	if err := sl.f.Sync(); err != nil {
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if sl.created {
		if err := s.fsys.SyncDir(); err != nil {
			return fmt.Errorf("store: snapshot dir sync: %w", err)
		}
		sl.created = false
	}
	s.floor, s.sinceSnap, s.snapLen = t, 0, len(img)
	if m != nil {
		m.snapshots.Inc()
		m.snapshotNs.ObserveDuration(obs.SinceNS(t0))
	}
	if err := s.j.rewind(); err != nil {
		// The handle keeps appending after the records the new floor
		// absorbed; Recover skips them, so the session stays sound.
		return fmt.Errorf("store: journal rewind: %w", err)
	}
	return nil
}

// Close releases the journal and the snapshot slot handles. The store
// is consistent at every instant, so Close is not a commit point.
func (s *Session) Close() error {
	err := s.j.Close()
	for i := range s.slots {
		if f := s.slots[i].f; f != nil {
			s.slots[i].f = nil
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
