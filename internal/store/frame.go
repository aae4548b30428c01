package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/value"
)

// Frame format, shared by every checksummed record this repository
// writes to disk — journal records and the single body of a snapshot
// image:
//
//	u32 LE  payload length
//	u32 LE  CRC32-C of payload
//	payload
//
// Payload fields are built from three primitives: uvarints, single kind
// bytes, and names lists —
//
//	uvarint count
//	count × (uvarint len, len bytes)
//
// which carry constants by *name*, never by interned id, because
// interning order differs between the process that wrote a file and
// the one reading it back. A snapshot image's cells name each constant
// once and refer back to that name after it (see snapshot.go).

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameHeaderLen is the size of a frame's length + checksum header.
const FrameHeaderLen = 8

// maxRecordPayload bounds one journal record; a declared
// length beyond it is corruption, not a huge pending read. Snapshots
// carry no bound (noLimit): their single frame must span the rest of
// the file.
const (
	maxRecordPayload = 1 << 26
	noLimit          = math.MaxUint32
)

// Decode errors. A torn tail is the expected residue of a crash
// mid-append; corruption means the checksum or structure is wrong in
// bytes that claim to be complete.
var (
	ErrTorn    = errors.New("store: torn record (partial tail)")
	ErrCorrupt = errors.New("store: corrupt record")
)

// openFrame reserves a frame header at the end of dst; the caller
// appends the payload after it and passes the header's offset to
// sealFrame. Building a frame in place this way needs no separate
// payload buffer.
func openFrame(dst []byte) []byte {
	return append(dst, make([]byte, FrameHeaderLen)...)
}

// sealFrame fills in the header reserved by openFrame at dst[start:],
// treating everything after it as the payload, and returns dst.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// splitFrame splits the first frame off data, returning its payload and
// the frame's total length. Data ending before the declared payload
// does yields ErrTorn; a declared length above limit or a checksum
// mismatch yields ErrCorrupt.
func splitFrame(data []byte, limit uint32) ([]byte, int, error) {
	if len(data) < FrameHeaderLen {
		return nil, 0, ErrTorn
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen > limit {
		return nil, 0, ErrCorrupt
	}
	if uint64(len(data)-FrameHeaderLen) < uint64(plen) {
		return nil, 0, ErrTorn
	}
	n := FrameHeaderLen + int(plen)
	payload := data[FrameHeaderLen:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, n, nil
}

func appendName(dst []byte, name string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// AppendNames appends a names list to a payload.
func AppendNames(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = appendName(dst, n)
	}
	return dst
}

// cellEncoder appends tuples of constants to payloads by name — the
// name source behind journal records and snapshot images. It resolves
// names through a single snapshot of the symbol table (Symbols.Names)
// instead of one locked lookup per cell, and builds no intermediate
// name slices.
// A constant interned after the snapshot falls back to Symbols.Name.
// Labeled nulls have no name on disk: encoding one is a caller bug.
type cellEncoder struct {
	syms  *value.Symbols
	names []string
}

func newCellEncoder(syms *value.Symbols) cellEncoder {
	return cellEncoder{syms: syms, names: syms.Names()}
}

// name returns constant v's name.
func (e cellEncoder) name(v value.Value) string {
	if int64(v) < int64(len(e.names)) {
		return e.names[v]
	}
	return e.syms.Name(v)
}

// appendCells appends t's cells as names, without a count prefix.
func (e cellEncoder) appendCells(dst []byte, t relation.Tuple) ([]byte, error) {
	for _, v := range t {
		if v.IsNull() {
			return dst, fmt.Errorf("store: cannot encode labeled null in %v", t)
		}
		dst = appendName(dst, e.name(v))
	}
	return dst, nil
}

// appendTuple appends t as a names list.
func (e cellEncoder) appendTuple(dst []byte, t relation.Tuple) ([]byte, error) {
	return e.appendCells(binary.AppendUvarint(dst, uint64(len(t))), t)
}

// Op payload: one view update, as a journal record carries it after
// its seq and a submit op frame (package netserve) carries it after its
// length prefix:
//
//	byte  kind — core.UpdateKind
//	names      — the op's Tuple
//	names      — the op's With (replace only)

// OpFault says what part of an op payload failed to decode.
type OpFault uint8

// Op payload faults; the zero OpFault means none.
const (
	OpMalformed OpFault = iota + 1 // a uvarint overflows or is not minimal
	OpTruncated                    // the payload ends inside a field
	OpBadKind                      // the kind byte, N, is no update kind
	OpWidth                        // a names list holds N names, not the width asked for
	OpLongName                     // a name of N bytes exceeds the bound asked for
	OpTrailing                     // N bytes follow the op
)

var opFaults = [...]string{
	OpMalformed: "malformed uvarint",
	OpTruncated: "truncated",
	OpBadKind:   "unknown update kind",
	OpWidth:     "names list of the wrong width",
	OpLongName:  "name over the length bound",
	OpTrailing:  "trailing bytes",
}

// OpError reports an op payload DecodeOp refused: the fault, and the
// size OpFault names for it.
type OpError struct {
	Fault OpFault
	N     uint64
}

func (e *OpError) Error() string {
	return fmt.Sprintf("store: op payload: %s (%d)", opFaults[e.Fault], e.N)
}

// cursor reads payload fields in order. The first field that does not
// parse records its fault: every later read returns a zero value, and
// done reports false. Decoders therefore read all their fields and call
// done once.
type cursor struct {
	data  []byte
	off   int
	fault OpFault
	n     uint64 // the fault's size (see OpFault)
}

func (c *cursor) bad() bool { return c.fault != 0 }

// fail records the first fault.
func (c *cursor) fail(f OpFault, n uint64) {
	if c.fault == 0 {
		c.fault, c.n = f, n
	}
}

// uvarint reads one uvarint. Only the minimal encoding, the one
// binary.AppendUvarint writes, is accepted, so every accepted payload
// re-encodes to its own bytes.
func (c *cursor) uvarint() uint64 {
	if c.bad() {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	switch {
	case n == 0:
		c.fail(OpTruncated, 0)
		return 0
	case n < 0 || (n > 1 && c.data[c.off+n-1] == 0):
		c.fail(OpMalformed, 0)
		return 0
	}
	c.off += n
	return v
}

// name reads one (uvarint len, len bytes) name of at most maxName bytes
// (any length when maxName < 0) and returns its bytes, a sub-slice of
// the payload.
func (c *cursor) name(maxName int) []byte {
	n := c.uvarint()
	switch {
	case c.bad():
		return nil
	case maxName >= 0 && n > uint64(maxName):
		c.fail(OpLongName, n)
		return nil
	case n > uint64(len(c.data)-c.off):
		c.fail(OpTruncated, n)
		return nil
	}
	c.off += int(n)
	return c.data[c.off-int(n) : c.off]
}

// names is the one reader of a names list. The list's count must be
// width (any count when width < 0), and each name at most maxName bytes
// (see name). With fn nil it only checks the list; otherwise it hands
// fn each name as it reads it. It returns the count.
func (c *cursor) names(width, maxName int, fn func(i int, name []byte)) int {
	n := c.uvarint()
	switch {
	case c.bad():
		return 0
	case width >= 0 && n != uint64(width):
		c.fail(OpWidth, n)
		return 0
	case n > uint64(len(c.data)-c.off): // each name takes a byte at least
		c.fail(OpTruncated, n)
		return 0
	}
	for i := 0; i < int(n); i++ {
		name := c.name(maxName)
		if c.bad() {
			return 0
		}
		if fn != nil {
			fn(i, name)
		}
	}
	return int(n)
}

// op checks an op payload from c's offset without interning a name and
// returns its kind and the counts of its Tuple and With.
func (c *cursor) op(width, maxName int) (kind core.UpdateKind, nt, nw int) {
	if c.bad() || c.off >= len(c.data) {
		c.fail(OpTruncated, 0)
		return 0, 0, 0
	}
	switch kind = core.UpdateKind(c.data[c.off]); kind {
	case core.UpdateInsert, core.UpdateDelete, core.UpdateReplace:
		c.off++
	default:
		c.fail(OpBadKind, uint64(kind))
		return 0, 0, 0
	}
	nt = c.names(width, maxName, nil)
	if kind == core.UpdateReplace {
		nw = c.names(width, maxName, nil)
	}
	return kind, nt, nw
}

// done reports whether every read parsed and the payload is fully
// consumed, recording leftover bytes as an OpTrailing fault.
func (c *cursor) done() bool {
	if !c.bad() && c.off != len(c.data) {
		c.fail(OpTrailing, uint64(len(c.data)-c.off))
	}
	return !c.bad()
}

// DecodeOp decodes an op payload, interning its names in syms. It
// checks the whole payload before it interns a single name — each names
// list must hold width names (any number when width < 0), each name at
// most maxName bytes (any length when maxName < 0), and nothing may
// follow — so a payload it refuses, with an *OpError, interns nothing.
// Tuple and With are carved from the front of cells when it is long
// enough, so a caller decoding many ops can hand each the rest of one
// slab; otherwise they share one new allocation.
func DecodeOp(payload []byte, width, maxName int, syms *value.Symbols, cells relation.Tuple) (core.UpdateOp, error) {
	c := cursor{data: payload}
	kind, nt, nw := c.op(width, maxName)
	if !c.done() {
		return core.UpdateOp{}, &OpError{Fault: c.fault, N: c.n}
	}
	if len(cells) < nt+nw {
		cells = make(relation.Tuple, nt+nw)
	}
	base := 0
	intern := func(i int, name []byte) { cells[base+i] = syms.ConstBytes(name) }
	c = cursor{data: payload, off: 1}
	c.names(-1, -1, intern)
	op := core.UpdateOp{Kind: kind, Tuple: cells[:nt:nt]}
	if kind == core.UpdateReplace {
		base = nt
		c.names(-1, -1, intern)
		op.With = cells[nt : nt+nw : nt+nw]
	}
	return op, nil
}
