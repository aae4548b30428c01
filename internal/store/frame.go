package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

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

// scanFrames hands each intact record payload at the front of a log
// image to fn, in order, until the bytes run out or stop checking out.
// It returns the offset just past the last payload fn accepted, and why
// it stopped: nil when every byte was consumed, ErrTorn or ErrCorrupt
// for a damaged frame, or fn's own error, which leaves the frame fn
// refused outside the good prefix. It never reads past data.
func scanFrames(data []byte, fn func(payload []byte) error) (int64, error) {
	var off int64
	for int(off) < len(data) {
		payload, n, err := splitFrame(data[off:], maxRecordPayload)
		if err == nil {
			err = fn(payload)
		}
		if err != nil {
			return off, err
		}
		off += int64(n)
	}
	return off, nil
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

// Cursor reads payload fields in order. The first field that does not
// parse makes the cursor bad: every later read returns a zero value,
// and End reports ErrCorrupt. Decoders therefore read all their fields
// and check End once.
type Cursor struct {
	data []byte
	off  int
	bad  bool
}

// NewCursor starts reading payload from its first byte.
func NewCursor(payload []byte) Cursor { return Cursor{data: payload} }

// Uvarint reads one uvarint.
func (c *Cursor) Uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

// Byte reads one kind byte.
func (c *Cursor) Byte() byte {
	if c.bad || c.off >= len(c.data) {
		c.bad = true
		return 0
	}
	c.off++
	return c.data[c.off-1]
}

// name reads one (uvarint len, len bytes) name.
func (c *Cursor) name() string {
	n := c.Uvarint()
	if c.bad || n > uint64(len(c.data)-c.off) {
		c.bad = true
		return ""
	}
	c.off += int(n)
	return string(c.data[c.off-int(n) : c.off])
}

// Names reads one names list.
func (c *Cursor) Names() []string {
	w := c.Uvarint()
	if c.bad || w > uint64(len(c.data)-c.off) {
		c.bad = true
		return nil
	}
	out := make([]string, w)
	for i := range out {
		out[i] = c.name()
	}
	if c.bad {
		return nil
	}
	return out
}

// End reports ErrCorrupt unless every read parsed and the payload is
// fully consumed.
func (c *Cursor) End() error {
	if c.bad || c.off != len(c.data) {
		return ErrCorrupt
	}
	return nil
}
