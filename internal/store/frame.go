package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Frame format, shared by every checksummed record this repository
// writes to disk — journal records, the shard txlog's records, and the
// single body of a snapshot image:
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
// the one reading it back.

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameHeaderLen is the size of a frame's length + checksum header.
const FrameHeaderLen = 8

// maxRecordPayload bounds one log record (journal or txlog); a declared
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

// AppendFrame appends one frame carrying payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
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

// ScanFrames hands each intact record payload at the front of a log
// image to fn, in order, until the bytes run out or stop checking out.
// It returns the offset just past the last payload fn accepted, and why
// it stopped: nil when every byte was consumed, ErrTorn or ErrCorrupt
// for a damaged frame, or fn's own error, which leaves the frame fn
// refused outside the good prefix. It never reads past data.
func ScanFrames(data []byte, fn func(payload []byte) error) (int64, error) {
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
