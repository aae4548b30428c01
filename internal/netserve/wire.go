// Package netserve is the network front-end of the serving stack: a
// zero-dependency net/http server that fronts one self-healing
// serve.Pipeline per named view schema.
//
// The wire protocol is JSON for control-plane traffic (view reads,
// listings, health, error bodies) and a small length-prefixed binary
// framing for submits, where per-request JSON encode/decode would
// dominate the cost of an op that the pipeline itself decides in
// microseconds. A submit body is a stream of op frames — the paper's
// three view updates (insert, Thm-8 delete, Thm-9 replacement) with
// tuples as constant names in view column order — and its reply is one
// result frame per op; any other submit Content-Type gets 415. An op
// frame's payload is the journal record's payload without its seq, and
// one reader, store.DecodeOp, decodes both: a frame it refuses gets a
// 400 and interns nothing. The wire is unversioned: a client from
// before the two layouts became one gets a 400 from this server, and
// the reverse.
//
// Admission rate-limits per tenant (X-Constcomp-Tenant): a token bucket
// bounds each tenant's sustained op rate. A FIFO slot bound then caps
// the submissions in flight; it and the pipelines' submit queues are
// blind to tenants, and a full queue sheds per op. Degraded reads —
// served from the last committed view while a pipeline heals — are
// surfaced explicitly via the X-Constcomp-Degraded header.
package netserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/store"
)

// Content types of the two encodings.
const (
	// ContentTypeJSON is the control-plane encoding.
	ContentTypeJSON = "application/json"
	// ContentTypeFrame is the length-prefixed binary encoding of submit
	// bodies and replies.
	ContentTypeFrame = "application/x-constcomp-frame"
)

// Protocol headers.
const (
	// HeaderTenant names the submitting tenant; absent means TenantDefault.
	HeaderTenant = "X-Constcomp-Tenant"
	// HeaderDegraded is "true" on responses served while the view's
	// pipeline is healing (or latched broken), "false" otherwise.
	HeaderDegraded = "X-Constcomp-Degraded"
	// HeaderSeq carries the store sequence number the response is
	// current as of: the last committed seq for reads, the published
	// seq after the request's batch for submits.
	HeaderSeq = "X-Constcomp-Seq"
)

// TenantDefault is the tenant ops are accounted to when the request
// carries no HeaderTenant.
const TenantDefault = "public"

// Op kinds on the wire.
const (
	KindInsert  = "insert"
	KindDelete  = "delete"
	KindReplace = "replace"
)

// WireOp is one view update in transit, the content of an op frame.
// Tuple entries are constant names in the view's column order
// (ascending attribute order, the order GET /v1/views/{name} reports
// in "attrs"). With is the replacement tuple of a replace, absent
// otherwise.
type WireOp struct {
	Kind  string
	Tuple []string
	With  []string
}

// OpResult is the fate of one submitted op. Exactly one of Applied,
// Rejected, Shed, or a non-empty Error holds: applied ops are decided
// and durable (acked); rejected ops are untranslatable under the
// constant complement (the paper's negative cases) and changed nothing;
// shed ops were refused by overload admission and may be retried.
//
// Identity refines Applied: the op was accepted as the identity
// translation (deleting a tuple the view does not hold, inserting one
// it already holds — the paper's acceptability case) and changed
// nothing. Clients tracking view state must not model an identity ack
// as a state change.
type OpResult struct {
	Applied  bool
	Identity bool
	Rejected bool
	Shed     bool
	Reason   string
	Error    string
}

// ViewResponse is the GET /v1/views/{name} reply. Rows are sorted
// lexicographically — deterministic output, byte-comparable across
// reads at the same Seq.
type ViewResponse struct {
	Name     string     `json:"name"`
	Attrs    []string   `json:"attrs"`
	Rows     [][]string `json:"rows"`
	Seq      uint64     `json:"seq"`
	Degraded bool       `json:"degraded"`
}

// ViewStatus is one entry of the GET /v1/views listing and /healthz.
type ViewStatus struct {
	Name     string `json:"name"`
	Seq      uint64 `json:"seq"`
	Degraded bool   `json:"degraded"`
}

// Binary framing. A stream is a sequence of frames, each a u32
// little-endian payload length followed by the payload. An op payload
// is the store's: the bytes a journal record holds after its seq (see
// store.DecodeOp), in the journal's primitives —
//
//	kind byte (core.UpdateKind: 0 insert, 1 delete, 2 replace)
//	uvarint name count, then per name: uvarint length + bytes   (Tuple)
//	for a replace only: a second names list                     (With)
//
// A result payload:
//
//	status byte (0 applied, 1 rejected, 2 shed, 3 error)
//	u16le length + bytes (Reason for 0/1, Error text for 3)
const (
	resultApplied  = 0
	resultRejected = 1
	resultShed     = 2
	resultError    = 3
	// resultIdentity is resultApplied refined: acknowledged, but the
	// translation was the identity and the view is unchanged.
	resultIdentity = 4

	// MaxFramePayload bounds one frame's payload; larger frames are a
	// protocol error, not an allocation request.
	MaxFramePayload = 1 << 16
	// maxFieldBytes bounds one name in an op frame, and one result
	// message.
	maxFieldBytes = 4096
)

// opKind maps a WireOp kind to the update kind its frame carries.
func opKind(kind string) (core.UpdateKind, error) {
	switch kind {
	case KindInsert:
		return core.UpdateInsert, nil
	case KindDelete:
		return core.UpdateDelete, nil
	case KindReplace:
		return core.UpdateReplace, nil
	}
	return 0, fmt.Errorf("netserve: unknown op kind %q", kind)
}

// AppendOpFrame appends op as one binary frame to dst and returns the
// extended slice.
func AppendOpFrame(dst []byte, op WireOp) ([]byte, error) {
	k, err := opKind(op.Kind)
	if err != nil {
		return nil, err
	}
	if k != core.UpdateReplace && len(op.With) != 0 {
		return nil, fmt.Errorf("netserve: %s op carries a With tuple", op.Kind)
	}
	for _, fields := range [2][]string{op.Tuple, op.With} {
		for _, f := range fields {
			if len(f) > maxFieldBytes {
				return nil, fmt.Errorf("netserve: field of %d bytes exceeds frame limit %d", len(f), maxFieldBytes)
			}
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(k))
	dst = store.AppendNames(dst, op.Tuple)
	if k == core.UpdateReplace {
		dst = store.AppendNames(dst, op.With)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// readFrame reads one length-prefixed payload. A clean EOF before the
// length prefix returns io.EOF; EOF inside a frame is ErrUnexpectedEOF.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF: clean end of stream
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFramePayload {
		return nil, fmt.Errorf("netserve: frame payload of %d bytes outside (0, %d]", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// AppendResultFrame appends res as one binary frame to dst.
func AppendResultFrame(dst []byte, res OpResult) []byte {
	status, msg := byte(resultError), res.Error
	switch {
	case res.Applied && res.Identity:
		status, msg = resultIdentity, res.Reason
	case res.Applied:
		status, msg = resultApplied, res.Reason
	case res.Rejected:
		status, msg = resultRejected, res.Reason
	case res.Shed:
		status, msg = resultShed, ""
	}
	if len(msg) > maxFieldBytes {
		msg = msg[:maxFieldBytes]
	}
	payload := make([]byte, 0, 3+len(msg))
	payload = append(payload, status)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(msg)))
	payload = append(payload, msg...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadResultFrame reads the next result frame. io.EOF marks the clean
// end of the stream.
func ReadResultFrame(r *bufio.Reader) (OpResult, error) {
	payload, err := readFrame(r)
	if err != nil {
		return OpResult{}, err
	}
	if len(payload) < 3 {
		return OpResult{}, io.ErrUnexpectedEOF
	}
	l := int(binary.LittleEndian.Uint16(payload[1:]))
	if len(payload) != 3+l {
		return OpResult{}, fmt.Errorf("netserve: result frame length mismatch")
	}
	msg := string(payload[3:])
	switch payload[0] {
	case resultApplied:
		return OpResult{Applied: true, Reason: msg}, nil
	case resultIdentity:
		return OpResult{Applied: true, Identity: true, Reason: msg}, nil
	case resultRejected:
		return OpResult{Rejected: true, Reason: msg}, nil
	case resultShed:
		return OpResult{Shed: true}, nil
	case resultError:
		return OpResult{Error: msg}, nil
	}
	return OpResult{}, fmt.Errorf("netserve: unknown result status %#x", payload[0])
}
