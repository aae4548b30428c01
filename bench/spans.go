package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"sync/atomic"
)

// SpanName identifies the layer boundary a span was recorded at. Every
// span is recorded by the benchmark's own code around a call into the
// program; nothing inside the program is instrumented.
type SpanName uint8

// Span names, one per boundary the benchmark wraps.
const (
	SpanClientSubmit SpanName = iota + 1
	SpanClientRead
	SpanNetHandler
	SpanServeApplyAsync
	SpanServeWait
	SpanFSWrite
	SpanFSSync
	SpanFSRename
	SpanFSSyncDir
	SpanStoreRecover
	SpanCoreReplayApply
)

var spanNames = [...]string{
	SpanClientSubmit:    "client.submit",
	SpanClientRead:      "client.read",
	SpanNetHandler:      "netserve.handler",
	SpanServeApplyAsync: "serve.apply_async",
	SpanServeWait:       "serve.wait",
	SpanFSWrite:         "store.fs.write",
	SpanFSSync:          "store.fs.sync",
	SpanFSRename:        "store.fs.rename",
	SpanFSSyncDir:       "store.fs.syncdir",
	SpanStoreRecover:    "store.recover",
	SpanCoreReplayApply: "core.replay_apply",
}

func (n SpanName) String() string {
	if int(n) < len(spanNames) && spanNames[n] != "" {
		return spanNames[n]
	}
	return "unknown"
}

// Span is one timed call across a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); IDs are 1-based slot indices.
type Span struct {
	ID     uint64
	Parent uint64
	Name   SpanName
	Start  int64 // obs.NowNS reading
	End    int64
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Spans is a preallocated in-memory span buffer, safe for concurrent
// recording: each Reserve claims a distinct slot with one atomic add,
// so recording never allocates or locks. Spans past the capacity are
// counted and dropped. A nil *Spans is the disabled tracer: Reserve
// returns 0 and Fill does nothing, so untraced runs pay one nil check.
type Spans struct {
	buf     []Span
	next    atomic.Int64
	dropped atomic.Int64
}

// NewSpans returns a buffer holding up to capacity spans.
func NewSpans(capacity int) *Spans { return &Spans{buf: make([]Span, capacity)} }

// Reserve claims a span ID before the span ends, so that children
// recorded elsewhere (another goroutine, the server side of a request)
// can name it as their parent. It returns 0 when tracing is off or the
// buffer is full.
func (s *Spans) Reserve() uint64 {
	if s == nil {
		return 0
	}
	i := s.next.Add(1)
	if int(i) > len(s.buf) {
		s.dropped.Add(1)
		return 0
	}
	return uint64(i)
}

// Fill writes the span for a reserved ID. Each ID is filled at most once,
// by the goroutine that reserved it.
func (s *Spans) Fill(id uint64, name SpanName, parent uint64, start, end int64) {
	if s == nil || id == 0 {
		return
	}
	s.buf[id-1] = Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// Record reserves and fills a finished span in one call.
func (s *Spans) Record(name SpanName, parent uint64, start, end int64) uint64 {
	id := s.Reserve()
	s.Fill(id, name, parent, start, end)
	return id
}

// All returns the recorded spans. Call it only after every recording
// goroutine has finished.
func (s *Spans) All() []Span {
	if s == nil {
		return nil
	}
	n := int(s.next.Load())
	if n > len(s.buf) {
		n = len(s.buf)
	}
	return s.buf[:n]
}

// Dropped counts spans that did not fit the buffer.
func (s *Spans) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Durations returns the durations in microseconds of the spans named
// name, optionally restricted to those whose parent is named parent
// (0 for any parent).
func Durations(spans []Span, name, parent SpanName) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		if parent != 0 && (sp.Parent == 0 || spans[sp.Parent-1].Name != parent) {
			continue
		}
		out = append(out, float64(sp.Dur())/1e3)
	}
	return out
}

// SelfTimes returns, for every span named child whose parent is named
// parent, the parent's duration minus the child's in microseconds: the
// time the parent spent outside the child, e.g. a client round trip
// minus the server handler — the network and HTTP stack.
func SelfTimes(spans []Span, parent, child SpanName) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name != child || sp.Parent == 0 {
			continue
		}
		p := spans[sp.Parent-1]
		if p.Name != parent || p.ID == 0 {
			continue
		}
		out = append(out, float64(p.Dur()-sp.Dur())/1e3)
	}
	return out
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if sp.ID == 0 {
			continue // reserved but never filled
		}
		if err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{sp.ID, sp.Parent, sp.Name.String(), sp.Start, sp.End}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
