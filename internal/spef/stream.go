package spef

import (
	"io"
	"sync"

	"eedtree/internal/guard"
)

// Stream reads a SPEF file one *D_NET at a time with memory bounded by
// the largest single net, not the file: full-chip files hold millions of
// nets, and the streaming pipeline (internal/engine.RunPipeline) analyzes
// and discards each net as it arrives instead of materializing the design.
//
// Stream and Parse share one grammar — Parse is implemented as a Stream
// drained into a File — so the two paths accept the same inputs and
// produce bit-identical values. Errors carry the same guard taxonomy
// (guard.ErrParse for syntax, guard.ErrLimit for oversized input) with
// the offending line number.
//
// Nets are drawn from a process-wide sync.Pool; a caller that is done
// with a net (and everything reachable from it: Conns, Caps, Ress,
// Inducs slices) should hand it back with Recycle so a long streaming
// run reuses a bounded working set of backing arrays instead of
// allocating per net.
type Stream struct {
	p   *parser
	err error // sticky: io.EOF after a clean end, else the first failure
}

// NewStream opens a stream over r under guard.DefaultLimits.
func NewStream(r io.Reader) *Stream { return StreamLimits(r, guard.Limits{}) }

// StreamLimits is NewStream under explicit input limits (zero fields mean
// the defaults): MaxLineBytes bounds line length, MaxNets the number of
// *D_NET sections yielded, and MaxElements the total parasitic entry
// count across the whole stream.
func StreamLimits(r io.Reader, lim guard.Limits) *Stream {
	return &Stream{p: newParser(r, lim)}
}

// Next returns the next *D_NET section of the input. It returns io.EOF
// after the last net; any other error is sticky and terminates the
// stream. Header directives, *NAME_MAP entries and *PORTS entries
// encountered along the way accumulate and are visible through Header,
// Units and Ports.
func (s *Stream) Next() (*Net, error) {
	if s.err != nil {
		return nil, s.err
	}
	n, err := s.p.nextNet()
	if err != nil {
		s.err = err
		return nil, err
	}
	if n == nil {
		s.err = io.EOF
		return nil, io.EOF
	}
	return n, nil
}

// Header returns the header directives seen so far (directive without
// '*' → raw value). In a well-formed SPEF file the whole header precedes
// the first *D_NET, so the map is complete once Next has returned once.
func (s *Stream) Header() map[string]string { return s.p.file.Header }

// Units returns the unit multipliers in effect for the most recently
// yielded net. Unit directives precede the first *D_NET in well-formed
// files, making this stable across the stream.
func (s *Stream) Units() Units { return s.p.file.Units }

// Ports returns the *PORTS entries seen so far.
func (s *Stream) Ports() []Port { return s.p.file.Ports }

// Nets returns how many *D_NET sections Next has yielded.
func (s *Stream) Nets() int { return s.p.nets }

// netPool recycles Net values and their element slices across a
// streaming run: Recycle returns a net here, and the parser's *D_NET
// handler draws from it, so steady-state streaming allocates only the
// net's name and one string per distinct node, keeping RSS flat with
// net count.
var netPool = sync.Pool{New: func() any { return new(Net) }}

// newNet returns a reset Net, reusing pooled backing arrays when
// available.
func newNet() *Net {
	n := netPool.Get().(*Net)
	n.Name, n.TotalCap = "", 0
	n.Conns = n.Conns[:0]
	n.Caps = n.Caps[:0]
	n.Ress = n.Ress[:0]
	n.Inducs = n.Inducs[:0]
	n.nodes = n.nodes[:0]
	return n
}

// Recycle returns a net obtained from Next to the reuse pool. The caller
// must not touch n, or any slice obtained from it, afterwards.
func (s *Stream) Recycle(n *Net) { RecycleNet(n) }

// RecycleNet returns a net to the process-wide reuse pool; see
// Stream.Recycle. It accepts nets from any stream (the pool is shared)
// and tolerates nil.
func RecycleNet(n *Net) {
	if n == nil {
		return
	}
	clear(n.nodes) // a pooled net keeps no node names alive
	n.nodes = n.nodes[:0]
	netPool.Put(n)
}
