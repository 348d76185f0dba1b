package tcp

import (
	"fmt"
	"math"

	"mptcplab/internal/seg"
)

// CheckInvariants verifies the endpoint's internal consistency: send
// and receive sequence ordering, congestion-state sanity, and
// scoreboard structure. It is the invariant checker's observation
// point into TCP state and costs nothing unless called.
func (e *Endpoint) CheckInvariants() error {
	if e.state == StateClosed || e.state == StateListen {
		return nil
	}

	// Congestion state: finite, and never below one packet once the
	// connection is initialized.
	if math.IsNaN(e.cwnd) || math.IsInf(e.cwnd, 0) {
		return fmt.Errorf("tcp %v: cwnd is %v", e.Local, e.cwnd)
	}
	if e.cwnd < 0.5 {
		return fmt.Errorf("tcp %v: cwnd %.3f below minimum", e.Local, e.cwnd)
	}
	if math.IsNaN(e.ssthresh) || e.ssthresh <= 0 {
		return fmt.Errorf("tcp %v: ssthresh %v out of range", e.Local, e.ssthresh)
	}
	if e.rwnd < 0 {
		return fmt.Errorf("tcp %v: negative peer window %d", e.Local, e.rwnd)
	}

	// Send space: iss <= una <= nxt <= bufEnd (+1 for a queued FIN).
	if !seg.SeqLEQ(e.sndUna, e.sndNxt) {
		return fmt.Errorf("tcp %v: sndUna %d beyond sndNxt %d", e.Local, e.sndUna, e.sndNxt)
	}
	limit := e.sndBufEnd
	if e.finQueued {
		limit++
	}
	if !seg.SeqLEQ(e.sndNxt, limit) {
		return fmt.Errorf("tcp %v: sndNxt %d beyond send buffer end %d", e.Local, e.sndNxt, limit)
	}

	// In-flight ranges: sorted, disjoint, within (una, nxt]. The same
	// pass recomputes the lost-byte sum pipe() reads from lostBytes.
	prev := e.sndUna
	var lost int64
	for i, r := range e.inflight {
		if r.lost {
			lost += int64(r.end - r.seq)
		}
		if !seg.SeqLT(r.seq, r.end) {
			return fmt.Errorf("tcp %v: inflight[%d] empty [%d,%d)", e.Local, i, r.seq, r.end)
		}
		if !seg.SeqLEQ(prev, r.seq) {
			return fmt.Errorf("tcp %v: inflight[%d] start %d overlaps previous end %d", e.Local, i, r.seq, prev)
		}
		if !seg.SeqLEQ(r.end, e.sndNxt) {
			return fmt.Errorf("tcp %v: inflight[%d] end %d beyond sndNxt %d", e.Local, i, r.end, e.sndNxt)
		}
		prev = r.end
	}
	if lost != e.lostBytes {
		return fmt.Errorf("tcp %v: lostBytes %d, but lost records sum to %d", e.Local, e.lostBytes, lost)
	}

	// SACK scoreboard: sorted, disjoint, above una, at or below nxt.
	prev = e.sndUna
	for i, r := range e.board.ranges {
		if !seg.SeqLT(r.Start, r.End) {
			return fmt.Errorf("tcp %v: sack range %d empty [%d,%d)", e.Local, i, r.Start, r.End)
		}
		if !seg.SeqLEQ(prev, r.Start) {
			return fmt.Errorf("tcp %v: sack range %d start %d overlaps %d", e.Local, i, r.Start, prev)
		}
		if !seg.SeqLEQ(r.End, e.sndNxt) {
			return fmt.Errorf("tcp %v: sack range %d end %d beyond sndNxt %d", e.Local, i, r.End, e.sndNxt)
		}
		prev = r.End
	}

	// Receive side: out-of-order spans strictly above rcvNxt, sorted,
	// disjoint.
	prev = e.rcvNxt
	for i, r := range e.ooo.ranges {
		if !seg.SeqLT(r.Start, r.End) {
			return fmt.Errorf("tcp %v: ooo range %d empty [%d,%d)", e.Local, i, r.Start, r.End)
		}
		if i == 0 && !seg.SeqLT(prev, r.Start) {
			return fmt.Errorf("tcp %v: ooo range starts at %d, not above rcvNxt %d", e.Local, r.Start, prev)
		}
		if !seg.SeqLEQ(prev, r.Start) {
			return fmt.Errorf("tcp %v: ooo range %d start %d overlaps %d", e.Local, i, r.Start, prev)
		}
		prev = r.End
	}
	return nil
}
