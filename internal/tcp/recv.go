package tcp

import (
	"mptcplab/internal/seg"
)

// Receive processes one arriving segment. It implements netem.Handler.
func (e *Endpoint) Receive(s *seg.Segment) {
	if e.state == StateClosed {
		return
	}
	if s.Flags.Has(seg.RST) {
		e.teardown()
		return
	}
	// Give the MPTCP layer first sight of any segment carrying payload
	// or MPTCP signaling (DSS, ADD_ADDR, MP_CAPABLE on the SYN-ACK...).
	if e.OnSegmentArrival != nil && (s.PayloadLen > 0 || s.Option(seg.KindMPTCP) != nil) {
		e.OnSegmentArrival(s)
	}

	switch e.state {
	case StateSynSent:
		e.receiveSynSent(s)
		return
	case StateSynRcvd:
		if s.Flags.Has(seg.SYN) {
			// Retransmitted SYN from the peer: repeat our SYN-ACK.
			e.onRTO()
			return
		}
		if s.Flags.Has(seg.ACK) && seg.SeqGEQ(s.Ack, e.iss+1) {
			e.completeHandshake(s)
			// Fall through: data may ride on the third ACK.
		} else {
			return
		}
	case StateTimeWait:
		// Re-ACK retransmitted FINs.
		if s.Flags.Has(seg.FIN) {
			e.sendAck()
		}
		return
	}

	if s.Flags.Has(seg.SYN) {
		// Retransmitted SYN-ACK: our final ACK was lost. Re-ACK.
		e.sendAck()
		return
	}

	if s.Flags.Has(seg.ACK) {
		e.processAck(s)
	}
	if s.PayloadLen > 0 || s.Flags.Has(seg.FIN) {
		e.processPayload(s)
	}
}

func (e *Endpoint) receiveSynSent(s *seg.Segment) {
	if !s.Flags.Has(seg.SYN) || !s.Flags.Has(seg.ACK) || s.Ack != e.iss+1 {
		return
	}
	e.handleSynOptions(s)
	e.irs = s.Seq
	e.rcvNxt = s.Seq + 1
	e.completeHandshake(s)
	// Third ACK of the handshake (possibly decorated by MPTCP).
	e.sendAck()
	e.trySend()
}

// completeHandshake transitions into ESTABLISHED from either side.
func (e *Endpoint) completeHandshake(s *seg.Segment) {
	if len(e.inflight) > 0 && e.inflight[0].seq == e.iss {
		if e.inflight[0].rtx == 0 {
			rtt := e.sim.Now() - e.inflight[0].sentAt
			e.est.Sample(rtt)
			e.Stats.RTTSamples++
			if e.OnRTTSample != nil {
				e.OnRTTSample(rtt)
			}
		}
		e.clearLost(&e.inflight[0])
		e.inflight = e.inflight[1:]
	}
	e.sndUna = e.iss + 1
	e.updatePeerWindow(s)
	e.rtxTimer.Stop()
	e.state = StateEstablished
	e.HandshakeDone = e.sim.Now()
	// If Close raced the handshake, continue teardown.
	if e.finQueued {
		e.state = StateFinWait1
	}
	if e.OnEstablished != nil {
		e.OnEstablished()
	}
	e.trySend()
}

// handleSynOptions digests the peer's SYN options.
func (e *Endpoint) handleSynOptions(s *seg.Segment) {
	if o := s.Option(seg.KindWindowScale); o != nil {
		e.peerShift = o.(seg.WindowScaleOption).Shift
	}
	if o := s.Option(seg.KindMSS); o != nil {
		if m := int(o.(seg.MSSOption).MSS); m > 0 && m < e.cfg.MSS {
			e.cfg.MSS = m
		}
	}
}

// SegmentWindow reports the receive window a segment advertises, in
// bytes after descaling — the value updatePeerWindow would adopt. It
// lets connection-level flow control (MPTCP's shared window is
// relative to the data ACK, not the subflow ACK) read a window from
// the same segment that carried the data-level signaling.
func (e *Endpoint) SegmentWindow(s *seg.Segment) int64 {
	w := int64(s.Window)
	if !s.Flags.Has(seg.SYN) {
		w <<= e.peerShift
	}
	return w
}

// updatePeerWindow refreshes our notion of the peer's receive window.
func (e *Endpoint) updatePeerWindow(s *seg.Segment) {
	// RFC 793 window-update rule (simplified): a segment acknowledging
	// less than we already have acknowledged is stale — under
	// reordering its window must not overwrite a newer advertisement.
	if s.Flags.Has(seg.ACK) && seg.SeqLT(s.Ack, e.sndUna) {
		return
	}
	w := int64(s.Window)
	if !s.Flags.Has(seg.SYN) {
		w <<= e.peerShift
	}
	e.rwnd = w
}

// processAck handles the acknowledgment content of a segment.
func (e *Endpoint) processAck(s *seg.Segment) {
	e.Stats.AcksRcvd++
	e.updatePeerWindow(s)

	// Fold in SACK information.
	for _, b := range s.GetSACK() {
		if seg.SeqGT(b.End, e.sndUna) && seg.SeqLEQ(b.End, e.sndNxt) {
			e.board.Add(b)
		}
	}

	switch {
	case seg.SeqGT(s.Ack, e.sndUna) && seg.SeqLEQ(s.Ack, e.sndNxt):
		e.handleNewAck(s.Ack)
	case s.Ack == e.sndUna && e.sndNxt != e.sndUna && s.PayloadLen == 0:
		e.handleDupAck()
	}

	// ACK of our FIN drives teardown.
	if e.finQueued && seg.SeqGEQ(s.Ack, e.finSeq+1) {
		switch e.state {
		case StateFinWait1:
			e.state = StateFinWait2
		case StateClosing:
			e.enterTimeWait()
		case StateLastAck:
			e.teardown()
			return
		}
	}
	e.trySend()
	if e.OnSendReady != nil && e.SendSpace() > 0 {
		e.OnSendReady()
	}
}

// handleNewAck processes forward cumulative-ACK progress.
func (e *Endpoint) handleNewAck(ack uint32) {
	acked := int64(ack - e.sndUna)
	// Was the flow using its whole window before this ACK? Congestion
	// window growth only applies then (an app-limited MPTCP subflow
	// must not inflate cwnd it never uses and then burst).
	flight := int64(e.sndNxt - e.sndUna)
	cwndLimited := flight+int64(e.cfg.MSS) >= e.cwndBytes() || e.UnsentBytes() > 0

	e.sndUna = ack
	e.board.AdvanceUna(ack)
	e.dupAcks = 0
	e.ltmBonus = 0
	e.consecRTO = 0
	e.ackedSinceLoss += acked

	// Prune transmission records; take Karn-valid RTT samples. Records
	// are sorted and disjoint (CheckInvariants), so the fully acked
	// ones form a prefix and only the first survivor can be partially
	// acked: the walk stops there and the prefix is sliced off.
	k := 0
	for ; k < len(e.inflight); k++ {
		e.Stats.InflightScanned++
		r := &e.inflight[k]
		if seg.SeqLT(ack, r.end) {
			if seg.SeqLT(r.seq, ack) {
				if r.lost {
					e.lostBytes -= int64(ack - r.seq)
				}
				r.seq = ack // partially acked range
			}
			break
		}
		e.clearLost(r)
		if r.rtx == 0 {
			rtt := e.sim.Now() - r.sentAt
			e.est.Sample(rtt)
			e.Stats.RTTSamples++
			if e.OnRTTSample != nil {
				e.OnRTTSample(rtt)
			}
		}
	}
	e.inflight = e.inflight[k:]

	if e.inRecovery {
		if seg.SeqGEQ(ack, e.recoveryPoint) {
			e.inRecovery = false
		} else {
			// NewReno partial ACK: the next hole is lost too.
			e.markFirstHoleLost()
		}
	} else if cwndLimited {
		e.growCwnd(acked)
	}

	e.restartRTX()
	if e.OnAcked != nil && acked > 0 {
		e.OnAcked(acked)
	}
}

// growCwnd applies slow start below ssthresh and the configured
// congestion controller above it.
func (e *Endpoint) growCwnd(ackedBytes int64) {
	ackedPkts := float64(ackedBytes) / float64(e.cfg.MSS)
	if e.cwnd < e.ssthresh {
		// Slow start: one packet per packet acked (doubles per RTT).
		e.cwnd += ackedPkts
		if e.cwnd > e.ssthresh {
			e.cwnd = e.ssthresh
		}
		return
	}
	e.cwnd += e.cfg.Controller.Increase(e.ccFlows, e.ccSelf, ackedPkts)
	if e.cwnd < 1 {
		e.cwnd = 1
	}
}

// handleDupAck counts duplicate ACKs and triggers fast retransmit.
func (e *Endpoint) handleDupAck() {
	e.dupAcks++
	if e.inRecovery {
		// Fresh SACK info may reveal more losses.
		e.markSackHolesLost()
		e.trySend()
		return
	}
	if e.dupAcks >= 3 || e.board.SackedAbove(e.sndUna) >= 3*int64(e.cfg.MSS) {
		e.ltmBonus = 0
		e.enterRecovery()
		return
	}
	// RFC 3042 limited transmit: the first two duplicate ACKs each
	// release one new segment, keeping the ACK clock alive so small
	// windows can still reach fast retransmit instead of an RTO —
	// which matters for exactly the short lossy-WiFi flows of §4.1.
	e.ltmBonus = int64(e.dupAcks) * int64(e.cfg.MSS)
	e.trySend()
}

// enterRecovery starts fast retransmit / fast recovery: one window
// reduction per round trip of loss, using the coupled controller's
// decrease.
func (e *Endpoint) enterRecovery() {
	e.inRecovery = true
	e.recoveryPoint = e.sndNxt
	e.Stats.FastRetransmits++
	e.noteLossEvent()

	newCwnd := e.cfg.Controller.OnLoss(e.ccFlows, e.ccSelf)
	e.ssthresh = newCwnd
	if e.ssthresh < 2 {
		e.ssthresh = 2
	}
	e.cwnd = e.ssthresh

	e.markFirstHoleLost()
	e.markSackHolesLost()
	e.trySend()
}

// markFirstHoleLost marks the range at sndUna for retransmission.
// Records are sorted, disjoint and start at or above sndUna, so only
// the first can begin at it.
func (e *Endpoint) markFirstHoleLost() {
	if len(e.inflight) == 0 {
		return
	}
	e.Stats.InflightScanned++
	r := &e.inflight[0]
	if r.seq == e.sndUna && !e.board.IsSacked(r.seq, r.end) {
		if r.rtx == 0 || !e.inRecovery {
			e.markLost(r)
		}
	}
}

// markSackHolesLost applies the RFC 6675 loss heuristic: a hole with
// at least 3*MSS SACKed above it is lost. SACKed bytes above a record
// only shrink as records ascend, so the walk stops at the first record
// that falls short.
func (e *Endpoint) markSackHolesLost() {
	thresh := 3 * int64(e.cfg.MSS)
	for i := range e.inflight {
		e.Stats.InflightScanned++
		r := &e.inflight[i]
		if r.lost || r.rtx > 0 {
			continue
		}
		if e.board.IsSacked(r.seq, r.end) {
			continue
		}
		if e.board.SackedAbove(r.end) < thresh {
			return
		}
		e.markLost(r)
	}
}

// processPayload handles in-order delivery, reordering, duplicates,
// and FIN consumption.
func (e *Endpoint) processPayload(s *seg.Segment) {
	if s.PayloadLen > 0 {
		e.Stats.DataPktsRcvd++
		e.Stats.BytesRcvd += int64(s.PayloadLen)
	}

	start := s.Seq
	end := s.Seq + uint32(s.PayloadLen)
	if s.Flags.Has(seg.FIN) {
		e.finRcvd = true
		e.finRcvdSeq = end
		end++ // FIN occupies one sequence unit
	}

	switch {
	case seg.SeqLEQ(end, e.rcvNxt):
		// Entire segment is old: duplicate, re-ACK immediately.
		e.Stats.DupPktsRcvd++
		e.scheduleAck(true)
		return
	case seg.SeqLEQ(start, e.rcvNxt):
		// In-order (possibly with a stale prefix).
		hadHoles := e.ooo.BufferedBytes() > 0
		old := e.rcvNxt
		e.rcvNxt = end
		e.rcvNxt = e.ooo.NextContiguous(e.rcvNxt)
		e.deliverAdvance(old, e.rcvNxt)
		// Filling a hole warrants an immediate ACK so the sender's
		// recovery sees progress quickly.
		e.scheduleAck(hadHoles)
	default:
		// Out of order: buffer and send an immediate duplicate ACK.
		if e.ooo.Contains(start, end) {
			e.Stats.DupPktsRcvd++
		} else {
			e.ooo.Add(start, end)
		}
		e.scheduleAck(true)
	}

	e.checkRemoteClose()
}

// deliverAdvance reports newly in-order payload bytes to the app,
// excluding the FIN's sequence unit.
func (e *Endpoint) deliverAdvance(old, new uint32) {
	n := int64(new - old)
	if n <= 0 {
		return
	}
	if e.finRcvd && seg.SeqGT(new, e.finRcvdSeq) {
		n--
	}
	if n > 0 && e.OnDeliver != nil {
		e.OnDeliver(int(n))
	}
}

// checkRemoteClose applies FIN-driven state transitions once the FIN
// is consumed in order.
func (e *Endpoint) checkRemoteClose() {
	if !e.finRcvd || seg.SeqLT(e.rcvNxt, e.finRcvdSeq+1) {
		return
	}
	switch e.state {
	case StateEstablished:
		e.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		e.state = StateClosing
	case StateFinWait2:
		e.enterTimeWait()
		e.sendAck()
	}
}
