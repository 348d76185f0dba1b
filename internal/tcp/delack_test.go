package tcp

import (
	"testing"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// Delayed ACKs batch roughly two data segments per ACK on a clean
// bulk transfer.
func TestDelayedAcksBatch(t *testing.T) {
	tn := newTestNet(t, 50*units.Mbps, 10*sim.Millisecond, 0, 2*units.MB)
	_, server, _ := tn.runDownload(t, 2*units.MB, DefaultConfig())
	ratio := float64(server.Stats.AcksRcvd) / float64(server.Stats.DataPktsSent)
	if ratio > 0.75 {
		t.Errorf("acks/data = %.2f; delayed ACKs not batching", ratio)
	}
	if ratio < 0.3 {
		t.Errorf("acks/data = %.2f; implausibly few ACKs", ratio)
	}
}

// The delayed-ACK flush timer bounds ACK latency for odd trailing
// segments: a single small write gets acknowledged within the timeout
// even though the 2-segment threshold is never reached.
func TestDelayedAckFlushTimer(t *testing.T) {
	tn := newTestNet(t, 50*units.Mbps, 5*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()

	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnEstablished = func() { ep.Write(500) } // one lone segment
		return true
	}
	var ackedAt sim.Time = -1
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.Connect()
	tn.sim.RunUntil(30 * sim.Millisecond) // established + data delivered
	if server == nil || server.UnackedBytes() == 0 {
		t.Skip("segment already acknowledged; timing premise not met")
	}
	for i := 0; i < 100 && ackedAt < 0; i++ {
		tn.sim.RunFor(sim.Millisecond)
		if server.UnackedBytes() == 0 {
			ackedAt = tn.sim.Now()
		}
	}
	if ackedAt < 0 {
		t.Fatal("lone segment never acknowledged")
	}
	// 40ms delack timeout + one-way delay: well under 100ms.
	if ackedAt > 100*sim.Millisecond {
		t.Errorf("lone segment acked at %v; flush timer too slow", ackedAt)
	}
}
