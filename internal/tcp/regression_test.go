package tcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// TestLoneSegmentLossRecovers regression-tests a timer bug: when the
// very first (and only) data segment after the handshake was lost, the
// retransmission timer had been disarmed because armRTX ran before
// sndNxt advanced, deadlocking the connection forever.
func TestLoneSegmentLossRecovers(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()

	var serverGot int
	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnDeliver = func(n int) { serverGot += n }
		return true
	}

	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnEstablished = func() { client.Write(160) }
	client.Connect()

	// Drop the first data-bearing uplink packet by blacking out the
	// uplink for the instant the request crosses it: run to just after
	// establishment, lose everything for a moment, then restore.
	tn.sim.RunUntil(20 * sim.Millisecond) // handshake done at ~20ms
	tn.up.Loss = netem.BernoulliLoss{P: 1}
	tn.sim.RunUntil(25 * sim.Millisecond) // request transmitted & lost
	tn.up.Loss = netem.NoLoss{}
	tn.sim.RunUntil(30 * sim.Second)

	if serverGot != 160 {
		t.Fatalf("server received %d of 160 bytes; lone-segment loss not recovered", serverGot)
	}
	if client.Stats.Timeouts == 0 {
		t.Errorf("expected an RTO to drive recovery")
	}
}
