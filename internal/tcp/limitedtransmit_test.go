package tcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// RFC 3042: with a small window and a single loss, the first two
// duplicate ACKs each release a new segment, producing the third
// dupack that triggers fast retransmit — no RTO needed.
func TestLimitedTransmitAvoidsRTO(t *testing.T) {
	tn := newTestNet(t, 50*units.Mbps, 20*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 4 // small window: exactly the RFC 3042 scenario
	cfg.DelAckCount = 1 // ack every segment to keep the count simple

	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	size := 64 * units.KB
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnEstablished = func() { ep.Write(size); ep.Close() }
		return true
	}
	var rcvd int
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnDeliver = func(n int) { rcvd += n }
	client.Connect()

	// Drop exactly one early data segment: the 2nd data packet.
	dataSeen := 0
	dropped := false
	tn.down.Loss = dropNth{n: 2, seen: &dataSeen, done: &dropped}

	tn.sim.RunUntil(30 * sim.Second)
	if rcvd != size {
		t.Fatalf("received %d of %d", rcvd, size)
	}
	if !dropped {
		t.Fatal("test never dropped a packet; premise broken")
	}
	if server.Stats.Timeouts != 0 {
		t.Errorf("recovery used %d RTOs; limited transmit should have fed fast retransmit", server.Stats.Timeouts)
	}
	if server.Stats.FastRetransmits == 0 {
		t.Errorf("no fast retransmit recorded")
	}
}

// dropNth drops the n-th packet it sees (1-based), once.
type dropNth struct {
	n    int
	seen *int
	done *bool
}

func (d dropNth) Drop(*sim.RNG) bool {
	*d.seen++
	if *d.seen == d.n && !*d.done {
		*d.done = true
		return true
	}
	return false
}

var _ netem.LossModel = dropNth{}
