package tcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// Both sides closing at once (simultaneous close) must converge to
// CLOSED through the CLOSING/TIME_WAIT states.
func TestSimultaneousClose(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 5*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()

	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		return true
	}
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.Connect()
	tn.sim.RunUntil(100 * sim.Millisecond)
	if server == nil || client.State() != StateEstablished {
		t.Fatal("no established connection")
	}

	// Close both in the same instant.
	client.Close()
	server.Close()
	tn.sim.RunUntil(10 * sim.Second)

	for name, ep := range map[string]*Endpoint{"client": client, "server": server} {
		if st := ep.State(); st != StateClosed {
			t.Errorf("%s state %v after simultaneous close", name, st)
		}
	}
}

// Abort sends a RST that tears the peer down immediately.
func TestAbortResetsPeer(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 5*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()

	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	peerClosed := false
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnClosed = func() { peerClosed = true }
		ep.OnEstablished = func() { ep.Write(1 * units.MB) }
		return true
	}
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.Connect()
	tn.sim.RunUntil(50 * sim.Millisecond)

	client.Abort()
	tn.sim.RunUntil(1 * sim.Second)
	if client.State() != StateClosed {
		t.Errorf("client state %v after Abort", client.State())
	}
	if server.State() != StateClosed || !peerClosed {
		t.Errorf("server state %v, closed=%v after peer RST", server.State(), peerClosed)
	}
}

// The advertised window uses scaling: an 8 MB buffer survives the
// 16-bit wire field and lets cwnd-bound transfers run at full speed.
func TestWindowScalingAllowsLargeWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SSThresh = 0 // infinite: let the window grow huge
	// High bandwidth-delay product: 500 Mbps x 80 ms = 5 MB.
	tn := newTestNet(t, 500*units.Mbps, 40*sim.Millisecond, 0, 64*units.MB)
	size := 64 * units.MB
	_, _, done := tn.runDownload(t, size, cfg)
	// With only 64 KB of effective window (no scaling), 64 MB would
	// take 64MB/64KB*80ms = 82 s. With scaling it is bandwidth-bound:
	// ~1.1 s plus slow start.
	if done > 10*sim.Second {
		t.Errorf("64MB over a 5MB-BDP path took %v; window scaling broken", done)
	}
}

// SegmentLimit fragments exactly at the boundaries the hook dictates.
func TestSegmentLimitHonored(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 5*sim.Millisecond, 0, 4*units.MB)
	cfg := DefaultConfig()

	var sizes []int
	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	tn.server.AddTap(func(dir netem.Direction, at sim.Time, s *seg.Segment) {
		if dir == netem.Egress && s.PayloadLen > 0 {
			sizes = append(sizes, s.PayloadLen)
		}
	})

	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		// Cap every segment at 512 bytes via the hook.
		ep.SegmentLimit = func(off int64, n int) int {
			if n > 512 {
				return 512
			}
			return n
		}
		ep.OnEstablished = func() { ep.Write(8 * units.KB); ep.Close() }
		return true
	}
	var rcvd int
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnDeliver = func(n int) { rcvd += n }
	client.Connect()
	tn.sim.RunUntil(5 * sim.Second)

	if rcvd != 8*units.KB {
		t.Fatalf("received %d", rcvd)
	}
	for _, n := range sizes {
		if n > 512 {
			t.Fatalf("segment of %d bytes exceeded the 512-byte limit", n)
		}
	}
}
