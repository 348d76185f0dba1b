package tcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// testNet wires a client and server host through symmetric links.
type testNet struct {
	sim      *sim.Simulator
	net      *netem.Network
	client   *netem.Host
	server   *netem.Host
	up, down *netem.Link
	cAddr    seg.Addr
	sAddr    seg.Addr
	rng      *sim.RNG
}

func newTestNet(t testing.TB, rate units.BitRate, prop sim.Time, loss float64, queue units.ByteCount) *testNet {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(42)
	n := netem.NewNetwork(s)
	client := n.NewHost("client")
	server := n.NewHost("server")

	up := netem.NewLink(s, rng, "up")
	up.Rate = rate
	up.PropDelay = prop
	up.QueueLimit = queue
	down := netem.NewLink(s, rng, "down")
	down.Rate = rate
	down.PropDelay = prop
	down.QueueLimit = queue
	if loss > 0 {
		down.Loss = netem.BernoulliLoss{P: loss}
	}

	cAddr := seg.MakeAddr("10.0.0.2", 40000)
	sAddr := seg.MakeAddr("192.168.1.1", 8080)
	n.AddDuplexRoute(cAddr.IP, sAddr.IP, client, server, []*netem.Link{up}, []*netem.Link{down})
	return &testNet{sim: s, net: n, client: client, server: server,
		up: up, down: down, cAddr: cAddr, sAddr: sAddr, rng: rng}
}

// armChecker runs CheckInvariants on the given endpoints after every
// simulator event and fails the test at the first violation, so every
// cached value (lostBytes among them) is cross-checked against a full
// recomputation throughout the run. Endpoints are passed by address so
// that one created mid-run, like a listener's accepted endpoint, is
// checked from the moment it exists.
func (tn *testNet) armChecker(t testing.TB, eps ...**Endpoint) {
	tn.sim.SetWatchdog(1, func() error {
		for _, ep := range eps {
			if *ep == nil {
				continue
			}
			if err := (*ep).CheckInvariants(); err != nil {
				t.Fatalf("at %v: %v", tn.sim.Now(), err)
			}
		}
		return nil
	})
}

// runDownload performs a server->client transfer of size bytes with
// the invariant checker armed and returns (client endpoint, server
// endpoint, completion time).
func (tn *testNet) runDownload(t testing.TB, size int, cfg Config) (*Endpoint, *Endpoint, sim.Time) {
	t.Helper()
	var serverEP, client *Endpoint
	var rcvd int
	tn.armChecker(t, &client, &serverEP)
	var done sim.Time = -1

	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		serverEP = ep
		ep.OnEstablished = func() {
			ep.Write(size)
			ep.Close()
		}
		return true
	}

	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnDeliver = func(n int) {
		rcvd += n
		if rcvd >= size && done < 0 {
			done = tn.sim.Now()
			client.Close()
		}
	}
	client.Connect()

	tn.sim.RunUntil(10 * 60 * sim.Second)
	if rcvd != size {
		t.Fatalf("received %d of %d bytes (client=%v server=%v)", rcvd, size, client, serverEP)
	}
	if done < 0 {
		t.Fatalf("download never completed")
	}
	return client, serverEP, done
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	client, server, done := tn.runDownload(t, 8*units.KB, DefaultConfig())

	// 8 KB fits in the initial window: SYN, SYN-ACK, ACK, data, so
	// roughly 2 RTTs (40 ms) plus serialization.
	if done > 100*sim.Millisecond {
		t.Errorf("8KB download took %v, want < 100ms", done)
	}
	if server.Stats.DataPktsRetrans != 0 {
		t.Errorf("unexpected retransmissions: %d", server.Stats.DataPktsRetrans)
	}
	if client.Stats.DataPktsRcvd == 0 {
		t.Errorf("client counted no data packets")
	}
}

func TestLossyTransferCompletes(t *testing.T) {
	tn := newTestNet(t, 20*units.Mbps, 15*sim.Millisecond, 0.02, 1*units.MB)
	_, server, _ := tn.runDownload(t, 2*units.MB, DefaultConfig())
	if server.Stats.DataPktsRetrans == 0 {
		t.Errorf("expected retransmissions on a 2%% lossy path")
	}
	lr := server.Stats.LossRate()
	if lr < 0.005 || lr > 0.10 {
		t.Errorf("loss rate %.3f implausible for p=0.02", lr)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	tn := newTestNet(t, 10*units.Mbps, 20*sim.Millisecond, 0, 512*units.KB)
	size := 4 * units.MB
	_, _, done := tn.runDownload(t, size, DefaultConfig())

	ideal := units.BitRate(10 * units.Mbps).TransmitTime(units.ByteCount(size))
	if done > 3*ideal {
		t.Errorf("4MB over 10Mbps took %v, ideal %v: not using the link", done, ideal)
	}
}

func TestRTTInflationFromBufferbloat(t *testing.T) {
	// Slow link with a deep queue: SRTT should grow well beyond the
	// propagation RTT once congestion avoidance fills the buffer.
	tn := newTestNet(t, 8*units.Mbps, 30*sim.Millisecond, 0, 2*units.MB)
	var maxRTT sim.Time
	cfg := DefaultConfig()
	var server, client *Endpoint
	tn.armChecker(t, &client, &server)

	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	var size = 8 * units.MB
	var rcvd int
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnRTTSample = func(rtt sim.Time) {
			if rtt > maxRTT {
				maxRTT = rtt
			}
		}
		ep.OnEstablished = func() { ep.Write(size); ep.Close() }
		return true
	}
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnDeliver = func(n int) { rcvd += n }
	client.Connect()
	tn.sim.RunUntil(5 * 60 * sim.Second)

	if rcvd != size {
		t.Fatalf("received %d of %d", rcvd, size)
	}
	if maxRTT < 100*sim.Millisecond {
		t.Errorf("max RTT %v; want bufferbloat above 100ms (base 60ms)", maxRTT)
	}
}

func TestSsthreshLimitsSlowStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SSThresh = 64 * units.KB
	tn := newTestNet(t, 100*units.Mbps, 20*sim.Millisecond, 0, 4*units.MB)
	_, server, _ := tn.runDownload(t, 1*units.MB, cfg)
	// After slow start capped at 64KB/1460 ≈ 44 packets, growth is
	// linear; cwnd should not explode.
	if server.Cwnd() > 500 {
		t.Errorf("cwnd %f implausibly large with 64KB ssthresh", server.Cwnd())
	}
}

func TestCleanClose(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 5*sim.Millisecond, 0, 1*units.MB)
	client, server, _ := tn.runDownload(t, 64*units.KB, DefaultConfig())
	tn.sim.RunUntil(tn.sim.Now() + 5*sim.Second)
	if got := client.State(); got != StateClosed && got != StateTimeWait {
		t.Errorf("client state %v after close", got)
	}
	if got := server.State(); got != StateClosed && got != StateTimeWait {
		t.Errorf("server state %v after close", got)
	}
}

func TestRTOAfterTotalBlackout(t *testing.T) {
	// 100% loss on the data direction after establishment forces RTOs.
	tn := newTestNet(t, 10*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	cfg := DefaultConfig()

	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnEstablished = func() { ep.Write(4 * units.MB) }
		return true
	}
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.Connect()
	tn.sim.RunUntil(60 * sim.Millisecond)
	// Blackout.
	tn.down.Loss = netem.BernoulliLoss{P: 1}
	tn.sim.RunUntil(10 * sim.Second)
	if server == nil {
		t.Fatal("no server endpoint")
	}
	if server.Stats.Timeouts == 0 {
		t.Errorf("expected RTO timeouts during blackout")
	}
	if server.Cwnd() > 2 {
		t.Errorf("cwnd %f should have collapsed during blackout", server.Cwnd())
	}
}

func TestRTTSamplesExcludeRetransmits(t *testing.T) {
	tn := newTestNet(t, 20*units.Mbps, 25*sim.Millisecond, 0.03, 1*units.MB)
	cfg := DefaultConfig()
	samples := 0
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	var server, client *Endpoint
	tn.armChecker(t, &client, &server)
	size := 1 * units.MB
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnRTTSample = func(rtt sim.Time) {
			samples++
			if rtt < 50*sim.Millisecond {
				t.Errorf("RTT sample %v below propagation floor 50ms", rtt)
			}
		}
		ep.OnEstablished = func() { ep.Write(size); ep.Close() }
		return true
	}
	var rcvd int
	client = NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.OnDeliver = func(n int) { rcvd += n }
	client.Connect()
	tn.sim.RunUntil(5 * 60 * sim.Second)
	if rcvd != size {
		t.Fatalf("received %d of %d", rcvd, size)
	}
	if samples == 0 {
		t.Fatal("no RTT samples")
	}
	if server.Stats.RTTSamples != uint64(samples) {
		t.Errorf("stats RTTSamples=%d, callback saw %d", server.Stats.RTTSamples, samples)
	}
}
