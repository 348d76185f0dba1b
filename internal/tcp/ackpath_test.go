package tcp

import (
	"fmt"
	"strings"
	"testing"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// TestCheckInvariantsCatchesLostBytesDrift corrupts the cached
// lost-byte sum by one byte at the first instant a lossy transfer has
// records marked lost, and expects the checker to notice.
func TestCheckInvariantsCatchesLostBytesDrift(t *testing.T) {
	tn := newTestNet(t, 20*units.Mbps, 15*sim.Millisecond, 0.02, 1*units.MB)
	cfg := DefaultConfig()

	var server *Endpoint
	lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
	lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
		server = ep
		ep.OnEstablished = func() { ep.Write(1 * units.MB); ep.Close() }
		return true
	}
	client := NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
	client.Connect()

	probed := false
	tn.sim.SetWatchdog(1, func() error {
		if server == nil || server.lostBytes == 0 || probed {
			return nil
		}
		probed = true
		if err := server.CheckInvariants(); err != nil {
			t.Fatalf("uncorrupted endpoint failed the checker: %v", err)
		}
		server.lostBytes++
		err := server.CheckInvariants()
		server.lostBytes--
		if err == nil || !strings.Contains(err.Error(), "lostBytes") {
			t.Fatalf("lostBytes off by one: checker returned %v, want a lostBytes drift error", err)
		}
		return nil
	})
	tn.sim.RunUntil(60 * sim.Second)
	if !probed {
		t.Fatal("no record was ever marked lost; premise broken")
	}
}

// TestInflightScannedPerAck pins the per-ACK work counter of one seeded
// lossy download (2% loss, 1 MB). An ACK visits the records it acks
// plus the first survivor, about 3 here; loss recovery adds the RFC
// 6675 hole walk over SACKed records and the retransmit walk to the
// next lost record, for 9.01 in all. A send path that walks the whole
// window in each of those loops visits 32.4 per ACK on this transfer.
func TestInflightScannedPerAck(t *testing.T) {
	tn := newTestNet(t, 20*units.Mbps, 15*sim.Millisecond, 0.02, 1*units.MB)
	_, server, _ := tn.runDownload(t, 1*units.MB, DefaultConfig())

	const wantAcks, wantScanned, maxPerAck = 481, 4336, 12
	st := server.Stats
	if st.AcksRcvd != wantAcks || st.InflightScanned != wantScanned {
		t.Errorf("AcksRcvd=%d InflightScanned=%d, want %d and %d",
			st.AcksRcvd, st.InflightScanned, wantAcks, wantScanned)
	}
	if ratio := float64(st.InflightScanned) / float64(st.AcksRcvd); ratio > maxPerAck {
		t.Errorf("%.2f inflight records scanned per ACK, want at most %d", ratio, maxPerAck)
	}
}

// BenchmarkTCPAckPath measures the sender's per-ACK cost against the
// number of records in flight. The window is bounded by the receive
// buffer on a link whose bandwidth-delay product (1 Gbps x 80 ms,
// ~6,800 segments) and queue exceed every size, so the flight holds
// the stated number of records with no loss and the transfer is a
// steady ACK clock: ns/ACK isolates the prune, pipe and send work one
// ACK costs.
func BenchmarkTCPAckPath(b *testing.B) {
	for _, records := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("inflight=%d", records), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.SSThresh = 0
			cfg.RcvBuf = units.ByteCount(records * cfg.MSS)
			size := 32 * units.MB
			b.ReportAllocs()
			var acks, scanned uint64
			for i := 0; i < b.N; i++ {
				tn := newTestNet(b, units.Gbps, 40*sim.Millisecond, 0, 64*units.MB)
				var server *Endpoint
				lis := Listen(tn.server, tn.net, tn.sAddr.Port, cfg, tn.rng.Child("server"))
				lis.OnAccept = func(ep *Endpoint, syn *seg.Segment) bool {
					server = ep
					ep.OnEstablished = func() { ep.Write(size); ep.Close() }
					return true
				}
				var rcvd int
				client := NewEndpoint(tn.client, tn.net, tn.cAddr, tn.sAddr, cfg, tn.rng.Child("client"))
				client.OnDeliver = func(n int) { rcvd += n }
				client.Connect()
				tn.sim.Run()
				if rcvd != size {
					b.Fatalf("received %d of %d bytes", rcvd, size)
				}
				acks += server.Stats.AcksRcvd
				scanned += server.Stats.InflightScanned
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acks), "ns/ACK")
			b.ReportMetric(float64(scanned)/float64(acks), "scanned/ack")
		})
	}
}
