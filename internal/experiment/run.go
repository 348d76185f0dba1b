package experiment

import (
	"fmt"
	"strings"
	"time"

	"mptcplab/internal/cc"
	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/trace"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
)

// Transport selects the paper's connection configurations (§3.2).
type Transport int

// Transports.
const (
	SPWiFi Transport = iota // single-path TCP over WiFi
	SPCell                  // single-path TCP over the cellular device
	MP2                     // 2-path MPTCP (WiFi default + cellular)
	MP4                     // 4-path MPTCP (both client ifaces x both server ifaces)
)

// String names the transport as the paper's figure legends do.
func (t Transport) String() string {
	switch t {
	case SPWiFi:
		return "SP-WiFi"
	case SPCell:
		return "SP-Cell"
	case MP2:
		return "MP-2"
	case MP4:
		return "MP-4"
	default:
		return "?"
	}
}

// RunConfig describes one download measurement.
type RunConfig struct {
	Transport  Transport
	Controller string // "reno", "coupled", "olia" (default coupled)
	Scheduler  string // scheduler plugin spec (default minrtt)
	Size       units.ByteCount

	SimultaneousSYN bool
	Penalize        bool
	// BackupCell dials with the cellular path flagged as a backup
	// subflow (the MP_JOIN B bit), for use with the "backup" scheduler.
	BackupCell bool

	// SSThresh overrides the paper's 64 KB initial threshold when
	// nonzero; set Infinite to model the Linux default of infinity
	// (the §3.1 ablation).
	SSThresh         units.ByteCount
	InfiniteSSThresh bool
	// RcvBuf overrides the 8 MB receive buffer when nonzero.
	RcvBuf units.ByteCount

	// WiFiOutageStart/End schedule a WiFi connectivity outage (both
	// directions) — the §6 mobility scenario. Zero values disable it.
	WiFiOutageStart, WiFiOutageEnd sim.Time

	// Chaos applies a declarative fault schedule (flaps, ramps, fades,
	// handover storms) to the run and produces a resilience report in
	// RunResult.Resilience. Deterministic: the schedule runs on virtual
	// time and the same seed reproduces it exactly.
	Chaos chaos.Schedule

	// Deadline caps the run's host wall-clock time (0 = none). It is an
	// execution policy, not part of the modeled experiment: a tripped
	// deadline marks the run failed, and the knob never appears in
	// exports or replay identity.
	Deadline time.Duration

	// Timeout caps the simulated duration (default 30 virtual
	// minutes).
	Timeout sim.Time

	// SelfCheck arms the internal/check invariant layer for this run:
	// every segment at both hosts is verified online and the stacks are
	// probed periodically. The run's wire behavior is unchanged — the
	// checker draws no randomness and mutates nothing — so results stay
	// byte-identical; violations land in RunResult.Violations.
	SelfCheck bool
}

// RunResult aggregates one download's measurements.
type RunResult struct {
	Completed    bool
	DownloadTime sim.Time // first SYN to last data byte (§3.3)

	// Server-side per-path sender statistics.
	WiFiBytesSent, CellBytesSent     int64
	WiFiDataPkts, CellDataPkts       uint64
	WiFiRetransPkts, CellRetransPkts uint64

	// Per-packet RTT samples (milliseconds), taken at the server as
	// tcptrace would (§3.3), grouped by path.
	WiFiRTTms, CellRTTms []float64

	// Client-side out-of-order delay samples (milliseconds), one per
	// delivered packet (§3.3), MPTCP only.
	OFOms []float64

	// Per-path delivered (cumulatively ACKed) bytes from the MPTCP
	// subflow delivery-rate telemetry, MPTCP only. Execution-side
	// diagnostics for the scheduler lab; excluded from campaign
	// CSV/JSON exports, whose schema is pinned by golden fixtures.
	WiFiBytesAcked, CellBytesAcked int64

	// Subflows observed at the server (1 for SP, 2 or 4 for MPTCP).
	Subflows int
	// Penalties counts receive-buffer penalization events (ablation).
	Penalties uint64

	// Events is the number of simulator events the run processed — the
	// denominator of paperbench's events/sec throughput line. It is not
	// exported in campaign CSV/JSON (it is a property of the simulator,
	// not of the modeled network).
	Events uint64
	// AcksRcvd and InflightScanned sum the server-side senders' ACKs
	// received and inflight records scanned (tcp.Stats): the per-ACK
	// work counter the download benchmarks report. Execution metadata
	// like Events, and kept out of JSON as well, so neither exports nor
	// results stored by mptcpd move.
	AcksRcvd, InflightScanned uint64 `json:"-"`

	// Violations counts protocol-invariant breaches detected when the
	// run was executed with SelfCheck; FirstViolation describes the
	// earliest one. Like Events they are execution metadata, excluded
	// from campaign exports.
	Violations     int
	FirstViolation string

	// FailReason is set when the harness killed the run (watchdog
	// deadline or livelock detection): one line, no stack. A failed run
	// also reports Completed=false. Execution metadata, excluded from
	// campaign exports.
	FailReason string

	// Resilience is the chaos monitor's report for runs with a Chaos
	// schedule (nil otherwise). Excluded from campaign exports — the
	// chaos CLI renders it directly.
	Resilience *chaos.Report
}

// CellShare reports the fraction of data bytes the server sent over
// cellular paths (Figures 3, 5, 7, 10).
func (r *RunResult) CellShare() float64 {
	total := r.WiFiBytesSent + r.CellBytesSent
	if total == 0 {
		return 0
	}
	return float64(r.CellBytesSent) / float64(total)
}

// WiFiLossRate reports retransmitted/sent data packets on WiFi paths,
// the paper's per-subflow loss metric (§3.3).
func (r *RunResult) WiFiLossRate() float64 {
	if r.WiFiDataPkts == 0 {
		return 0
	}
	return float64(r.WiFiRetransPkts) / float64(r.WiFiDataPkts)
}

// CellLossRate reports the cellular-path loss rate.
func (r *RunResult) CellLossRate() float64 {
	if r.CellDataPkts == 0 {
		return 0
	}
	return float64(r.CellRetransPkts) / float64(r.CellDataPkts)
}

func (rc RunConfig) tcpConfig() tcp.Config {
	cfg := tcp.DefaultConfig()
	ctrl, err := cc.New(defaultStr(rc.Controller, "coupled"))
	if err != nil {
		panic(err)
	}
	cfg.Controller = ctrl
	if rc.InfiniteSSThresh {
		cfg.SSThresh = 0
	} else if rc.SSThresh > 0 {
		cfg.SSThresh = rc.SSThresh
	}
	if rc.RcvBuf > 0 {
		cfg.RcvBuf = rc.RcvBuf
	}
	return cfg
}

func (rc RunConfig) mptcpConfig() mptcp.Config {
	cfg := mptcp.DefaultConfig()
	cfg.TCP = rc.tcpConfig()
	cfg.Controller = cfg.TCP.Controller
	cfg.Scheduler = defaultStr(rc.Scheduler, "minrtt")
	cfg.SimultaneousSYN = rc.SimultaneousSYN
	cfg.Penalize = rc.Penalize
	cfg.RcvBuf = cfg.TCP.RcvBuf
	return cfg
}

func defaultStr(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Run performs one download on the testbed and collects its metrics.
// The testbed must be fresh: connections are never reused across
// measurements (as in the paper).
//
// A Testbed and everything it owns (simulator, network, endpoints,
// RNG streams) is confined to a single goroutine and Run must not be
// called concurrently on one testbed — but runs on *distinct*
// testbeds share no mutable state and may proceed in parallel, which
// is the invariant the campaign worker pool in runMatrix builds on.
func (tb *Testbed) Run(rc RunConfig) RunResult {
	timeout := rc.Timeout
	if timeout == 0 {
		timeout = 30 * sim.Minute
	}
	if rc.WiFiOutageEnd > rc.WiFiOutageStart {
		tb.Sim.At(rc.WiFiOutageStart, "wifi-outage-start", func() {
			tb.WiFiUp.SetDown(true)
			tb.WiFiDown.SetDown(true)
		})
		tb.Sim.At(rc.WiFiOutageEnd, "wifi-outage-end", func() {
			tb.WiFiUp.SetDown(false)
			tb.WiFiDown.SetDown(false)
		})
	}
	if !rc.Chaos.Empty() {
		tb.mon = chaos.NewMonitor(tb.Sim, rc.Chaos)
		rc.Chaos.Apply(tb.Sim, chaos.Target{
			WiFi:     []*netem.Link{tb.WiFiUp, tb.WiFiDown},
			Cell:     []*netem.Link{tb.CellUp, tb.CellDown},
			Withdraw: tb.withdrawPath,
			Restore:  tb.restorePath,
			OnFault:  tb.mon.OnFault,
		})
	}
	chaos.ArmWatchdog(tb.Sim, rc.Deadline)
	var ck *check.Checker
	if rc.SelfCheck {
		ck = check.New(tb.Sim)
		trace.AttachObserver(tb.Client, ck)
		trace.AttachObserver(tb.Server, ck)
		for _, l := range []*netem.Link{tb.WiFiUp, tb.WiFiDown, tb.CellUp, tb.CellDown} {
			ck.ArmLink(l)
		}
		ck.ArmProbes(50 * sim.Millisecond)
	}
	switch rc.Transport {
	case SPWiFi, SPCell:
		return tb.runSP(rc, timeout, ck)
	default:
		return tb.runMP(rc, timeout, ck)
	}
}

// finishCheck folds the checker's findings into the result after a run.
func finishCheck(ck *check.Checker, res *RunResult) {
	if ck == nil {
		return
	}
	ck.RunProbes()
	res.Violations = ck.Count()
	if vs := ck.Violations(); len(vs) > 0 {
		res.FirstViolation = vs[0].String()
	}
}

// runSP performs a single-path TCP download.
func (tb *Testbed) runSP(rc RunConfig, timeout sim.Time, ck *check.Checker) RunResult {
	cfg := rc.tcpConfig()
	res := RunResult{Subflows: 1}

	var serverEPs []*tcp.Endpoint
	fs := &web.FileServer{SizeFor: func(int) int { return int(rc.Size) }}
	lis := tcp.Listen(tb.Server, tb.Net, ServerPort, cfg, tb.RNG.Child("srv"))
	lis.OnAccept = func(ep *tcp.Endpoint, syn *seg.Segment) bool {
		serverEPs = append(serverEPs, ep)
		tb.attachRTTCollector(ep, &res)
		if ck != nil {
			ck.WatchEndpoint("server", ep)
		}
		fs.ServeStream(web.TCPStream{EP: ep})
		return true
	}

	local := tb.WiFiAddr
	if rc.Transport == SPCell {
		local = tb.CellAddr
	}
	clientEP := tcp.NewEndpoint(tb.Client, tb.Net, local, tb.SrvAddr, cfg, tb.RNG.Child("cli"))
	if ck != nil {
		ck.WatchEndpoint("client", clientEP)
	}
	getter := web.NewGetter(web.TCPStream{EP: clientEP})
	tracked := tb.track(func() int64 { return getter.BytesReceived })

	var done sim.Time = -1
	getter.Get(int(rc.Size), func() {
		done = tb.Sim.Now()
		if tracked != nil {
			tracked.Done(true)
		}
		getter.Close()
		tb.Sim.Stop()
	})
	start := tb.Sim.Now()
	clientEP.Connect()

	tb.Sim.RunUntil(start + timeout)
	res.Events = tb.Sim.Processed()
	tb.finishChaos(&res, tracked)
	finishCheck(ck, &res)
	if done < 0 {
		return res
	}
	res.Completed = true
	res.DownloadTime = done - start
	for _, ep := range serverEPs {
		tb.accountSender(ep, &res)
	}
	return res
}

// runMP performs a 2- or 4-path MPTCP download.
func (tb *Testbed) runMP(rc RunConfig, timeout sim.Time, ck *check.Checker) RunResult {
	cfg := rc.mptcpConfig()
	res := RunResult{}

	var serverConn *mptcp.Conn
	fs := &web.FileServer{SizeFor: func(int) int { return int(rc.Size) }}
	srv := mptcp.NewServer(tb.Server, tb.Net, ServerPort, cfg, tb.RNG.Child("srv"))
	if rc.Transport == MP4 {
		srv.AdvertiseAddrs = []seg.Addr{tb.SrvAddr2}
	}
	srv.OnConn = func(c *mptcp.Conn) {
		serverConn = c
		c.OnSubflowUp = func(sf *mptcp.Subflow) { tb.attachRTTCollector(sf.EP, &res) }
		if ck != nil {
			ck.WatchConn("server", c)
		}
		fs.ServeStream(web.MPTCPStream{Conn: c})
	}

	opts := mptcp.DialOpts{
		LocalAddrs:     []seg.Addr{tb.WiFiAddr, tb.CellAddr},
		Labels:         []string{"wifi", "cell"},
		ServerAddr:     tb.SrvAddr,
		JoinAdvertised: rc.Transport == MP4,
		Config:         cfg,
	}
	if rc.BackupCell {
		opts.Backup = []bool{false, true}
	}
	start := tb.Sim.Now()
	conn := mptcp.Dial(tb.Net, tb.Client, opts, tb.RNG.Child("cli"))
	tb.clientConn = conn
	if ck != nil {
		ck.WatchConn("client", conn)
	}
	conn.OnOFOSample = func(d sim.Time, subflowID int) {
		res.OFOms = append(res.OFOms, d.Milliseconds())
	}
	getter := web.NewGetter(web.MPTCPStream{Conn: conn})
	tracked := tb.track(func() int64 { return getter.BytesReceived })
	if tb.mon != nil {
		// Per-path delivery-rate telemetry for the resilience report:
		// sample the sender-side subflow RateEstimators (zero until
		// the server accepts).
		tb.mon.PathRates = func() (wifi, cell float64) {
			if serverConn == nil {
				return 0, 0
			}
			for _, sf := range serverConn.Subflows() {
				if tb.IsCellIP(sf.EP.Remote) {
					cell += sf.DeliveryRate()
				} else {
					wifi += sf.DeliveryRate()
				}
			}
			return wifi, cell
		}
	}
	var done sim.Time = -1
	getter.Get(int(rc.Size), func() {
		done = tb.Sim.Now()
		if tracked != nil {
			tracked.Done(true)
		}
		getter.Close()
		tb.Sim.Stop()
	})

	tb.Sim.RunUntil(start + timeout)
	res.Events = tb.Sim.Processed()
	tb.finishChaos(&res, tracked)
	if ck != nil && serverConn != nil {
		ck.CheckTransfer("download", serverConn, conn, done >= 0)
	}
	finishCheck(ck, &res)
	if done < 0 {
		return res
	}
	res.Completed = true
	res.DownloadTime = done - start
	if serverConn != nil {
		res.Subflows = len(serverConn.Subflows())
		res.Penalties = serverConn.Penalties
		for _, sf := range serverConn.Subflows() {
			tb.accountSender(sf.EP, &res)
			if tb.IsCellIP(sf.EP.Remote) {
				res.CellBytesAcked += sf.AckedBytes()
			} else {
				res.WiFiBytesAcked += sf.AckedBytes()
			}
		}
	}
	return res
}

// attachRTTCollector records the server's per-packet RTT samples,
// classified by the client interface they travel to.
func (tb *Testbed) attachRTTCollector(ep *tcp.Endpoint, res *RunResult) {
	cell := tb.IsCellIP(ep.Remote)
	ep.OnRTTSample = func(rtt sim.Time) {
		ms := rtt.Milliseconds()
		if cell {
			res.CellRTTms = append(res.CellRTTms, ms)
		} else {
			res.WiFiRTTms = append(res.WiFiRTTms, ms)
		}
	}
}

// accountSender folds one server-side endpoint's sender stats into the
// result.
func (tb *Testbed) accountSender(ep *tcp.Endpoint, res *RunResult) {
	st := &ep.Stats
	res.AcksRcvd += st.AcksRcvd
	res.InflightScanned += st.InflightScanned
	if tb.IsCellIP(ep.Remote) {
		res.CellBytesSent += st.BytesSent - st.BytesRetrans
		res.CellDataPkts += st.DataPktsSent
		res.CellRetransPkts += st.DataPktsRetrans
	} else {
		res.WiFiBytesSent += st.BytesSent - st.BytesRetrans
		res.WiFiDataPkts += st.DataPktsSent
		res.WiFiRetransPkts += st.DataPktsRetrans
	}
}

// Describe renders the run configuration like the paper's legends.
func (rc RunConfig) Describe() string {
	name := rc.Transport.String()
	ctrl := defaultStr(rc.Controller, "coupled")
	if rc.Transport == MP2 || rc.Transport == MP4 {
		name = fmt.Sprintf("%s (%s)", name, ctrl)
	}
	return fmt.Sprintf("%s %v", name, rc.Size)
}

// track registers the download with the chaos monitor, when one is
// armed; returns nil otherwise.
func (tb *Testbed) track(progress func() int64) *chaos.Tracked {
	if tb.mon == nil {
		return nil
	}
	return tb.mon.Track("download", progress)
}

// finishChaos folds watchdog aborts and the resilience report into the
// result after the simulation loop returns. Only the error's first
// line is kept: failure reasons appear in deterministic artifacts.
func (tb *Testbed) finishChaos(res *RunResult, tracked *chaos.Tracked) {
	if err := tb.Sim.AbortErr(); err != nil {
		res.FailReason, _, _ = strings.Cut(err.Error(), "\n")
		if tracked != nil {
			tracked.Abort()
		}
	}
	if tb.mon != nil {
		res.Resilience = tb.mon.Finish()
	}
}

// onPath reports whether a client address rides the given chaos path.
func (tb *Testbed) onPath(a seg.Addr, p chaos.Path) bool {
	return p == chaos.Both || tb.IsCellIP(a) == (p == chaos.Cell)
}

// withdrawPath implements chaos.Target.Withdraw for handover storms:
// every live client address on the path is withdrawn from the MPTCP
// connection (REMOVE_ADDR + subflow teardown + reinjection). A no-op
// for single-path runs, which have no address agility to disrupt.
func (tb *Testbed) withdrawPath(p chaos.Path) {
	c := tb.clientConn
	if c == nil {
		return
	}
	seen := map[seg.Addr]bool{}
	for _, sf := range c.Subflows() {
		local := sf.EP.Local
		if seen[local] || !tb.onPath(local, p) || sf.EP.State() == tcp.StateClosed {
			continue
		}
		seen[local] = true
		c.RemoveLocalAddr(local)
	}
}

// restorePath implements chaos.Target.Restore: if the connection has
// no live subflow on the path, rejoin through it on a fresh port
// (reusing the withdrawn 4-tuple would race a stale server endpoint
// whose teardown RST was lost during the disruption).
func (tb *Testbed) restorePath(p chaos.Path) {
	c := tb.clientConn
	if c == nil || !c.Established() {
		return
	}
	if (p == chaos.WiFi || p == chaos.Both) && !tb.hasLive(c, false) {
		c.RejoinLocalAddr(tb.freshAddr(ClientWiFiIP))
	}
	if (p == chaos.Cell || p == chaos.Both) && !tb.hasLive(c, true) {
		c.RejoinLocalAddr(tb.freshAddr(ClientCellIP))
	}
}

// hasLive reports whether the connection still has a non-closed
// subflow on the given path.
func (tb *Testbed) hasLive(c *mptcp.Conn, cell bool) bool {
	for _, sf := range c.Subflows() {
		if tb.IsCellIP(sf.EP.Local) == cell && sf.EP.State() != tcp.StateClosed {
			return true
		}
	}
	return false
}

// freshAddr allocates a never-used client port on the interface.
func (tb *Testbed) freshAddr(ip string) seg.Addr {
	if tb.nextPort == 0 {
		tb.nextPort = 41000
	}
	tb.nextPort++
	return seg.MakeAddr(ip, tb.nextPort)
}
