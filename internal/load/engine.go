package load

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mptcplab/internal/cc"
	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/trace"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
)

// Config describes one fleet run. Equal configs (including Seed)
// reproduce runs exactly — the whole fleet, background traffic
// included, executes inside one deterministic simulation.
type Config struct {
	// Clients is the number of fleet members sharing the bottlenecks.
	Clients int
	// WiFi and Cell profile the shared AP and cellular sector
	// (defaults: CoffeeShop and ATT — the §4.1 scenario at scale).
	WiFi, Cell pathmodel.Profile
	// SampleProfiles applies the profiles' per-run Spread before
	// building links, as the campaign runner does.
	SampleProfiles bool

	// Sizes draws per-flow transfer sizes (default SmallFlowMix).
	Sizes SizeDist
	// Transports draws each flow's stack (default all-MPTCP).
	Transports TransportMix
	// Controller and Scheduler configure the stacks ("olia"/"coupled"/
	// "reno"; "lowest-rtt"/...), defaulting as the experiment package
	// does.
	Controller, Scheduler string

	// Open-loop arrivals: Flows > 0 schedules exactly that many flows
	// at Poisson-conditioned times in [0, Duration); otherwise Rate is
	// the Poisson arrival rate in flows per simulated second.
	Flows int
	Rate  float64
	// Closed-loop sessions: when Sessions > 0 the open-loop knobs are
	// ignored and each session loops request → download → think, with
	// exponentially distributed think times of mean ThinkMean.
	Sessions  int
	ThinkMean sim.Time

	// Duration is the arrival window; Drain is extra simulated time
	// for in-flight transfers to finish (default 30 s).
	Duration sim.Time
	Drain    sim.Time

	// Background cross-traffic through the shared bottlenecks.
	Background Background

	// Chaos, when non-empty, applies a deterministic fault schedule to
	// the shared access links (and, for storms, the fleet's MPTCP
	// addresses) and collects a resilience report in Result.Resilience.
	// The schedule spec is part of the replay token.
	Chaos chaos.Schedule

	// Deadline is a per-run wall-clock budget (0 = none): a run burning
	// more real time than this is killed by the watchdog and reported
	// as a failed run. Wall-clock kills are inherently nondeterministic,
	// so Deadline is execution policy, not configuration — it is NOT
	// part of the replay token. Livelock detection is always armed.
	Deadline time.Duration

	// Seed drives every random stream of the run.
	Seed int64
	// SelfCheck arms the internal/check referee: every segment at every
	// host is verified online, all stacks are probed periodically, and
	// completed MPTCP transfers run the byte-stream oracle. Results are
	// unchanged (the checker draws no randomness); violations land in
	// Result.Violations.
	SelfCheck bool
	// ProbeEvery overrides the SelfCheck probe period (default 250 ms).
	ProbeEvery sim.Time
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 100
	}
	if c.WiFi.Name == "" {
		c.WiFi = pathmodel.CoffeeShop()
	}
	if c.Cell.Name == "" {
		c.Cell = pathmodel.ATT()
	}
	if c.Sizes == nil {
		c.Sizes = SmallFlowMix()
	}
	if c.Transports == (TransportMix{}) {
		// Normalize so the zero value consumes the same RNG draws as
		// the explicit all-MPTCP mix: a replayed token must walk the
		// arrival stream identically to the run that exported it.
		c.Transports = TransportMix{MPTCP: 1}
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 30 * sim.Second
	}
	if c.ThinkMean == 0 {
		c.ThinkMean = 2 * sim.Second
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 250 * sim.Millisecond
	}
	return c
}

// flow is one in-flight transfer's lifecycle record. It lives only
// while the flow is active: completion folds it into the streaming
// result and drops it, so live memory is O(concurrent flows), never
// O(total flows).
type flow struct {
	id        int
	transport FlowTransport
	size      units.ByteCount
	start     sim.Time
	session   int // closed-loop session index, -1 for open-loop

	client  *Client
	getter  *web.Getter
	tracked *chaos.Tracked

	// Client- and server-side stack handles for accounting/teardown.
	clientEP   *tcp.Endpoint
	clientConn *mptcp.Conn
	serverEP   *tcp.Endpoint
	serverConn *mptcp.Conn
}

// fleet is the per-run engine state.
type fleet struct {
	cfg  Config
	topo *Topology
	s    *sim.Simulator
	ck   *check.Checker
	res  *Result
	mon  *chaos.Monitor

	tcpCfg   tcp.Config
	mpCfg    mptcp.Config
	arrivals *sim.RNG // transport/size/client draws
	flowRNG  *sim.RNG // per-flow stack randomness parent
	nextID   int

	// byClientAddr routes server-side accepts back to the flow that
	// dialed: keyed by the client's first-subflow local address.
	byClientAddr map[seg.Addr]*flow

	// live holds the active flows in id order: ids are handed out
	// increasing, so startFlow appends and release cuts one out.
	// Every walk over the live fleet goes through it, so each is a pure
	// function of the seed. scratch backs sortedActive's snapshots.
	live    []*flow
	scratch []*flow
}

// Run executes one fleet workload and returns its streaming-stats
// result. The run is confined to the calling goroutine; distinct runs
// share no state and may proceed in parallel (the sweep builds on
// this, exactly like the campaign runner).
func Run(cfg Config) *Result {
	res, _ := runFleet(cfg)
	return res
}

// runFleet is Run plus the engine handle, for tests that assert on
// internal state (live-flow maps drained, bounded stats).
func runFleet(cfg Config) (*Result, *fleet) {
	return runFleetIn(NewArena(), cfg)
}

// runFleetIn executes one run on a prepared (fresh or reset) arena.
func runFleetIn(a *Arena, cfg Config) (*Result, *fleet) {
	cfg = cfg.withDefaults()
	s := a.sim
	rng := sim.NewRNG(cfg.Seed)

	wifi, cell := cfg.WiFi, cfg.Cell
	if cfg.SampleProfiles {
		wifi = wifi.Sample(rng.Child("wifi-sample"))
		cell = cell.Sample(rng.Child("cell-sample"))
	}
	topo := NewTopology(a.net, rng.Child("topo"), wifi, cell, cfg.Clients)

	f := &fleet{
		cfg:          cfg,
		topo:         topo,
		s:            s,
		res:          newResult(cfg),
		arrivals:     rng.Child("arrivals"),
		flowRNG:      rng.Child("flows"),
		byClientAddr: make(map[seg.Addr]*flow),
	}
	f.buildStackConfigs()

	if cfg.SelfCheck {
		f.ck = check.New(s)
		trace.AttachObserver(topo.Server, f.ck)
		for _, c := range topo.Clients {
			trace.AttachObserver(c.Host, f.ck)
		}
		for _, l := range topo.AllLinks() {
			f.ck.ArmLink(l)
		}
		f.ck.ArmProbes(cfg.ProbeEvery)
	}

	if !cfg.Chaos.Empty() {
		f.mon = chaos.NewMonitor(s, cfg.Chaos)
		f.mon.PathRates = f.pathRates
		cfg.Chaos.Apply(s, chaos.Target{
			WiFi:     []*netem.Link{topo.APUp, topo.APDown},
			Cell:     []*netem.Link{topo.CellUp, topo.CellDown},
			Withdraw: f.withdraw,
			Restore:  f.restore,
			OnFault:  f.mon.OnFault,
		})
	}
	chaos.ArmWatchdog(s, cfg.Deadline)

	f.startServer()
	topo.StartBackground(cfg.Background, rng.Child("background"), cfg.Duration)

	if cfg.Sessions > 0 {
		f.startSessions()
	} else {
		for _, at := range arrivalTimes(f.arrivals, cfg.Rate, cfg.Flows, cfg.Duration) {
			at := at
			s.At(at, "fleet.arrival", func() { f.startFlow(-1) })
			f.res.Offered++
		}
	}
	if testRunHook != nil {
		testRunHook(f)
	}

	s.RunUntil(cfg.Duration + cfg.Drain)
	if err := s.AbortErr(); err != nil {
		f.res.Failed = true
		f.res.FailReason = err.Error()
	}
	f.finish()
	if f.mon != nil {
		f.res.ChaosSpec = cfg.Chaos.Spec()
		f.res.Resilience = f.mon.Finish()
	}
	return f.res, f
}

// testRunHook, when non-nil, runs after a fleet is wired but before
// its simulation starts. Containment tests use it to sabotage one run
// (an injected panic or livelock) and prove the sweep survives. It is
// written only before RunSweep starts its workers.
var testRunHook func(*fleet)

// buildStackConfigs materializes the TCP and MPTCP configs once; the
// controllers are stateless values shared safely by every flow. The
// Controller knob steers MPTCP coupling only — single-path TCP flows
// always run New Reno, like the background wgets in the paper.
func (f *fleet) buildStackConfigs() {
	name := f.cfg.Controller
	if name == "" {
		name = "coupled"
	}
	ctrl, err := cc.New(name)
	if err != nil {
		panic(err)
	}
	f.tcpCfg = tcp.DefaultConfig()

	mc := mptcp.DefaultConfig()
	mc.TCP = f.tcpCfg
	mc.Controller = ctrl
	if f.cfg.Scheduler != "" {
		mc.Scheduler = f.cfg.Scheduler
	}
	mc.RcvBuf = f.tcpCfg.RcvBuf
	f.mpCfg = mc
}

// startServer wires the one server socket every flow lands on: MPTCP
// connections via MP_CAPABLE, plain-TCP fallback for single-path
// flows — as the paper's Apache serves both client kinds on one port.
func (f *fleet) startServer() {
	srv := mptcp.NewServer(f.topo.Server, f.topo.Net, FleetServerPort, f.mpCfg, f.flowRNG.Child("server"))
	srv.OnConn = func(c *mptcp.Conn) {
		fl := f.byClientAddr[c.Subflows()[0].EP.Remote]
		if fl == nil {
			return // background/unknown; nothing to serve
		}
		fl.serverConn = c
		if f.ck != nil {
			f.ck.WatchConn(fmt.Sprintf("srv-flow-%d", fl.id), c)
		}
		fs := &web.FileServer{SizeFor: func(int) int { return int(fl.size) }}
		fs.ServeStream(web.MPTCPStream{Conn: c})
	}
	srv.OnPlainConn = func(ep *tcp.Endpoint) bool {
		fl := f.byClientAddr[ep.Remote]
		if fl == nil {
			return false
		}
		fl.serverEP = ep
		if f.ck != nil {
			f.ck.WatchEndpoint(fmt.Sprintf("srv-flow-%d", fl.id), ep)
		}
		fs := &web.FileServer{SizeFor: func(int) int { return int(fl.size) }}
		fs.ServeStream(web.TCPStream{EP: ep})
		return true
	}
}

// startSessions launches the closed-loop sessions, staggered uniformly
// over one mean think time so they don't all arrive in lockstep.
func (f *fleet) startSessions() {
	for i := 0; i < f.cfg.Sessions; i++ {
		i := i
		at := sim.Time(f.arrivals.Float64() * float64(f.cfg.ThinkMean))
		f.s.At(at, "fleet.session", func() { f.sessionNext(i) })
	}
}

// sessionNext issues session i's next request, if the arrival window
// is still open.
func (f *fleet) sessionNext(i int) {
	if f.s.Now() >= f.cfg.Duration {
		return
	}
	f.res.Offered++
	f.startFlow(i)
}

// startFlow opens one transfer now on a deterministic pseudo-random
// client.
func (f *fleet) startFlow(session int) {
	id := f.nextID
	f.nextID++
	client := f.topo.Clients[f.arrivals.Intn(len(f.topo.Clients))]
	fl := &flow{
		id:        id,
		transport: f.cfg.Transports.pick(f.arrivals),
		size:      f.cfg.Sizes.Sample(f.arrivals),
		start:     f.s.Now(),
		session:   session,
		client:    client,
	}
	f.live = append(f.live, fl)
	f.res.Started++

	wifiAddr, cellAddr := client.addrs()
	rng := f.flowRNG.Child(fmt.Sprintf("flow/%d", id))

	switch fl.transport {
	case FlowTCPWiFi, FlowTCPCell:
		local := wifiAddr
		if fl.transport == FlowTCPCell {
			local = cellAddr
		}
		f.byClientAddr[local] = fl
		ep := tcp.NewEndpoint(client.Host, f.topo.Net, local, f.topo.SrvAddr, f.tcpCfg, rng)
		fl.clientEP = ep
		if f.ck != nil {
			f.ck.WatchEndpoint(fmt.Sprintf("cli-flow-%d", id), ep)
		}
		fl.getter = web.NewGetter(web.TCPStream{EP: ep})
		fl.getter.Get(int(fl.size), func() { f.complete(fl) })
		ep.Connect()
	default:
		f.byClientAddr[wifiAddr] = fl
		conn := mptcp.Dial(f.topo.Net, client.Host, mptcp.DialOpts{
			LocalAddrs: []seg.Addr{wifiAddr, cellAddr},
			Labels:     []string{"wifi", "cell"},
			ServerAddr: f.topo.SrvAddr,
			Config:     f.mpCfg,
		}, rng)
		fl.clientConn = conn
		if f.ck != nil {
			f.ck.WatchConn(fmt.Sprintf("cli-flow-%d", id), conn)
		}
		fl.getter = web.NewGetter(web.MPTCPStream{Conn: conn})
		fl.getter.Get(int(fl.size), func() { f.complete(fl) })
	}
	if f.mon != nil {
		fl.tracked = f.mon.Track(fmt.Sprintf("flow-%d", id),
			func() int64 { return fl.getter.BytesReceived })
	}
}

// complete retires a finished flow: fold its lifecycle metrics into
// the streaming result, close the transfer, release the record, and —
// for closed-loop sessions — schedule the next think/request cycle.
func (f *fleet) complete(fl *flow) {
	fct := f.s.Now() - fl.start
	f.res.absorbFlow(f.topo, fl, fct)
	if f.ck != nil && fl.serverConn != nil && fl.clientConn != nil {
		f.ck.CheckTransfer(fmt.Sprintf("flow-%d", fl.id), fl.serverConn, fl.clientConn, true)
	}
	if fl.tracked != nil {
		fl.tracked.Done(true)
	}
	fl.getter.Close()
	f.release(fl)

	if fl.session >= 0 {
		think := sim.Time(f.arrivals.Exponential(float64(f.cfg.ThinkMean)))
		sess := fl.session
		f.s.At(f.s.Now()+think, "fleet.think", func() { f.sessionNext(sess) })
	}
}

// release forgets a flow's routing and lifecycle entries.
func (f *fleet) release(fl *flow) {
	i := sort.Search(len(f.live), func(i int) bool { return f.live[i].id >= fl.id })
	f.live = slices.Delete(f.live, i, i+1)
	if fl.clientEP != nil {
		delete(f.byClientAddr, fl.clientEP.Local)
	}
	if fl.clientConn != nil && len(fl.clientConn.Subflows()) > 0 {
		delete(f.byClientAddr, fl.clientConn.Subflows()[0].EP.Local)
	}
}

// sortedActive snapshots the live flows in id order for the storm
// hooks: a flow released while a hook walks the fleet is still
// visited. The snapshot reuses one buffer, so it is valid only until
// the next call; the hooks run from separate events and never nest.
func (f *fleet) sortedActive() []*flow {
	f.scratch = append(f.scratch[:0], f.live...)
	return f.scratch
}

// pathRates sums the live fleet's instantaneous per-subflow delivery
// rates on each access path, from the server-side (sender)
// connections' RateEstimators — the telemetry the chaos monitor
// samples per tick. Flows are walked in id order: floating-point
// addition is order-sensitive, and the report must stay a pure
// function of the seed.
func (f *fleet) pathRates() (wifi, cell float64) {
	for _, fl := range f.live {
		c := fl.serverConn
		if c == nil {
			continue
		}
		for _, sf := range c.Subflows() {
			if f.topo.IsCellIP(sf.EP.Remote) {
				cell += sf.DeliveryRate()
			} else {
				wifi += sf.DeliveryRate()
			}
		}
	}
	return wifi, cell
}

// onPath reports whether an address belongs to the chaos path.
func (f *fleet) onPath(a seg.Addr, p chaos.Path) bool {
	if p == chaos.Both {
		return true
	}
	return f.topo.IsCellIP(a) == (p == chaos.Cell)
}

// withdraw implements chaos.Target.Withdraw: every active MPTCP flow
// drops its subflows on the path's interface, REMOVE_ADDR-ing the peer
// and reinjecting stranded data on survivors — the "walked away from
// the AP" half of a handover. Single-path TCP flows have no address
// machinery; storms only shake them via whatever the links do.
func (f *fleet) withdraw(p chaos.Path) {
	for _, fl := range f.sortedActive() {
		c := fl.clientConn
		if c == nil {
			continue
		}
		seen := map[seg.Addr]bool{}
		for _, sf := range c.Subflows() {
			local := sf.EP.Local
			if seen[local] || !f.onPath(local, p) || sf.EP.State() == tcp.StateClosed {
				continue
			}
			seen[local] = true
			c.RemoveLocalAddr(local)
		}
	}
}

// restore implements chaos.Target.Restore: flows missing a live
// subflow on the path rejoin through it on a fresh port (reusing the
// withdrawn 4-tuple would race a stale server endpoint whose teardown
// RST was lost).
func (f *fleet) restore(p chaos.Path) {
	for _, fl := range f.sortedActive() {
		c := fl.clientConn
		if c == nil || !c.Established() {
			continue
		}
		if (p == chaos.WiFi || p == chaos.Both) && !f.hasLive(c, false) {
			wifiAddr, _ := fl.client.addrs()
			c.RejoinLocalAddr(wifiAddr)
		}
		if (p == chaos.Cell || p == chaos.Both) && !f.hasLive(c, true) {
			_, cellAddr := fl.client.addrs()
			c.RejoinLocalAddr(cellAddr)
		}
	}
}

// hasLive reports whether the connection has an established subflow on
// the given access network.
func (f *fleet) hasLive(c *mptcp.Conn, cell bool) bool {
	for _, sf := range c.Subflows() {
		if sf.EP.Established() && f.topo.IsCellIP(sf.EP.Local) == cell {
			return true
		}
	}
	return false
}

// finish closes out the run: account still-active flows as
// incomplete, in id order so the checker's violations are reported in
// a seed-determined order, and fold link and checker state into the
// result.
func (f *fleet) finish() {
	for _, fl := range f.live {
		f.res.absorbIncomplete(f.topo, fl)
		if f.ck != nil && fl.serverConn != nil && fl.clientConn != nil {
			f.ck.CheckTransfer(fmt.Sprintf("flow-%d", fl.id), fl.serverConn, fl.clientConn, false)
		}
	}
	f.res.finish(f.topo, f.s, f.ck)
}
