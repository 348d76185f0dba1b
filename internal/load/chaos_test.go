package load

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mptcplab/internal/chaos"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

// chaosConfig is smokeConfig plus a named flap schedule: five WiFi
// outages of 500 ms every 2 s, hitting mid-transfer.
func chaosConfig() Config {
	cfg := smokeConfig()
	sched, err := chaos.Named("flap")
	if err != nil {
		panic(err)
	}
	cfg.Chaos = sched
	return cfg
}

func flapSpec() string {
	sched, _ := chaos.Named("flap")
	return sched.Spec()
}

func TestChaosRunProducesResilience(t *testing.T) {
	res := Run(chaosConfig())
	if res.Violations != 0 {
		t.Fatalf("self-check found %d violations; first: %s", res.Violations, res.FirstViolation)
	}
	if res.Resilience == nil {
		t.Fatal("chaos run produced no resilience report")
	}
	r := res.Resilience
	if res.ChaosSpec != flapSpec() {
		t.Fatalf("ChaosSpec = %q, want canonical flap spec", res.ChaosSpec)
	}
	if len(r.Windows) != 5 {
		t.Fatalf("flap schedule produced %d fault windows, want 5", len(r.Windows))
	}
	if len(r.Marks) < 10 {
		t.Fatalf("only %d fault marks for 5 down/up pairs", len(r.Marks))
	}
	if len(r.Flows) == 0 {
		t.Fatal("no flows tracked")
	}
	if r.FaultDur == 0 || r.SteadyDur == 0 {
		t.Fatalf("fault/steady time split missing: fault=%v steady=%v", r.FaultDur, r.SteadyDur)
	}
	if g := r.Graceful(); g == "" {
		t.Fatal("empty graceful verdict")
	}
}

// TestChaosPerPathTelemetry asserts fade recovery per path: while WiFi
// flaps, the cell path keeps delivering through the fault windows, the
// WiFi delivery rate collapses relative to steady state, and the WiFi
// path earns recovery credits once the radio comes back.
func TestChaosPerPathTelemetry(t *testing.T) {
	res := Run(chaosConfig())
	r := res.Resilience
	if r == nil {
		t.Fatal("chaos run produced no resilience report")
	}
	if r.WiFiFaultRate.N() == 0 || r.WiFiSteadyRate.N() == 0 ||
		r.CellFaultRate.N() == 0 || r.CellSteadyRate.N() == 0 {
		t.Fatal("per-path rate accumulators empty — PathRates not wired")
	}
	if r.CellFaultRate.Mean() <= 0 {
		t.Fatalf("cell path delivered nothing through WiFi fault windows (mean %.0f B/s)",
			r.CellFaultRate.Mean())
	}
	// Absolute rates are higher inside fault windows (they land
	// mid-transfer; steady sampling includes the idle head and tail of
	// the run), so the fade shows up in WiFi's *share* of delivery.
	faultShare := r.WiFiFaultRate.Mean() / (r.WiFiFaultRate.Mean() + r.CellFaultRate.Mean())
	steadyShare := r.WiFiSteadyRate.Mean() / (r.WiFiSteadyRate.Mean() + r.CellSteadyRate.Mean())
	if faultShare >= steadyShare {
		t.Fatalf("WiFi delivery share did not drop during its outages: fault %.3f, steady %.3f",
			faultShare, steadyShare)
	}
	if n := r.WiFiPathTTR.N(); n == 0 {
		t.Fatal("no WiFi recovery credited after any fault window")
	}
	if res.WiFiAckedBytes == 0 || res.CellAckedBytes == 0 {
		t.Fatalf("per-path acked bytes missing: wifi=%d cell=%d",
			res.WiFiAckedBytes, res.CellAckedBytes)
	}
	e := r.Export(res.ChaosSpec)
	if e.CellFaultBps <= 0 || e.WiFiSteadyBps <= 0 {
		t.Fatalf("export dropped per-path telemetry: %+v", e)
	}
}

// TestChaosSweepWorkerInvariance is the PR's golden determinism
// criterion: same seed + schedule, checker armed, serial vs 4 workers,
// all four export writers byte-identical, zero violations.
func TestChaosSweepWorkerInvariance(t *testing.T) {
	base := chaosConfig()
	base.Flows = 0
	opts := SweepOpts{
		Base:  base,
		Rates: []float64{3, 6},
		Reps:  2,
		Seed:  99,
	}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 4

	sa, sp := RunSweep(serial), RunSweep(parallel)
	if sa.TotalViolations != 0 || sp.TotalViolations != 0 {
		t.Fatalf("violations: serial %d, parallel %d (first: %s)",
			sa.TotalViolations, sp.TotalViolations, sa.FirstViolation)
	}
	for _, pair := range []struct {
		name string
		f    func(*Sweep) []byte
	}{
		{"csv", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteCSV(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"json", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteJSON(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"resilience-csv", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteResilienceCSV(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"resilience-json", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteResilienceJSON(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
	} {
		ba, bp := pair.f(sa), pair.f(sp)
		if len(ba) == 0 {
			t.Fatalf("%s export is empty", pair.name)
		}
		if !bytes.Equal(ba, bp) {
			t.Fatalf("%s export differs between -workers 1 and -workers 4", pair.name)
		}
	}
	rows := sa.ExportResilience(opts.Base)
	if len(rows) != 4 {
		t.Fatalf("resilience export has %d rows, want 4", len(rows))
	}
	for _, e := range rows {
		if e.Schedule != flapSpec() {
			t.Fatalf("row schedule %q, want flap spec", e.Schedule)
		}
		if !strings.Contains(e.Replay, "chaos="+e.Schedule) {
			t.Fatalf("replay token %q does not embed the chaos spec", e.Replay)
		}
	}
}

// TestLiveFlowsIdOrdered is a white-box check of the live-flow list
// that every walk over the fleet (chaos hooks, path-rate telemetry,
// run close-out) goes through: throughout a chaos run with many starts
// and releases, it holds exactly the started, not yet completed flows,
// each still routed, in strictly increasing id order.
func TestLiveFlowsIdOrdered(t *testing.T) {
	cfg := chaosConfig()
	cfg.Drain = 2 * sim.Second // end with flows still in flight
	checks := 0
	check := func(f *fleet) {
		checks++
		for i, fl := range f.live {
			if i > 0 && f.live[i-1].id >= fl.id {
				t.Fatalf("at %v: live ids %d, %d out of order", f.s.Now(), f.live[i-1].id, fl.id)
			}
			var local seg.Addr
			switch {
			case fl.clientEP != nil:
				local = fl.clientEP.Local
			case fl.clientConn != nil && len(fl.clientConn.Subflows()) > 0:
				local = fl.clientConn.Subflows()[0].EP.Local
			default:
				continue
			}
			if f.byClientAddr[local] != fl {
				t.Fatalf("at %v: live flow %d is not routed", f.s.Now(), fl.id)
			}
		}
		if want := f.res.Started - f.res.Completed; len(f.live) != want {
			t.Fatalf("at %v: %d live flows, want started %d - completed %d",
				f.s.Now(), len(f.live), f.res.Started, f.res.Completed)
		}
	}
	sabotage(t, cfg.Seed, func(f *fleet) {
		var tick func()
		tick = func() {
			check(f)
			f.s.After(100*sim.Millisecond, "test.live", tick)
		}
		f.s.After(0, "test.live", tick)
	})
	res, f := runFleet(cfg)
	check(f)
	if res.Completed < 20 || res.Incomplete == 0 || checks < 100 {
		t.Fatalf("run too tame to test: %d completed, %d incomplete, %d checks",
			res.Completed, res.Incomplete, checks)
	}
	if len(f.live) != res.Incomplete {
		t.Fatalf("%d live flows at the end, %d incomplete", len(f.live), res.Incomplete)
	}
}

// sabotage installs a testRunHook for the duration of one test. The
// hook fires only for the run whose derived seed matches target.
func sabotage(t *testing.T, target int64, fn func(f *fleet)) {
	t.Helper()
	testRunHook = func(f *fleet) {
		if f.cfg.Seed == target {
			fn(f)
		}
	}
	t.Cleanup(func() { testRunHook = nil })
}

// TestSweepContainsPanickingRun: a run that panics mid-sweep becomes a
// single structured failed row; every other run completes normally.
func TestSweepContainsPanickingRun(t *testing.T) {
	opts := SweepOpts{Base: smokeConfig(), Reps: 3, Seed: 17, Workers: 2}
	target := opts.RunSeed(0, 1)
	sabotage(t, target, func(f *fleet) { panic("injected fault") })

	sw := RunSweep(opts)
	if sw.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", sw.FailedRuns)
	}
	rows := sw.Export(opts.Base)
	if len(rows) != 3 {
		t.Fatalf("exported %d rows, want 3", len(rows))
	}
	var failed, ok int
	for _, e := range rows {
		if e.Failed {
			failed++
			if !strings.Contains(e.FailReason, "injected fault") {
				t.Fatalf("fail reason %q missing panic message", e.FailReason)
			}
			if strings.ContainsAny(e.FailReason, "\n") || strings.Contains(e.FailReason, "goroutine") {
				t.Fatalf("fail reason leaked a stack trace: %q", e.FailReason)
			}
			if e.Seed != target {
				t.Fatalf("failed row has seed %d, want sabotaged %d", e.Seed, target)
			}
			if !strings.Contains(e.Replay, "seed=") {
				t.Fatalf("failed row lost its replay token: %q", e.Replay)
			}
		} else {
			ok++
			if e.Completed == 0 {
				t.Fatalf("healthy run rep=%d completed nothing", e.Rep)
			}
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d, want 1/2", failed, ok)
	}
}

// TestSweepContainsLivelockedRun: a run whose event loop stops
// advancing virtual time is killed by the watchdog and reported as a
// failed row, while the rest of the sweep completes.
func TestSweepContainsLivelockedRun(t *testing.T) {
	opts := SweepOpts{Base: smokeConfig(), Reps: 3, Seed: 23, Workers: 2}
	target := opts.RunSeed(0, 2)
	sabotage(t, target, func(f *fleet) {
		var spin func()
		spin = func() { f.s.At(f.s.Now(), "spin", spin) }
		f.s.At(5*sim.Second, "spin", spin)
	})

	sw := RunSweep(opts)
	if sw.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", sw.FailedRuns)
	}
	var found bool
	for _, e := range sw.Export(opts.Base) {
		if !e.Failed {
			continue
		}
		found = true
		if e.Seed != target {
			t.Fatalf("livelocked row has seed %d, want %d", e.Seed, target)
		}
		if !strings.Contains(e.FailReason, "livelock") {
			t.Fatalf("fail reason %q does not name the livelock", e.FailReason)
		}
	}
	if !found {
		t.Fatal("no failed row exported for the livelocked run")
	}
}

// TestSweepCancelExportsPartial: cancelling mid-sweep stops new runs
// but keeps every completed row exportable.
func TestSweepCancelExportsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := SweepOpts{
		Base: smokeConfig(), Reps: 5, Seed: 31, Workers: 1,
		Context: ctx,
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	}
	sw := RunSweep(opts)
	if !sw.Cancelled {
		t.Fatal("sweep not marked cancelled")
	}
	rows := sw.Export(opts.Base)
	if len(rows) != 2 {
		t.Fatalf("partial export has %d rows, want the 2 completed before cancel", len(rows))
	}
	var csv, res bytes.Buffer
	if err := sw.WriteCSV(&csv, opts.Base); err != nil {
		t.Fatalf("partial CSV export: %v", err)
	}
	if err := sw.WriteResilienceCSV(&res, opts.Base); err != nil {
		t.Fatalf("partial resilience export: %v", err)
	}
}

// TestSweepCancelBeforeStart: an already-cancelled context yields an
// empty but well-formed sweep at any worker count.
func TestSweepCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		sw := RunSweep(SweepOpts{
			Base: smokeConfig(), Reps: 2, Seed: 5, Workers: workers, Context: ctx,
		})
		if !sw.Cancelled {
			t.Fatalf("workers=%d: not marked cancelled", workers)
		}
		if n := len(sw.Export(smokeConfig())); n != 0 {
			t.Fatalf("workers=%d: pre-cancelled sweep exported %d rows", workers, n)
		}
	}
}
