package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/load"
	"mptcplab/internal/sim"
	"mptcplab/internal/sweep"
)

// fleetSweepSalt is load.RunSweep's shuffle salt, so the traced path
// claims the sweep's jobs in the same order.
const fleetSweepSalt = 0x10ad

// fleetOpts is the fleet-chaos sweep: mptcpload's defaults (coffee-shop
// AP, AT&T cell, small-flow mix, checker armed) with the mixed
// transport population and a WiFi flap schedule.
func (r *run) fleetOpts() (load.SweepOpts, error) {
	mix, err := load.ParseTransportMix("wifi=0.3,cell=0.2,mptcp=0.5")
	if err != nil {
		return load.SweepOpts{}, err
	}
	flap, err := chaos.Parse("flap")
	if err != nil {
		return load.SweepOpts{}, err
	}
	window := sim.Time(r.scale.fleetSeconds) * sim.Second
	return load.SweepOpts{
		Base: load.Config{
			Clients:    r.scale.fleetClients,
			Duration:   window,
			Drain:      window / 2,
			Transports: mix,
			Chaos:      flap,
			SelfCheck:  true,
		},
		Rates:   r.scale.fleetRates,
		Reps:    r.scale.fleetReps,
		Seed:    r.seed,
		Workers: workers(),
	}, nil
}

// fleetJob addresses one run of the sweep grid.
type fleetJob struct{ point, rep int }

// tracedSweep runs the sweep's jobs on the sweep engine the way
// load.RunSweep does, with a span around each job. It exists only
// because RunSweep has no per-job hook, and it must track RunSweep:
// the job list, per-run config and seed, shuffle salt, arena reuse,
// failure rows and absorb. checkTracedSweep compares its sweep with
// RunSweep's on every traced cycle.
func tracedSweep(opts load.SweepOpts, tr *tracer, trace string, parent int) *load.Sweep {
	sw := &load.Sweep{Points: opts.Grid()}
	var jobs []fleetJob
	for pi := range sw.Points {
		for rep := range sw.Points[pi].Runs {
			jobs = append(jobs, fleetJob{pi, rep})
		}
	}
	config := func(k int) load.Config {
		cfg := load.PointConfig(opts.Base, sw.Points[jobs[k].point])
		cfg.Seed = opts.RunSeed(jobs[k].point, jobs[k].rep)
		return cfg
	}
	st := sweep.Run(sweep.Opts{Seed: opts.Seed, Salt: fleetSweepSalt, Workers: opts.Workers}, len(jobs),
		func(a **load.Arena, k int) *load.Result {
			cfg := config(k)
			id := tr.begin("fleet.job", trace, fmt.Sprintf("rate=%g", cfg.Rate), parent)
			defer tr.end(id)
			if *a == nil {
				*a = load.NewArena()
			}
			return load.RunIn(*a, cfg)
		},
		func(k int, err error) *load.Result { return load.FailedRun(config(k), err) },
		func(k int, res *load.Result) {
			sw.Points[jobs[k].point].Runs[jobs[k].rep] = res
			sw.TotalEvents += res.Events
			sw.TotalViolations += res.Violations
			if res.Failed {
				sw.FailedRuns++
			}
			if sw.FirstViolation == "" {
				sw.FirstViolation = res.FirstViolation
			}
		})
	sw.Workers, sw.Cancelled, sw.WallTime, sw.BusyTime = st.Workers, st.Cancelled, st.WallTime, st.BusyTime
	return sw
}

// checkTracedSweep compares a traced sweep with load.RunSweep's sweep
// of the same options beyond the exports, which do not depend on the
// order jobs ran in: the sweep totals, the engine's shape, and every
// run's result.
func (r *run) checkTracedSweep(what string, got, want *load.Sweep) {
	r.attempted++
	var diffs []string
	if got.TotalEvents != want.TotalEvents || got.TotalViolations != want.TotalViolations ||
		got.FailedRuns != want.FailedRuns || got.FirstViolation != want.FirstViolation || got.Cancelled != want.Cancelled {
		diffs = append(diffs, fmt.Sprintf("totals: events %d/%d, violations %d/%d, failed %d/%d, first violation %q/%q, cancelled %v/%v",
			got.TotalEvents, want.TotalEvents, got.TotalViolations, want.TotalViolations,
			got.FailedRuns, want.FailedRuns, got.FirstViolation, want.FirstViolation, got.Cancelled, want.Cancelled))
	}
	// BusyTime is summed job time, so it lies in (0, WallTime x Workers].
	if got.Workers != want.Workers || got.BusyTime <= 0 || got.BusyTime > got.WallTime*time.Duration(got.Workers) {
		diffs = append(diffs, fmt.Sprintf("engine: %d workers (RunSweep %d), busy %v in wall %v",
			got.Workers, want.Workers, got.BusyTime, got.WallTime))
	}
	if len(got.Points) != len(want.Points) {
		diffs = append(diffs, fmt.Sprintf("%d grid points, RunSweep %d", len(got.Points), len(want.Points)))
	} else {
		for pi := range got.Points {
			if !reflect.DeepEqual(got.Points[pi], want.Points[pi]) {
				diffs = append(diffs, fmt.Sprintf("grid point %d (rate %g) differs", pi, got.Points[pi].Rate))
			}
		}
	}
	if len(diffs) > 0 {
		r.problem("%s: traced sweep differs from load.RunSweep: %s", what, strings.Join(diffs, "; "))
	}
}

// fleetExports renders the sweep's run and resilience exports as
// mptcpload writes them.
type fleetExports struct{ csv, json, resCSV []byte }

func exportFleet(sw *load.Sweep, base load.Config) (fleetExports, error) {
	var c, j, res bytes.Buffer
	if err := sw.WriteCSV(&c, base); err != nil {
		return fleetExports{}, err
	}
	if err := sw.WriteJSON(&j, base); err != nil {
		return fleetExports{}, err
	}
	if err := sw.WriteResilienceCSV(&res, base); err != nil {
		return fleetExports{}, err
	}
	return fleetExports{c.Bytes(), j.Bytes(), res.Bytes()}, nil
}

// runFleet measures a chaos fleet sweep. A cycle runs the sweep cold
// through load.RunSweep (or, when traced, job by job on the sweep
// engine with a span per job), exports it, then renders the exports
// again from the stored sweep, and checks every export against the
// first cycle's.
func runFleet(r *run) error {
	if !r.trace {
		if err := r.measureSetup(); err != nil {
			return err
		}
	}
	opts, err := r.fleetOpts()
	if err != nil {
		return err
	}
	var ref *fleetExports
	var refSweep *load.Sweep // the first untraced cycle's RunSweep
	err = r.cycles(func(i int, traced bool) (time.Duration, error) {
		tr, trace := r.tracerFor(traced), fmt.Sprintf("fleet-c%d", i)
		var sw *load.Sweep
		var cold, warm fleetExports
		var coldTime time.Duration
		var warmTime float64
		var ms0, ms1 runtime.MemStats
		rss := sampleRSS()
		c0, t0 := cpuNow(), time.Now()
		cycle := func() error {
			root := tr.begin("fleet.sweep", trace, "", 0)
			runtime.ReadMemStats(&ms0)
			if traced {
				sw = tracedSweep(opts, tr, trace, root)
			} else {
				sw = load.RunSweep(opts)
			}
			runtime.ReadMemStats(&ms1)
			var err error
			cold, err = exportFleet(sw, opts.Base)
			coldTime = time.Since(t0)
			tr.end(root)
			if err != nil {
				return err
			}

			// Warm: the exports rendered again from the stored sweep,
			// with no simulation. One rendering takes well under a
			// millisecond, so a batch of them is timed as one sample
			// and divided by the batch size.
			w0 := time.Now()
			for rep := 0; rep < r.scale.warmRepeats; rep++ {
				if warm, err = exportFleet(sw, opts.Base); err != nil {
					return err
				}
			}
			warmTime = time.Since(w0).Seconds() / float64(r.scale.warmRepeats)
			return nil
		}
		if traced {
			err = r.profiled(cycle)
		} else {
			err = cycle()
		}
		wall, cpu := time.Since(t0), cpuNow()-c0
		peak, rssErr := rss.finish()
		if err == nil {
			err = rssErr
		}
		if err != nil {
			return 0, err
		}
		if ref == nil {
			ref = &cold
			r.printDigest("fleet-chaos export.csv", cold.csv)
			r.printDigest("fleet-chaos export.json", cold.json)
			r.printDigest("fleet-chaos resilience.csv", cold.resCSV)
		}
		what := fmt.Sprintf("cycle %d", i)
		r.checkFleet(what, sw, cold, warm, *ref)
		switch {
		case !traced && refSweep == nil:
			refSweep = sw
		case traced:
			r.checkTracedSweep(what, sw, refSweep)
		}
		r.sample("wall_s", "s", wall.Seconds())
		r.sample("cpu_s", "s", cpu.Seconds())
		r.sample("peak_rss_mb", "MB", peak)
		r.sample("cold_export_s", "s", coldTime.Seconds())
		r.sample("warm_export_s", "s", warmTime)
		if traced {
			r.fleetLayers(sw, &ms0, &ms1)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	if r.trace {
		jobs := all(r.tr.durations("fleet.job"))
		r.layer("sweep.job_p50_s", "s", quantile(jobs, 0.50))
		r.layer("sweep.job_p99_s", "s", quantile(jobs, 0.99))
		return r.probes()
	}
	return nil
}

// checkFleet counts a sweep's runs as operations, its failed runs and
// invariant violations as failed ones, and compares its exports with
// the reference.
func (r *run) checkFleet(what string, sw *load.Sweep, cold, warm, ref fleetExports) {
	runs := 0
	for _, p := range sw.Points {
		runs += len(p.Runs)
	}
	r.ops(runs, sw.FailedRuns+sw.TotalViolations)
	if sw.FailedRuns+sw.TotalViolations > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d failed runs, %d invariant violations (first: %s)",
			what, sw.FailedRuns, sw.TotalViolations, sw.FirstViolation))
	}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"cold export.csv", cold.csv, ref.csv},
		{"cold export.json", cold.json, ref.json},
		{"cold resilience.csv", cold.resCSV, ref.resCSV},
		{"warm export.csv", warm.csv, ref.csv},
		{"warm export.json", warm.json, ref.json},
		{"warm resilience.csv", warm.resCSV, ref.resCSV},
	} {
		r.sameBytes(what+" "+c.name, c.got, c.want)
	}
}

// fleetLayers records the per-layer counts of one traced sweep.
func (r *run) fleetLayers(sw *load.Sweep, ms0, ms1 *runtime.MemStats) {
	var runs int
	var pkts, qdrops, mdrops, data, retrans uint64
	for _, p := range sw.Points {
		for _, res := range p.Runs {
			runs++
			for _, l := range res.Links {
				pkts += l.Sent
				qdrops += l.QueueDrop
				mdrops += l.MediumDrop
			}
			data += res.WiFiPkts + res.CellPkts
			retrans += res.WiFiRetransPkts + res.CellRetransPkts
		}
	}
	r.layer("sim.events", "count", float64(sw.TotalEvents))
	r.layer("netem.pkts", "count", float64(pkts))
	r.layer("netem.queue_drops", "count", float64(qdrops))
	r.layer("netem.medium_drops", "count", float64(mdrops))
	r.layer("tcp.data_pkts", "count", float64(data))
	r.layer("tcp.retrans_pkts", "count", float64(retrans))
	r.layer("check.violations", "count", float64(sw.TotalViolations))
	r.memLayers(ms0, ms1, float64(runs))
	r.engineLayers(runs, sw.WallTime, sw.BusyTime, sw.Workers)
}
