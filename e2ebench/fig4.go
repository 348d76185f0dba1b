package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mptcplab/internal/experiment"
)

// campaignOut is one fig4 campaign and its exports.
type campaignOut struct {
	m         *experiment.Matrix
	csv, json []byte
	results   map[experiment.CampaignJob]experiment.RunResult
	jobs      int
	missing   int           // warm jobs the store could not answer
	elapsed   time.Duration // campaign start to exports in hand
}

// runCampaign runs the fig4 campaign at reps and renders its exports
// exactly as mptcpd and paperbench do. With stored non-nil every job
// is answered from stored (the warm path); otherwise every job runs
// and its result is kept for a later warm pass. tr, when non-nil,
// records a span per job.
func (r *run) runCampaign(tr *tracer, trace string, reps int, stored map[experiment.CampaignJob]experiment.RunResult) (*campaignOut, error) {
	out := &campaignOut{results: map[experiment.CampaignJob]experiment.RunResult{}}
	var mu sync.Mutex
	name := "fig4.campaign"
	if stored != nil {
		name = "fig4.warm"
	}
	root := tr.begin(name, trace, "", 0)
	t0 := time.Now()
	m, err := experiment.NewCampaign("fig4", experiment.CampaignOpts{
		Reps:           reps,
		Seed:           r.seed,
		Workers:        workers(),
		SampleProfiles: true,
		Intercept: func(job experiment.CampaignJob, run func() experiment.RunResult) experiment.RunResult {
			if stored != nil {
				if res, ok := stored[job]; ok {
					return res
				}
				mu.Lock()
				out.missing++
				mu.Unlock()
			}
			id := tr.begin("fig4.job", trace, job.Size.String(), root)
			if r.jobDelay > 0 {
				time.Sleep(r.jobDelay)
			}
			res := run()
			tr.end(id)
			mu.Lock()
			out.results[job] = res
			mu.Unlock()
			return res
		},
	})
	if err != nil {
		return nil, err
	}
	exp := tr.begin("fig4.export", trace, "", root)
	out.m = m
	out.csv, out.json, err = campaignExports(m)
	tr.end(exp)
	out.elapsed = time.Since(t0)
	tr.end(root)
	out.jobs = len(m.Rows) * len(m.Sizes) * reps
	return out, err
}

// campaignExports renders export.csv and export.json byte for byte as
// mptcpd serves them (and paperbench -format csv|json writes them).
func campaignExports(m *experiment.Matrix) (csv, js []byte, err error) {
	var cb, jb bytes.Buffer
	if err := experiment.WriteCSV(&cb, m); err != nil {
		return nil, nil, err
	}
	enc := json.NewEncoder(&jb)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Cells []experiment.CellExport `json:"cells"`
	}{m.Export()})
	return cb.Bytes(), jb.Bytes(), err
}

// checkCampaign counts a campaign's runs as operations, its contained
// failures and invariant violations as failed ones, and compares its
// exports with the reference.
func (r *run) checkCampaign(what string, c, ref *campaignOut) {
	r.ops(c.jobs, c.m.FailedRuns+c.m.TotalViolations+c.missing)
	if c.m.FailedRuns > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d runs failed, first: %s", what, c.m.FailedRuns, c.m.FirstFailure))
	}
	if c.missing > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d jobs were not in the store", what, c.missing))
	}
	if ref != nil {
		r.sameBytes(what+" export.csv", c.csv, ref.csv)
		r.sameBytes(what+" export.json", c.json, ref.json)
	}
}

// fig4WarmPasses is how often a cycle repeats the warm pass. A pass
// takes about a tenth of the cold one and a garbage collection can land
// in it or not, so the cycle reports the median pass.
const fig4WarmPasses = 3

// runFig4 measures the 1,024-run small-flow campaign. A cycle runs it
// cold (every job simulated), then warm (every job answered from the
// cold pass's results), and checks every export against the first
// cycle's.
func runFig4(r *run) error {
	if !r.trace {
		if err := r.measureSetup(); err != nil {
			return err
		}
	}
	var ref *campaignOut
	var sizeTimes map[string][]float64
	err := r.cycles(func(i int, traced bool) (time.Duration, error) {
		tr, trace := r.tracerFor(traced), fmt.Sprintf("fig4-c%d", i)
		var cold *campaignOut
		var warm []*campaignOut
		var ms0, ms1 runtime.MemStats
		rss := sampleRSS()
		c0, t0 := cpuNow(), time.Now()
		cycle := func() error {
			var err error
			runtime.ReadMemStats(&ms0)
			if cold, err = r.runCampaign(tr, trace, r.scale.fig4Reps, nil); err != nil {
				return err
			}
			runtime.ReadMemStats(&ms1)
			for k := 0; k < fig4WarmPasses; k++ {
				w, err := r.runCampaign(tr, trace, r.scale.fig4Reps, cold.results)
				if err != nil {
					return err
				}
				warm = append(warm, w)
			}
			return nil
		}
		var err error
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
			ref = cold
			r.printDigest("fig4-campaign export.csv", cold.csv)
			r.printDigest("fig4-campaign export.json", cold.json)
		}
		r.checkCampaign(fmt.Sprintf("cycle %d cold", i), cold, ref)
		var warmTimes []float64
		for k, w := range warm {
			r.checkCampaign(fmt.Sprintf("cycle %d warm %d", i, k), w, ref)
			warmTimes = append(warmTimes, w.elapsed.Seconds())
		}
		r.sample("wall_s", "s", wall.Seconds())
		r.sample("cpu_s", "s", cpu.Seconds())
		r.sample("peak_rss_mb", "MB", peak)
		r.sample("cold_export_s", "s", cold.elapsed.Seconds())
		r.sample("warm_export_s", "s", median(warmTimes))
		if traced {
			r.campaignLayers(cold, &ms0, &ms1)
			sizeTimes = tr.durations("fig4.job")
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	if r.trace {
		r.sizeLayers(sizeTimes)
		return r.probes()
	}
	return nil
}

// campaignLayers records the per-layer counts of one traced fig4
// campaign.
func (r *run) campaignLayers(c *campaignOut, ms0, ms1 *runtime.MemStats) {
	var data, retrans uint64
	for _, res := range c.results {
		data += res.WiFiDataPkts + res.CellDataPkts
		retrans += res.WiFiRetransPkts + res.CellRetransPkts
	}
	jobs := float64(c.jobs)
	r.layer("sim.events", "count", float64(c.m.TotalEvents))
	r.layer("tcp.data_pkts", "count", float64(data))
	r.layer("tcp.retrans_pkts", "count", float64(retrans))
	r.layer("check.violations", "count", float64(c.m.TotalViolations))
	r.memLayers(ms0, ms1, jobs)
	r.engineLayers(c.jobs, c.m.WallTime, c.m.BusyTime, c.m.Workers)
}

// memLayers records allocation work per run from two MemStats taken
// around the traced phase.
func (r *run) memLayers(ms0, ms1 *runtime.MemStats, runs float64) {
	r.layer("allocs_per_run", "count", float64(ms1.Mallocs-ms0.Mallocs)/runs)
	r.layer("bytes_alloc_per_run", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/runs)
	r.layer("gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
}

// engineLayers records the sweep engine's job count and idle share;
// the job-time percentiles come from the spans.
func (r *run) engineLayers(jobs int, wall, busy time.Duration, nworkers int) {
	r.layer("sweep.jobs", "count", float64(jobs))
	idle := 0.0
	if wall > 0 && nworkers > 0 {
		idle = 1 - busy.Seconds()/(wall.Seconds()*float64(nworkers))
	}
	r.layer("sweep.idle_frac", "frac", idle)
}

// sizeLayers records the median job time of each fig4 size column and
// the engine's job-time percentiles.
func (r *run) sizeLayers(byAttr map[string][]float64) {
	for _, size := range fig4Sizes {
		r.layer("experiment.run_s."+size, "s", median(byAttr[size]))
	}
	jobs := all(byAttr)
	r.layer("sweep.job_p50_s", "s", quantile(jobs, 0.50))
	r.layer("sweep.job_p99_s", "s", quantile(jobs, 0.99))
}

// fig4Sizes are the small-flow campaign's size columns.
var fig4Sizes = func() []string {
	var out []string
	for _, s := range experiment.SmallFlowSizes {
		out = append(out, s.String())
	}
	return out
}()

// tracerFor returns the run's tracer for a traced cycle, nil for a
// plain one.
func (r *run) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// cycles runs cycle until the run's time is up. In an untraced run
// every cycle is plain; in a traced run plain and traced cycles
// alternate, so the tracing overhead compares like with like. Every
// cycle starts on a freshly collected heap, so garbage left by the
// one before does not land in its time.
func (r *run) cycles(cycle func(i int, traced bool) (time.Duration, error)) error {
	least := r.scale.minCycles
	if r.trace {
		least *= 2
	}
	for i := 0; i < least || time.Since(r.start) < r.seconds; i++ {
		traced := r.trace && i%2 == 1
		runtime.GC()
		wall, err := cycle(i, traced)
		if err != nil {
			return err
		}
		if traced {
			r.wallTraced = append(r.wallTraced, wall.Seconds())
		} else {
			r.wallPlain = append(r.wallPlain, wall.Seconds())
		}
	}
	return nil
}
