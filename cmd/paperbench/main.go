// Command paperbench regenerates the paper's tables and figures.
//
// Text mode prints paper-style tables; csv/json modes emit
// machine-readable per-cell records (plus CCDF series for the
// latency-distribution figures) for external plotting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"syscall"

	"mptcplab/internal/experiment"
	"mptcplab/internal/units"
)

func main() {
	var (
		which   = flag.String("experiment", "all", "comma-separated: fig2,fig4,fig6,fig8,fig9,fig11,fig12,shootout,all (aliases: fig3/table2->fig2, fig5/table3->fig4, fig7/table4->fig6, fig10/table5->fig9, fig13/table6->fig12, sched->shootout)")
		reps    = flag.Int("reps", 5, "repetitions per configuration cell")
		seed    = flag.Int64("seed", 1, "campaign seed")
		workers = flag.Int("workers", 0, "parallel campaign workers (0 = all CPUs, 1 = serial); results are identical for any value")
		quick   = flag.Bool("quick", false, "scale the infinite-backlog size down for fast runs")
		format  = flag.String("format", "text", "output format: text | csv | json")
		outp    = flag.String("o", "", "write output to file instead of stdout")
		prog    = flag.Bool("progress", false, "print run progress to stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		tracefile  = flag.String("trace", "", "write a runtime execution trace to this file (inspect with go tool trace)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained objects accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
		}()
	}

	// Ctrl-C / SIGTERM drains the campaign workers and still emits
	// whatever cells completed; a second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := experiment.CampaignOpts{
		Reps: *reps, Seed: *seed, SampleProfiles: true, Workers: *workers,
		Context: ctx,
	}
	if *prog {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	sel := map[string]bool{}
	for _, s := range strings.Split(*which, ",") {
		sel[strings.TrimSpace(s)] = true
	}
	want := func(names ...string) bool {
		if sel["all"] {
			return true
		}
		for _, n := range names {
			if sel[n] {
				return true
			}
		}
		return false
	}

	var w io.Writer = os.Stdout
	if *outp != "" {
		f, err := os.Create(*outp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	type campaign struct {
		run     func() *experiment.Matrix
		text    func(io.Writer, *experiment.Matrix)
		distrib bool
	}
	timesShareChars := func(w io.Writer, m *experiment.Matrix) {
		experiment.WriteDownloadTimes(w, m)
		experiment.WriteCellShare(w, m)
		experiment.WritePathCharacteristics(w, m)
	}
	var campaigns []campaign
	if want("fig2", "fig3", "table2") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.Baseline(opts) }, timesShareChars, false})
	}
	if want("fig4", "fig5", "table3") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.SmallFlows(opts) }, timesShareChars, false})
	}
	if want("fig6", "fig7", "table4") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.CoffeeShop(opts) }, timesShareChars, false})
	}
	if want("fig8") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.SimultaneousSYN(opts) },
			func(w io.Writer, m *experiment.Matrix) { experiment.WriteDownloadTimes(w, m) }, false})
	}
	if want("fig9", "fig10", "table5") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.LargeFlows(opts) }, timesShareChars, false})
	}
	if want("fig11") {
		size := units.ByteCount(512 * units.MB)
		if *quick {
			size = 64 * units.MB
		}
		bopts := opts
		if bopts.Reps > 3 {
			bopts.Reps = 3
		}
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.Backlog(size, bopts) },
			func(w io.Writer, m *experiment.Matrix) { experiment.WriteDownloadTimes(w, m) }, false})
	}
	if want("shootout", "sched") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.SchedulerShootout(opts) }, timesShareChars, false})
	}
	if want("fig12", "fig13", "table6") {
		campaigns = append(campaigns, campaign{func() *experiment.Matrix { return experiment.LatencyDistribution(opts) },
			func(w io.Writer, m *experiment.Matrix) {
				experiment.WriteRTTCCDF(w, m)
				experiment.WriteOFOCCDF(w, m)
				experiment.WriteMPTCPLatencyTable(w, m)
			}, true})
	}
	if len(campaigns) == 0 {
		fmt.Fprintf(os.Stderr, "paperbench: nothing selected by -experiment %q\n", *which)
		os.Exit(2)
	}

	// speedline summarizes a campaign's host-side performance:
	// aggregate busy time over wall time approximates the speedup the
	// worker pool delivered, events/sec is the simulator's throughput,
	// and allocs/run is the heap-allocation cost of one download (the
	// pooled hot path keeps it O(window), not O(packets)). In text mode
	// it lands in the report; otherwise on stderr so csv/json stay
	// machine-readable.
	speedline := func(m *experiment.Matrix, allocs uint64) {
		dst := io.Writer(os.Stderr)
		if *format == "text" {
			dst = w
		}
		speedup := 1.0
		if m.WallTime > 0 {
			speedup = m.BusyTime.Seconds() / m.WallTime.Seconds()
		}
		runs := 0
		for _, row := range m.Rows {
			for _, c := range row.Cells {
				runs += c.Times.N() + c.Failures
			}
		}
		var evRate, allocsPerRun float64
		if m.WallTime > 0 {
			evRate = float64(m.TotalEvents) / m.WallTime.Seconds()
		}
		if runs > 0 {
			allocsPerRun = float64(allocs) / float64(runs)
		}
		fmt.Fprintf(dst, "%s: wall %.2fs, aggregate run time %.2fs, %d workers (%.2fx speedup), %.2fM events/sec, %.0f allocs/run\n",
			m.ID, m.WallTime.Seconds(), m.BusyTime.Seconds(), m.Workers, speedup, evRate/1e6, allocsPerRun)
	}

	var matrices []*experiment.Matrix
	var distribs []experiment.DistributionExport
	cancelled := false
	for _, c := range campaigns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := c.run()
		runtime.ReadMemStats(&after)
		matrices = append(matrices, m)
		if *format == "text" {
			c.text(w, m)
		}
		speedline(m, after.Mallocs-before.Mallocs)
		if m.FailedRuns > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d FAILED RUNS, first: %s\n", m.ID, m.FailedRuns, m.FirstFailure)
		}
		if c.distrib {
			distribs = append(distribs, m.ExportDistributions()...)
		}
		if m.Cancelled {
			cancelled = true
			fmt.Fprintf(os.Stderr, "%s: cancelled — emitting partial results\n", m.ID)
			break
		}
	}
	stopSignals()

	switch *format {
	case "text":
		fmt.Fprintln(w, "\ndone.")
	case "csv":
		if err := experiment.WriteCSV(w, matrices...); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	case "json":
		out := struct {
			Cells         []experiment.CellExport         `json:"cells"`
			Distributions []experiment.DistributionExport `json:"distributions,omitempty"`
		}{Distributions: distribs}
		for _, m := range matrices {
			out.Cells = append(out.Cells, m.Export()...)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	if cancelled {
		os.Exit(130)
	}
}
