// Command e2ebench is mptcplab's end-to-end benchmark. It runs one
// workload for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1024, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 they are the per-layer ones, measured by timing calls
// into the program's public functions from this package, and the run
// also writes its spans and CPU profiles under --out.
//
//	e2ebench --workload fig4-campaign --seed 1 --seconds 20 --trace 0
//	e2ebench compare base.jsonl head.jsonl
//
// run.sh builds this binary and mptcpd from the checkout and runs it;
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// readyEnv, when set in the environment, makes the binary a set-up
// probe: it makes its first call into the program, reports "ready" on
// standard output and exits. The parent times exec until that line.
const readyEnv = "E2EBENCH_READY_PROBE"

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	mptcpd   string // path of the mptcpd binary the daemon workloads start
	out      string // directory for span files, profiles and daemon stores
	scale    scale

	// jobDelay, when positive, sleeps inside every fig4 job. Only the
	// benchmark's own test sets it, to check that the comparison flags
	// a slowdown.
	jobDelay time.Duration
}

// scale sizes the workloads. The full scale is what the benchmark
// measures; the test runs every workload at tinyScale.
type scale struct {
	fig4Reps     int       // reps per fig4 cell: 8 rows x 4 sizes x reps runs
	fleetClients int       // fleet members sharing the access links
	fleetRates   []float64 // arrival rates swept, flows per simulated second
	fleetReps    int       // repetitions per rate
	fleetSeconds int       // simulated arrival window; the drain is half of it
	warmRepeats  int       // fleet export renderings timed as one warm sample
	daemonReps   int       // reps of the fig4 campaign submitted to mptcpd
	setupSpawns  int       // set-up probes per run
	minCycles    int       // cycles measured even when --seconds is short
	storeRows    int       // rows written by the store probe
}

func fullScale() scale {
	return scale{
		fig4Reps: 32,
		// 1,000 clients at 30 and 40 flows/s: at the knee of the
		// access links (the AP at its utilisation plateau, LTE at 92%,
		// 89% of flows complete) and past it (both links at their
		// ceiling, 77% complete); README.md has the rate sweep. Jobs
		// at the two rates take 0.24 and 0.29 s serially, so 16 of
		// them spread evenly over the workers.
		fleetClients: 1000,
		fleetRates:   []float64{30, 40},
		fleetReps:    8,
		fleetSeconds: 20,
		warmRepeats:  200,
		daemonReps:   8,
		setupSpawns:  40,
		minCycles:    3,
		storeRows:    256,
	}
}

func tinyScale() scale {
	return scale{
		fig4Reps:     1,
		fleetClients: 40,
		fleetRates:   []float64{3, 6},
		fleetReps:    2,
		fleetSeconds: 4,
		warmRepeats:  2,
		daemonReps:   1,
		setupSpawns:  3,
		minCycles:    2,
		storeRows:    16,
	}
}

// workload is one input set the benchmark runs. run measures cycles
// until the deadline and records samples, counts and checks into r.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"fig4-campaign", runFig4},
	{"fleet-chaos", runFleet},
	{"daemon-store", runDaemonStore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if os.Getenv(readyEnv) != "" {
		readyProbe()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	opts := options{scale: fullScale()}
	var secs int
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 20, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&opts.mptcpd, "mptcpd", "", "path of the mptcpd binary (required)")
	flag.StringVar(&opts.out, "out", ".bench_build/out", "directory for span files, profiles and daemon stores")
	flag.Parse()

	w, ok := findWorkload(opts.workload)
	switch {
	case !ok:
		fatalf("unknown --workload %q (want %s)", opts.workload, workloadNames())
	case secs < 1:
		fatalf("--seconds %d: must be at least 1", secs)
	case traceFlag != 0 && traceFlag != 1:
		fatalf("--trace %d: want 0 or 1", traceFlag)
	case opts.mptcpd == "":
		fatalf("--mptcpd is required")
	}
	opts.seconds = time.Duration(secs) * time.Second
	opts.trace = traceFlag == 1
	var err error
	if opts.mptcpd, err = filepath.Abs(opts.mptcpd); err != nil {
		fatalf("%v", err)
	}

	rep, err := execute(w, opts)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fatalf("%v", err)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Human-readable extras printed above the result line.
	problems []string
	digests  []string
	notes    []string
}

// execute runs one workload and assembles its report: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one.
func execute(w workload, opts options) (*report, error) {
	r := newRun(opts)
	defer r.cleanup()
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	if err := w.run(r); err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
		problems:  r.problems,
		digests:   r.digests,
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	if !opts.trace {
		for name, vs := range r.samples {
			rep.Metrics[name] = metric{median(vs), r.units[name]}
		}
		rep.Metrics["ok_frac"] = metric{1 - float64(r.failed)/float64(r.attempted), "frac"}
		return rep, nil
	}
	if err := r.finishTrace(w.name, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// printReport writes one "name value unit" line per metric, the
// export digests and any correctness problems, then the JSON result.
func printReport(w io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g frac (%d of %d operations)\n", "failed_frac",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	for _, d := range rep.digests {
		fmt.Fprintln(w, d)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// workers is the load the benchmark puts on the host: no more
// concurrent runs than CPUs.
func workers() int { return runtime.NumCPU() }
