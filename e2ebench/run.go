package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/stats"
)

// run is the state of one benchmark invocation: the samples each cycle
// records, the operations attempted and failed, the correctness
// problems found and, in a traced run, the spans and layer metrics.
type run struct {
	options
	start time.Time

	attempted, failed int
	problems          []string
	digests           []string

	samples map[string][]float64 // end-to-end samples, one per cycle
	units   map[string]string

	tr                    *tracer           // nil in an untraced run
	layers                map[string]metric // per-layer metrics of a traced run
	wallPlain, wallTraced []float64
	profiles              [][]byte // CPU profiles of the traced cycles

	tmp string // scratch directory for stores, removed at exit
}

func newRun(o options) *run {
	r := &run{
		options: o,
		start:   time.Now(),
		samples: map[string][]float64{},
		units:   map[string]string{},
		layers:  map[string]metric{},
	}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) cleanup() {
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

// scratch returns a fresh empty directory under the run's scratch
// area.
func (r *run) scratch(name string) (string, error) {
	if r.tmp == "" {
		dir, err := os.MkdirTemp(r.out, "work-")
		if err != nil {
			return "", err
		}
		r.tmp = dir
	}
	dir := filepath.Join(r.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// sample records one end-to-end observation.
func (r *run) sample(name, unit string, v float64) {
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

// layer records one per-layer metric of a traced run.
func (r *run) layer(name, unit string, v float64) {
	r.layers[name] = metric{v, unit}
}

// layerIfMissing records a probe's value for a layer metric the
// workload itself did not produce.
func (r *run) layerIfMissing(name, unit string, v float64) {
	if _, ok := r.layers[name]; !ok {
		r.layer(name, unit, v)
	}
}

// ops counts operations against the failed fraction.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// problem records an incorrect output; it also counts as a failed
// operation.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// sameBytes checks one output against its reference, counting the
// comparison as an operation.
func (r *run) sameBytes(what string, got, want []byte) {
	r.attempted++
	if !bytes.Equal(got, want) {
		r.problem("%s differs from its reference (%d vs %d bytes, sha256 %s vs %s)",
			what, len(got), len(want), digest(got), digest(want))
	}
}

// printDigest adds an export's SHA-256 to the printed output, so two
// commits' outputs can be compared without a pinned fixture.
func (r *run) printDigest(name string, b []byte) {
	r.digests = append(r.digests, fmt.Sprintf("sha256 %-34s %s", name, digest(b)))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum)
}

// cpuNow is the process's user+sys time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the process's peak resident set while a cycle
// runs. getrusage's ru_maxrss covers the whole process lifetime, so a
// single garbage-collection spike in any cycle would set the figure;
// sampling per cycle lets the run report the median cycle instead.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampling goroutine until done closes
	err  error
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rss, err := residentBytes()
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, rss)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20), s.err
}

// residentBytes reads the process's current resident set.
func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}

// readyProbe is the child side of the set-up measurement: its first
// call into the program, then the line the parent waits for.
func readyProbe() {
	if experiment.ResolveCampaign("fig4") == "" {
		os.Exit(1)
	}
	fmt.Println("ready")
}

// measureSetup times exec until the first call into the program, by
// starting this binary as a set-up probe several times, and records
// the median as setup_s.
func (r *run) measureSetup() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < r.scale.setupSpawns; i++ {
		d, err := timeReady(self)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		r.sample("setup_s", "s", d.Seconds())
	}
	return nil
}

func timeReady(path string) (time.Duration, error) {
	cmd := exec.Command(path)
	cmd.Env = append(os.Environ(), readyEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe printed %q: %v", line, rerr)
	}
	return d, werr
}

// quantile of a sample by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	s := stats.New()
	s.AddAll(vs)
	return s.Quantile(q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
