package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace"` // the run or campaign the span belongs to
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, trace, attr string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Trace: trace, Attr: attr, Start: now,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the lengths of the named spans in seconds, grouped
// by attribute.
func (t *tracer) durations(name string) map[string][]float64 {
	out := map[string][]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out[s.Attr] = append(out[s.Attr], float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// all flattens durations over attributes.
func all(byAttr map[string][]float64) []float64 {
	var vs []float64
	for _, v := range byAttr {
		vs = append(vs, v...)
	}
	return vs
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// profiled runs fn under the CPU profiler and keeps the profile for
// the package shares.
func (r *run) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	r.profiles = append(r.profiles, buf.Bytes())
	return err
}

// layerPackages are the packages whose share of CPU samples the traced
// run reports, as "<name>.cpu_share". Samples are attributed to the
// package of the leaf frame; "other" takes the standard library, the
// benchmark itself and the remaining mptcplab packages.
var layerPackages = []string{
	"sim", "netem", "tcp", "mptcp", "cc", "seg", "check", "chaos",
	"experiment", "load", "sweep", "runtime",
}

// bucketOf maps a profiled function name to its layer.
func bucketOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case !strings.Contains(fn, "."): // assembly helpers such as aeshashbody
		return "runtime"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mptcplab/internal/"):
		name := strings.TrimPrefix(pkg, "mptcplab/internal/")
		for _, l := range layerPackages {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "mptcplab/internal/tcp.(*Endpoint).pipe" or
// "mptcplab/internal/sweep.Run[...].func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// finishTrace turns a traced run's spans and profiles into per-layer
// metrics and writes them out beside the run.
func (r *run) finishTrace(workload string, rep *report) error {
	base := filepath.Join(r.out, fmt.Sprintf("%s-seed%d", workload, r.seed))
	if err := r.tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	var files []string
	for i, p := range r.profiles {
		f := fmt.Sprintf("%s.cpu%d.pprof", base, i)
		if err := os.WriteFile(f, p, 0o644); err != nil {
			return err
		}
		files = append(files, f)
	}
	flat, err := flatCPU(files)
	if err != nil {
		return err
	}
	samples := map[string]float64{}
	var total float64
	for fn, v := range flat {
		samples[bucketOf(fn)] += v
		total += v
	}
	if total == 0 {
		return fmt.Errorf("the CPU profile holds no samples")
	}
	for _, l := range append(layerPackages, "other") {
		r.layer(l+".cpu_share", "frac", samples[l]/total)
	}
	overhead := median(r.wallTraced) - median(r.wallPlain)
	r.layer("trace.overhead_s", "s", overhead)
	r.layer("trace.spans", "count", float64(len(r.tr.spans)))
	if err := writeShares(base+".cpu.txt", samples, total); err != nil {
		return err
	}
	rep.Metrics = r.layers
	rep.notes = append(rep.notes,
		fmt.Sprintf("tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s (%d traced, %d untraced cycles)",
			median(r.wallTraced), median(r.wallPlain), overhead, len(r.wallTraced), len(r.wallPlain)),
		fmt.Sprintf("spans: %s.spans.jsonl; CPU profiles: %s.cpu*.pprof; shares: %s.cpu.txt", base, base, base))
	return nil
}

// flatCPU sums the CPU profiles' samples by the function of their
// leaf frame, in nanoseconds, as the toolchain's `go tool pprof -top`
// reports them in its flat column. An inlined call is its own leaf.
func flatCPU(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-symbolize=none", "-unit=ns",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTop(out)
}

// topRow is one function row of `go tool pprof -top -unit=ns`:
// flat, flat%, sum%, cum, cum%, then the function name.
var topRow = regexp.MustCompile(`^\s*(\d+)(?:ns)?\s+\S+%\s+\S+%\s+\d+(?:ns)?\s+\S+%\s+(.+?)(?: \(inline\))?$`)

// parseTop reads the flat time of every function row of pprof's -top
// report, leaving out functions with none. The header above the
// column titles is skipped.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		if !rows {
			rows = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("unexpected pprof -top row %q", line)
		}
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		if ns > 0 {
			flat[m[2]] += ns
		}
	}
	if !rows {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return flat, nil
}

func writeShares(path string, samples map[string]float64, total float64) error {
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return samples[names[i]] > samples[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-12s %6.2f%%  %.3fs\n", n, 100*samples[n]/total, samples[n]/1e9)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
