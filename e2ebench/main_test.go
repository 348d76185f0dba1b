package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mptcpdBin is the daemon the daemon workloads start, built once for
// the whole test binary.
var mptcpdBin string

func TestMain(m *testing.M) {
	if os.Getenv(readyEnv) != "" {
		readyProbe()
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "e2ebench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mptcpdBin = filepath.Join(dir, "mptcpd")
	out, err := exec.Command("go", "build", "-o", mptcpdBin, "mptcplab/cmd/mptcpd").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build mptcpd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// specFile is BENCHMARK.json as far as the tests read it.
type specFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  time.Millisecond, // minCycles decides
		trace:    traced,
		mptcpd:   mptcpdBin,
		out:      t.TempDir(),
		scale:    tinyScale(),
	}
}

// TestEveryMetricPrinted runs each workload at a tiny scale, plain and
// traced, and checks that the output names exactly the metrics of
// BENCHMARK.json with their units, that the outputs were correct, and
// that a traced run writes its span file.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				opts := tinyOptions(t, w.name, traced)
				rep, err := execute(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := printReport(&buf, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var got report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", got.Correct, got.Failed, got.Attempted, buf.String())
				}

				want := map[string]string{}
				if traced {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					m, ok := got.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
					if !strings.Contains(buf.String(), "\n"+name+" ") && !strings.HasPrefix(buf.String(), name+" ") {
						t.Errorf("metric %s has no readable line", name)
					}
				}
				for name := range got.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if traced {
					spans := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, opts.seed))
					if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
						t.Errorf("span file %s: %v", spans, err)
					}
				}
			})
		}
	}
}

// TestInjectedSlowdownFlagged sleeps inside every fig4 job so that a
// cycle takes 15% longer, and checks the comparison flags wall_s. The
// slowdown is below the wall_s bound, so the flag is "slower"; the
// runs of both sides alternate, as a same-host A/B should.
func TestInjectedSlowdownFlagged(t *testing.T) {
	spec := loadSpec(t)
	w, _ := findWorkload("fig4-campaign")
	const reps = 4
	measure := func(delay time.Duration) report {
		opts := tinyOptions(t, w.name, false)
		opts.scale.fig4Reps = reps
		opts.scale.setupSpawns = 1
		opts.jobDelay = delay
		rep, err := execute(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return *rep
	}
	measure(0) // warm the page cache and the heap
	var base, head []report
	var delay time.Duration
	for i := 0; i < 7; i++ {
		base = append(base, measure(0))
		if i == 0 {
			jobs := 8 * len(fig4Sizes) * reps
			wall := base[0].Metrics["wall_s"].Value
			delay = time.Duration(0.15 * wall * float64(workers()) / float64(jobs) * float64(time.Second))
		}
		head = append(head, measure(delay))
	}
	for _, v := range compare(benchSpec{EndToEnd: spec.EndToEnd}, base, head) {
		if v.Name != "wall_s" {
			continue
		}
		if !v.regressed && !v.slower {
			t.Fatalf("a %v sleep per job moved wall_s %+.1f%% (%.4f -> %.4f s, base spread %.1f%%, head lost %.0f%% of pairs) and was not flagged",
				delay, 100*v.change, v.base, v.head, 100*v.baseSpread, 100*v.worsePairs)
		}
		return
	}
	t.Fatal("BENCHMARK.json has no wall_s metric")
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mptcplab/internal/tcp.(*Endpoint).pipe":                          "tcp",
		"mptcplab/internal/sweep.Run[go.shape.*uint8,go.shape.int].func1": "sweep",
		"mptcplab/internal/netem.(*ring[go.shape.struct { a.b }]).pop":    "netem",
		"mptcplab/internal/stats.(*Sample).Quantile":                      "other",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"aeshashbody": "runtime",
		"slices.partitionOrdered[go.shape.float64]": "other",
		"main.(*run).sample":                        "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCompareRejectsIncorrectHead checks that the comparison fails a
// head whose runs were incorrect even when its times hold.
func TestCompareRejectsIncorrectHead(t *testing.T) {
	dir := t.TempDir()
	line := func(correct bool, failed int) string {
		b, err := json.Marshal(report{Correct: correct, Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"wall_s": {1, "s"}, "cpu_s": {1, "s"}, "setup_s": {0.01, "s"}, "peak_rss_mb": {100, "MB"},
			"ok_frac": {1 - float64(failed)/100, "frac"}, "cold_export_s": {1, "s"}, "warm_export_s": {0.1, "s"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", strings.Repeat(line(true, 0), 3))
	for _, c := range []struct {
		name string
		head string
		want int
	}{
		{"correct", strings.Repeat(line(true, 0), 3), 0},
		{"correct=false", line(true, 0) + line(false, 0) + line(true, 0), 1},
		{"failed>0", line(true, 0) + line(true, 0) + line(true, 1), 1},
	} {
		var out, errOut bytes.Buffer
		head := write("head.jsonl", c.head)
		got := compareMain([]string{"-bench", "../BENCHMARK.json", base, head}, &out, &errOut)
		if got != c.want {
			t.Errorf("%s head: exit %d, want %d\n%s%s", c.name, got, c.want, out.String(), errOut.String())
		}
		if c.want == 1 && !strings.Contains(out.String(), "INCORRECT: head run") {
			t.Errorf("%s head: no INCORRECT line\n%s", c.name, out.String())
		}
	}
}

func TestParseTop(t *testing.T) {
	out := `File: e2ebench
Type: cpu
Duration: 6.31s, Total samples = 9680000000ns (153.45%)
Showing nodes accounting for 9680000000ns, 100% of 9680000000ns total
      flat  flat%   sum%        cum   cum%
1130000000ns 11.67% 11.67% 1160000000ns 11.98%  mptcplab/internal/tcp.(*Endpoint).pipe (inline)
 540000000ns  5.58% 17.25%  770000000ns  7.95%  mptcplab/internal/sim.(*Simulator).pop
  10000000ns   0.1% 17.35%   10000000ns   0.1%  mptcplab/internal/netem.(*ring[go.shape.struct { a.b }]).pop
         0     0% 17.35%  990000000ns 10.23%  main.main
`
	got, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mptcplab/internal/tcp.(*Endpoint).pipe":                       1130000000,
		"mptcplab/internal/sim.(*Simulator).pop":                       540000000,
		"mptcplab/internal/netem.(*ring[go.shape.struct { a.b }]).pop": 10000000,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d rows, want %d: %v", len(got), len(want), got)
	}
	for fn, ns := range want {
		if got[fn] != ns {
			t.Errorf("%s: %v ns, want %v", fn, got[fn], ns)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("a report without a table parsed")
	}
}
