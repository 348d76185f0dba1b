package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []bound `json:"end_to_end"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the base median the head may be worse by
}

// verdict compares one end-to-end metric across two sets of runs.
type verdict struct {
	bound
	base, head   float64 // medians
	baseSpread   float64 // base interquartile range over its median
	change       float64 // (head - base) / base
	worsePairs   float64 // share of (base, head) run pairs the head loses
	n, m         int
	regressed    bool // worse by more than the bound: a rejected change
	slower       bool // worse beyond the noise, though within the bound
	missingValue bool
}

// compare flags every end-to-end metric whose head median is worse
// than the base median by more than its bound. Below the bound it
// flags a metric as slower when the median moved by more than the
// base runs' own interquartile spread and the head loses at least nine
// in ten of all (base, head) pairs of runs, the Mann-Whitney U
// statistic over n*m.
func compare(spec benchSpec, base, head []report) []verdict {
	var out []verdict
	for _, b := range spec.EndToEnd {
		bv, hv := values(base, b.Name), values(head, b.Name)
		v := verdict{bound: b, n: len(bv), m: len(hv)}
		if len(bv) == 0 || len(hv) == 0 {
			v.missingValue, v.regressed = true, true
			out = append(out, v)
			continue
		}
		v.base, v.head = median(bv), median(hv)
		if v.base != 0 {
			v.baseSpread = (quantile(bv, 0.75) - quantile(bv, 0.25)) / v.base
			v.change = (v.head - v.base) / v.base
		}
		worse := func(h, b float64) bool { return h > b }
		if b.Better == "higher" {
			worse = func(h, b float64) bool { return h < b }
		}
		lost := 0
		for _, x := range bv {
			for _, y := range hv {
				if worse(y, x) {
					lost++
				}
			}
		}
		v.worsePairs = float64(lost) / float64(len(bv)*len(hv))
		shift := v.change
		if b.Better == "higher" {
			shift = -shift
		}
		v.regressed = shift > b.Bound
		v.slower = !v.regressed && shift > v.baseSpread && v.worsePairs >= 0.9
		out = append(out, v)
	}
	return out
}

func values(rs []report, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// readReports reads the result lines in a file; other lines are
// skipped, so the file may hold whole benchmark outputs.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareMain is "e2ebench compare [-bench BENCHMARK.json] base head":
// base and head hold result lines of untraced runs of one workload on
// two commits, best taken interleaved. It prints one row per
// end-to-end metric and exits 1 if any regressed beyond its bound or
// any head run reported incorrect outputs or failed operations.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *specPath, err)
		return 2
	}
	var sets [2][]report
	for i, path := range fs.Args() {
		if sets[i], err = readReports(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
	}
	bad := 0
	for i, r := range sets[1] {
		if !r.Correct || r.Failed > 0 {
			fmt.Fprintf(stdout, "INCORRECT: head run %d of %s: correct=%v, %d of %d operations failed\n",
				i+1, fs.Arg(1), r.Correct, r.Failed, r.Attempted)
			bad++
		}
	}
	vs := compare(spec, sets[0], sets[1])
	fmt.Fprintf(stdout, "%-16s %12s %12s %8s %8s %7s %6s  %s\n", "metric", "base", "head", "change", "spread", "bound", "lost", "n/m")
	for _, v := range vs {
		flag := ""
		switch {
		case v.regressed:
			flag = "  REGRESSED"
			bad++
		case v.slower:
			flag = "  slower (within bound)"
		}
		if v.missingValue {
			flag = "  MISSING"
		}
		fmt.Fprintf(stdout, "%-16s %12.6g %12.6g %+7.1f%% %7.1f%% %6.1f%% %5.0f%%  %d/%d%s\n",
			v.Name, v.base, v.head, 100*v.change, 100*v.baseSpread, 100*v.Bound, 100*v.worsePairs, v.n, v.m, flag)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
