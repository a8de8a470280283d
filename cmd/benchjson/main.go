// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON document on stdout. The Makefile's
// bench target pipes the suite through it to produce BENCH_PR3.json, so
// benchmark history (notably the instrumented vs nil-recorder trial loop)
// can be diffed across PRs.
//
// With -compare it instead diffs two such documents:
//
//	benchjson -compare BENCH_PR2.json BENCH_PR3.json -max-regress 15
//
// printing per-benchmark ns/op deltas and exiting non-zero when any
// benchmark present in both files regressed by more than -max-regress
// percent — the CI guard against accidental slowdowns. When both files
// carry a benchmark's allocs/op (`go test -benchmem`), the table shows
// the old and new counts beside its times; they are informational and
// never fail the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Pkg is the import path of the package the benchmark ran in, from
	// the "pkg:" header preceding its result lines. Reports written
	// before it was recorded leave it empty (see Report.pkgOf).
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark path without the "Benchmark" prefix or the
	// trailing -GOMAXPROCS suffix (e.g. "TrialLoopRecording/off").
	Name string `json:"name"`
	// Iters is the b.N the reported means were measured over.
	Iters int64 `json:"iters"`
	// Metrics maps unit → value: ns/op, B/op, allocs/op, plus any custom
	// b.ReportMetric units (gain-bits, states, …).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Pkg is set when every benchmark ran in one package. Older reports
	// carry only this field, holding the last "pkg:" header of the run.
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// pkgOf returns b's package, falling back to the report-level one for
// entries from reports that predate per-benchmark packages.
func (r *Report) pkgOf(b Benchmark) string {
	if b.Pkg != "" {
		return b.Pkg
	}
	return r.Pkg
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	compare := fs.Bool("compare", false, "compare two benchmark JSON files (old new) instead of parsing stdin")
	maxRegress := fs.Float64("max-regress", 15, "with -compare: fail when any shared benchmark's ns/op regressed by more than this percentage")
	benchFilter := fs.String("bench", "", "with -compare: restrict the comparison to the exact benchmark of this name (sans Benchmark prefix); fails if it is missing from either file")
	// Accept flags before and after the positional file arguments
	// (benchjson -compare old.json new.json -max-regress 15): the stdlib
	// parser stops at the first non-flag, so feed it back the remainder.
	var files []string
	rest := os.Args[1:]
	for {
		_ = fs.Parse(rest)
		if fs.NArg() == 0 {
			break
		}
		files = append(files, fs.Arg(0))
		rest = fs.Args()[1:]
	}

	if *compare {
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		ok, err := runCompare(os.Stdout, files[0], files[1], *maxRegress, *benchFilter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadReport reads one benchjson document.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports.
type benchKey struct{ pkg, name string }

// runCompare prints the ns/op delta table for benchmarks present in both
// reports and reports whether every shared benchmark stayed within
// maxRegress percent of the old time. Benchmarks that exist on only one
// side are listed but never fail the comparison (suites grow across
// PRs).
//
// A benchmark is identified by (package, name). A name that occurs in
// exactly one package on each side pairs across a package change: older
// reports stamped every entry with the run's last "pkg:" header, so
// their packages are not reliable, and a benchmark that moves package
// stays compared. A -bench filter selects every shared benchmark of
// that name.
func runCompare(w io.Writer, oldPath, newPath string, maxRegress float64, benchFilter string) (bool, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	oldRes, oldNames := resultsByKey(oldRep)
	newRes, newNames := resultsByKey(newRep)

	// label names a benchmark by name alone unless the name is ambiguous
	// within its report.
	label := func(k benchKey, names map[string][]benchKey) string {
		if len(names[k.name]) > 1 {
			return k.name + " [" + k.pkg + "]"
		}
		return k.name
	}
	type pair struct {
		label    string
		old, new map[string]float64
	}
	var shared []pair
	var added []benchKey
	matched := map[benchKey]bool{}
	for _, b := range newRep.Benchmarks {
		k := benchKey{newRep.pkgOf(b), b.Name}
		n, has := newRes[k]
		if !has || (benchFilter != "" && b.Name != benchFilter) {
			continue
		}
		oldKey := k
		if _, both := oldRes[k]; !both && len(oldNames[k.name]) == 1 && len(newNames[k.name]) == 1 {
			oldKey = oldNames[k.name][0]
		}
		if o, both := oldRes[oldKey]; both {
			matched[oldKey] = true
			shared = append(shared, pair{label(k, newNames), o, n})
		} else {
			added = append(added, k)
		}
	}
	if benchFilter != "" {
		// Targeted gate mode: the benchmark must exist in both files — a
		// missing benchmark silently passing would defeat the gate.
		if len(shared) == 0 {
			return false, fmt.Errorf("-bench %s: benchmark not present in both %s and %s", benchFilter, oldPath, newPath)
		}
		added, oldRep.Benchmarks = nil, nil
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].label < shared[j].label })
	sort.Slice(added, func(i, j int) bool { return label(added[i], newNames) < label(added[j], newNames) })

	// allocs returns a pair's old and new allocs/op when both sides
	// carry them.
	allocs := func(p pair) (o, n float64, both bool) {
		o, hasOld := p.old["allocs/op"]
		n, hasNew := p.new["allocs/op"]
		return o, n, hasOld && hasNew
	}
	withAllocs := false
	for _, p := range shared {
		_, _, both := allocs(p)
		withAllocs = withAllocs || both
	}
	allocCols := func(o, n string) string {
		if !withAllocs {
			return ""
		}
		return fmt.Sprintf(" %12s %12s", o, n)
	}

	ok := true
	fmt.Fprintf(w, "%-40s %14s %14s %9s%s\n", "benchmark", "old ns/op", "new ns/op", "delta", allocCols("old allocs", "new allocs"))
	for _, p := range shared {
		o, n := p.old["ns/op"], p.new["ns/op"]
		delta := 100 * (n - o) / o
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			ok = false
		}
		cols := allocCols("—", "—")
		if oa, na, both := allocs(p); both {
			cols = allocCols(strconv.FormatFloat(oa, 'f', -1, 64), strconv.FormatFloat(na, 'f', -1, 64))
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %+8.1f%%%s%s\n", p.label, o, n, delta, cols, mark)
	}
	for _, k := range added {
		fmt.Fprintf(w, "%-40s %14s %14.0f %9s\n", label(k, newNames), "—", newRes[k]["ns/op"], "new")
	}
	for _, b := range oldRep.Benchmarks {
		k := benchKey{oldRep.pkgOf(b), b.Name}
		if res, has := oldRes[k]; has && !matched[k] {
			fmt.Fprintf(w, "%-40s %14.0f %14s %9s\n", label(k, oldNames), res["ns/op"], "—", "removed")
		}
	}
	if !ok {
		fmt.Fprintf(w, "\nFAIL: at least one benchmark regressed by more than %.1f%%\n", maxRegress)
	} else {
		fmt.Fprintf(w, "\nOK: no shared benchmark regressed by more than %.1f%%\n", maxRegress)
	}
	return ok, nil
}

// resultsByKey indexes the metrics of a report's results that carry
// ns/op by (package, name) and lists the keys under each name.
func resultsByKey(rep *Report) (map[benchKey]map[string]float64, map[string][]benchKey) {
	res := map[benchKey]map[string]float64{}
	names := map[string][]benchKey{}
	for _, b := range rep.Benchmarks {
		if _, ok := b.Metrics["ns/op"]; !ok {
			continue
		}
		k := benchKey{rep.pkgOf(b), b.Name}
		if _, dup := res[k]; !dup {
			names[k.name] = append(names[k.name], k)
		}
		res[k] = b.Metrics
	}
	return res, names
}

// add inserts one parsed result, merging repeated runs of the same
// benchmark in one package (`go test -count N` emits one line per run)
// by keeping the
// fastest one. The minimum ns/op sample is the least
// scheduler/thermal-perturbed estimate of the code's true cost, so
// recording the min across runs is what keeps the -compare regression
// gate stable on noisy shared hosts. Runs without an ns/op metric keep
// their first occurrence.
func (r *Report) add(b Benchmark) {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name != b.Name || r.Benchmarks[i].Pkg != b.Pkg {
			continue
		}
		oldNs, oldOK := r.Benchmarks[i].Metrics["ns/op"]
		newNs, newOK := b.Metrics["ns/op"]
		if newOK && (!oldOK || newNs < oldNs) {
			r.Benchmarks[i] = b
		}
		return
	}
	r.Benchmarks = append(r.Benchmarks, b)
}

// parse scans benchmark output: "goos:"/"goarch:"/"pkg:" headers and
// "Benchmark<Name>-P  N  v1 u1  v2 u2 …" result lines; everything else
// (PASS, ok, metric noise) is ignored. Each result is stamped with the
// package of the "pkg:" header before it, so output from several
// packages (`go test -bench . ./a ./b`) keeps each benchmark's own.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	pkgs := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResult(line)
			if ok {
				b.Pkg = pkg
				pkgs[pkg] = true
				rep.add(b)
			}
		}
	}
	if len(pkgs) == 1 {
		rep.Pkg = pkg
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return rep, nil
}

func parseResult(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
