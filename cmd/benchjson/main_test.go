package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: flowrecon
cpu: some cpu
BenchmarkStateCount-8         	 5000000	       231.4 ns/op	         1.284e+21 states
BenchmarkTrialLoopRecording/off-8    	     358	   3351216 ns/op	  501690 B/op	    5346 allocs/op
BenchmarkTrialLoopRecording/record-8 	     301	   3904102 ns/op	  812345 B/op	    9123 allocs/op
PASS
ok  	flowrecon	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "flowrecon" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d", len(rep.Benchmarks))
	}
	sc := rep.Benchmarks[0]
	if sc.Name != "StateCount" || sc.Iters != 5000000 {
		t.Fatalf("first: %+v", sc)
	}
	if sc.Metrics["ns/op"] != 231.4 || sc.Metrics["states"] != 1.284e+21 {
		t.Fatalf("metrics: %+v", sc.Metrics)
	}
	off := rep.Benchmarks[1]
	if off.Name != "TrialLoopRecording/off" {
		t.Fatalf("sub-benchmark name: %q", off.Name)
	}
	if off.Metrics["allocs/op"] != 5346 {
		t.Fatalf("allocs: %+v", off.Metrics)
	}
	rec := rep.Benchmarks[2]
	if rec.Metrics["ns/op"] <= off.Metrics["ns/op"] {
		t.Fatalf("sample sanity: %v vs %v", rec.Metrics["ns/op"], off.Metrics["ns/op"])
	}
}

// TestParseMergesRepeatedRuns covers `go test -count N` output: repeated
// result lines for one benchmark must collapse to a single entry holding
// the fastest run's metrics (min ns/op is the least-perturbed sample).
func TestParseMergesRepeatedRuns(t *testing.T) {
	const repeated = `goos: linux
BenchmarkA-8 	 100	 300.0 ns/op	 48 B/op	 2 allocs/op
BenchmarkA-8 	 120	 250.0 ns/op	 40 B/op	 1 allocs/op
BenchmarkA-8 	 110	 275.0 ns/op	 44 B/op	 2 allocs/op
BenchmarkB-8 	 10	 900.0 ns/op
`
	rep, err := parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2 (runs merged)", len(rep.Benchmarks))
	}
	a := rep.Benchmarks[0]
	if a.Name != "A" || a.Metrics["ns/op"] != 250.0 {
		t.Fatalf("merged A = %+v, want the fastest run (250 ns/op)", a)
	}
	if a.Metrics["allocs/op"] != 1 || a.Iters != 120 {
		t.Fatalf("merged A must carry the whole fastest run, got %+v", a)
	}
	if rep.Benchmarks[1].Name != "B" {
		t.Fatalf("second entry = %+v", rep.Benchmarks[1])
	}
}

// TestParseTwoPackages covers merged output from several packages (the
// bench target runs the root suite and internal/service together): each
// benchmark keeps the package of the "pkg:" header before it, -count
// duplicates merge per (package, name), and the report-level package is
// left empty because no single package describes the run.
func TestParseTwoPackages(t *testing.T) {
	const merged = `goos: linux
goarch: amd64
pkg: flowrecon
BenchmarkShared-8 	 100	 300.0 ns/op
BenchmarkRoot-8   	 100	 500.0 ns/op
BenchmarkShared-8 	 100	 200.0 ns/op
PASS
ok  	flowrecon	1.0s
goos: linux
goarch: amd64
pkg: flowrecon/internal/service
BenchmarkShared-8 	 100	 900.0 ns/op
BenchmarkServiceSessions/c1-8 	 50	 7000.0 ns/op
BenchmarkShared-8 	 100	 800.0 ns/op
PASS
ok  	flowrecon/internal/service	1.0s
`
	rep, err := parse(strings.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "" {
		t.Fatalf("report pkg = %q, want empty for a two-package run", rep.Pkg)
	}
	want := []struct {
		pkg, name string
		ns        float64
	}{
		{"flowrecon", "Shared", 200},
		{"flowrecon", "Root", 500},
		{"flowrecon/internal/service", "Shared", 800},
		{"flowrecon/internal/service", "ServiceSessions/c1", 7000},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %+v, want %d entries", rep.Benchmarks, len(want))
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Pkg != w.pkg || b.Name != w.name || b.Metrics["ns/op"] != w.ns {
			t.Fatalf("entry %d = %s %s %v ns/op, want %s %s %v", i, b.Pkg, b.Name, b.Metrics["ns/op"], w.pkg, w.name, w.ns)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("no benchmarks accepted")
	}
}

func TestParseResultMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",
		"BenchmarkX-8 abc 1 ns/op",
		"BenchmarkX-8 100 xyz ns/op",
		"BenchmarkX-8 100 5 ns/op trailing",
	} {
		if _, ok := parseResult(line); ok {
			t.Fatalf("malformed line parsed: %q", line)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", `{"benchmarks":[
		{"name":"A","iters":1,"metrics":{"ns/op":1000}},
		{"name":"B","iters":1,"metrics":{"ns/op":2000}},
		{"name":"Gone","iters":1,"metrics":{"ns/op":5}}]}`)
	newPath := write("new.json", `{"benchmarks":[
		{"name":"A","iters":1,"metrics":{"ns/op":1100}},
		{"name":"B","iters":1,"metrics":{"ns/op":500}},
		{"name":"New","iters":1,"metrics":{"ns/op":7}}]}`)

	var buf strings.Builder
	ok, err := runCompare(&buf, oldPath, newPath, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("10%% regression must pass a 15%% gate:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"A", "B", "New", "Gone", "new", "removed", "OK:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	ok, err = runCompare(&buf, oldPath, newPath, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("10%% regression must fail a 5%% gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("regression not flagged:\n%s", buf.String())
	}
}

// TestRunCompareBenchFilter covers the targeted gate mode: -bench pins
// one benchmark at its own regression budget and errors (rather than
// passing vacuously) when the benchmark is absent.
func TestRunCompareBenchFilter(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", `{"benchmarks":[
		{"name":"SimScheduler","iters":1,"metrics":{"ns/op":100}},
		{"name":"Other","iters":1,"metrics":{"ns/op":100}}]}`)
	newPath := write("new.json", `{"benchmarks":[
		{"name":"SimScheduler","iters":1,"metrics":{"ns/op":101}},
		{"name":"Other","iters":1,"metrics":{"ns/op":900}}]}`)

	var buf strings.Builder
	// 1% on the filtered benchmark passes a 2% gate even though Other
	// regressed 9x — the filter scopes the verdict.
	ok, err := runCompare(&buf, oldPath, newPath, 2, "SimScheduler")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("1%% regression must pass a 2%% targeted gate:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "Other") {
		t.Fatalf("filtered output must not mention other benchmarks:\n%s", buf.String())
	}

	buf.Reset()
	if ok, err := runCompare(&buf, oldPath, newPath, 0.5, "SimScheduler"); err != nil || ok {
		t.Fatalf("1%% regression must fail a 0.5%% targeted gate (ok=%v err=%v)", ok, err)
	}

	if _, err := runCompare(io.Discard, oldPath, newPath, 2, "Missing"); err == nil {
		t.Fatal("absent benchmark must error, not pass vacuously")
	}
}

func TestRunCompareBadFile(t *testing.T) {
	if _, err := runCompare(io.Discard, "does-not-exist.json", "also-missing.json", 15, ""); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRunComparePackages covers package-aware matching: a name present
// in two packages compares per package, and a report without
// per-benchmark packages (the committed history) falls back to its
// report-level package, pairing by name where that is unambiguous.
func TestRunComparePackages(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	legacy := write("legacy.json", `{"pkg":"flowrecon/internal/service","benchmarks":[
		{"name":"Root","iters":1,"metrics":{"ns/op":1000}},
		{"name":"Gone","iters":1,"metrics":{"ns/op":5}}]}`)
	older := write("older.json", `{"benchmarks":[
		{"pkg":"flowrecon","name":"Shared","iters":1,"metrics":{"ns/op":100}},
		{"pkg":"flowrecon/internal/service","name":"Shared","iters":1,"metrics":{"ns/op":1000}}]}`)
	newer := write("newer.json", `{"benchmarks":[
		{"pkg":"flowrecon","name":"Root","iters":1,"metrics":{"ns/op":1050}},
		{"pkg":"flowrecon","name":"Shared","iters":1,"metrics":{"ns/op":105}},
		{"pkg":"flowrecon/internal/service","name":"Shared","iters":1,"metrics":{"ns/op":2000}}]}`)

	var buf strings.Builder
	ok, err := runCompare(&buf, legacy, newer, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !ok || !strings.Contains(out, "+5.0%") || !strings.Contains(out, "removed") {
		t.Fatalf("legacy Root must pair with flowrecon Root (+5%%) and Gone show removed:\n%s", out)
	}

	buf.Reset()
	ok, err = runCompare(&buf, older, newer, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if ok {
		t.Fatalf("service Shared doubled and must fail the gate:\n%s", out)
	}
	for _, want := range []string{"Shared [flowrecon]", "+5.0%", "Shared [flowrecon/internal/service]", "+100.0%  REGRESSION"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if ok, err := runCompare(&buf, older, newer, 15, "Shared"); err != nil || ok {
		t.Fatalf("-bench Shared must gate both packages' Shared (ok=%v err=%v):\n%s", ok, err, buf.String())
	}
}

func TestRunCompareAllocs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", `{"benchmarks":[
		{"name":"Build","iters":1,"metrics":{"ns/op":1000,"allocs/op":6468}},
		{"name":"Plain","iters":1,"metrics":{"ns/op":2000}}]}`)
	newPath := write("new.json", `{"benchmarks":[
		{"name":"Build","iters":1,"metrics":{"ns/op":1100,"allocs/op":9000}},
		{"name":"Plain","iters":1,"metrics":{"ns/op":2000,"allocs/op":3}}]}`)

	var buf strings.Builder
	ok, err := runCompare(&buf, oldPath, newPath, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("allocs/op must never gate:\n%s", buf.String())
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.Contains(lines[0], "old allocs") || !strings.Contains(lines[0], "new allocs") {
		t.Fatalf("header lacks the allocs columns:\n%s", buf.String())
	}
	var build, plain string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "Build"):
			build = l
		case strings.HasPrefix(l, "Plain"):
			plain = l
		}
	}
	if f := strings.Fields(build); len(f) != 6 || f[4] != "6468" || f[5] != "9000" {
		t.Fatalf("Build row %q, want old/new allocs 6468 and 9000", build)
	}
	if f := strings.Fields(plain); len(f) != 6 || f[4] != "—" || f[5] != "—" {
		t.Fatalf("Plain row %q: allocs present on one side only must print as —", plain)
	}

	// Reports without allocs/op keep the ns/op-only table.
	buf.Reset()
	if _, err := runCompare(&buf, newPath, write("bare.json", `{"benchmarks":[{"name":"Build","iters":1,"metrics":{"ns/op":1000}}]}`), 15, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "allocs") {
		t.Fatalf("allocs columns without allocs data:\n%s", buf.String())
	}
}
