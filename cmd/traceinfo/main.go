// Command traceinfo inspects a packet capture or flow log through the
// same ingestion pipeline the experiments replay: parse → flow
// extraction (active/idle timeouts) → per-source flow classes → rates.
// It prints the summary a spec author needs — class count, span,
// per-class rates, the SHA-256 pin — and can write the extracted trace
// as canonical JSONL.
//
// Usage:
//
//	traceinfo capture.pcap
//	traceinfo -idle 15 -active 60 -classes 16 flows.csv
//	traceinfo -o trace.jsonl -json capture.pcap
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"flowrecon/internal/experiment"
	"flowrecon/internal/flows"
	"flowrecon/internal/ingest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// summary is the -json output document.
type summary struct {
	Path     string    `json:"path"`
	SHA256   string    `json:"sha256"`
	Sources  int       `json:"sources"`
	Classes  int       `json:"classes"`
	Flows    int       `json:"flows"`
	Dropped  int       `json:"dropped,omitempty"`
	Arrivals int       `json:"arrivals"`
	Duration float64   `json:"duration"`
	Rates    []float64 `json:"rates"`
	Names    []string  `json:"names"`
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	var (
		active   = fs.Float64("active", 0, "active timeout in seconds: cut flows longer than this (0 = ingest default)")
		idle     = fs.Float64("idle", 0, "idle timeout in seconds: close flows after this much silence (0 = ingest default)")
		classes  = fs.Int("classes", 0, "keep only the N busiest sources as flow classes (0 = all)")
		out      = fs.String("o", "", "write the extracted trace as canonical JSONL to this file")
		jsonOut  = fs.Bool("json", false, "print the summary as JSON instead of text")
		maxShown = fs.Int("top", 16, "per-class rows shown in the text summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("traceinfo: exactly one capture or flow-log file required")
	}
	path := fs.Arg(0)

	res, err := ingest.IngestFile(path, ingest.IngestOptions{
		ActiveTimeout: *active,
		IdleTimeout:   *idle,
		Trace:         ingest.TraceOptions{MaxClasses: *classes},
	})
	if err != nil {
		return err
	}
	sum, err := experiment.HashFile(path)
	if err != nil {
		return err
	}

	s := summary{
		Path:     path,
		SHA256:   sum,
		Sources:  res.Sources,
		Classes:  res.Universe.Size(),
		Flows:    res.Flows,
		Dropped:  res.Dropped,
		Arrivals: res.Trace.Len(),
		Duration: res.Duration,
		Rates:    res.Rates,
	}
	for i := 0; i < res.Universe.Size(); i++ {
		s.Names = append(s.Names, res.Universe.Name(flows.ID(i)))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := ingest.WriteTraceJSONL(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "%s\n", path)
		fmt.Fprintf(w, "  sha256   %s\n", sum)
		fmt.Fprintf(w, "  span     %.3f s\n", s.Duration)
		fmt.Fprintf(w, "  flows    %d extracted from %d sources", s.Flows, s.Sources)
		if s.Dropped > 0 {
			fmt.Fprintf(w, " (%d arrivals dropped by the class cap)", s.Dropped)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  classes  %d (per-source, rate-ranked)\n", s.Classes)
		shown := s.Classes
		if *maxShown > 0 && shown > *maxShown {
			shown = *maxShown
		}
		for i := 0; i < shown; i++ {
			fmt.Fprintf(w, "    class %2d  %-24s λ=%.4f/s\n", i, s.Names[i], s.Rates[i])
		}
		if shown < s.Classes {
			fmt.Fprintf(w, "    … %d more classes (raise -top to show)\n", s.Classes-shown)
		}
	}
	if *out != "" {
		fmt.Fprintf(w, "trace written to %s (%d arrivals)\n", *out, s.Arrivals)
	}
	return nil
}
