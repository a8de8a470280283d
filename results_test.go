package flowrecon_test

import (
	"os"
	"strings"
	"testing"
)

// resultsBlocks maps each EXPERIMENTS.md results block to the committed
// results file and the heading of the table it quotes.
var resultsBlocks = []struct {
	key, file, heading string
}{
	{"FIG6A", "results_fig6.txt", "Figure 6a "},
	{"FIG6B", "results_fig6.txt", "Figure 6b "},
	{"FIG7A", "results_fig7.txt", "Figure 7a "},
	{"FIG7B", "results_fig7.txt", "Figure 7b "},
}

// resultsTable returns the table of text that starts at the line with
// the given prefix and runs to the next blank line, one string per line.
func resultsTable(t *testing.T, text, heading string) []string {
	t.Helper()
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, heading) {
			continue
		}
		end := i
		for end < len(lines) && lines[end] != "" {
			end++
		}
		return lines[i:end]
	}
	t.Fatalf("no table headed %q", heading)
	return nil
}

// TestExperimentsResultsMatchFiles: each results block of EXPERIMENTS.md
// quotes its table from the committed results file verbatim, inside a
// fenced block between <!-- RESULTS:KEY --> and <!-- /RESULTS:KEY -->.
// `make results-figs` regenerates the files, so a figure change that
// leaves the document behind fails here.
func TestExperimentsResultsMatchFiles(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range resultsBlocks {
		src, err := os.ReadFile(b.file)
		if err != nil {
			t.Fatal(err)
		}
		want := resultsTable(t, string(src), b.heading)
		open, end := "<!-- RESULTS:"+b.key+" -->\n", "<!-- /RESULTS:"+b.key+" -->"
		_, rest, ok := strings.Cut(string(doc), open)
		if !ok {
			t.Fatalf("EXPERIMENTS.md has no %q marker", strings.TrimSpace(open))
		}
		block, _, ok := strings.Cut(rest, end)
		if !ok {
			t.Fatalf("EXPERIMENTS.md block %s has no end marker %q", b.key, end)
		}
		got := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
		if len(got) < 2 || got[0] != "```text" || got[len(got)-1] != "```" {
			t.Fatalf("EXPERIMENTS.md block %s is not one fenced text block", b.key)
		}
		got = got[1 : len(got)-1]
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("EXPERIMENTS.md block %s drifted from %s:\n got:\n%s\nwant:\n%s",
				b.key, b.file, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
