package experiments

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// headings returns the lines of path that start with prefix and end
// with suffix, with both stripped.
func headings(t *testing.T, path, prefix, suffix string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) && strings.HasSuffix(line, suffix) {
			out = append(out, strings.TrimSuffix(strings.TrimPrefix(line, prefix), suffix))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRegistryInvariants(t *testing.T) {
	reg := Registry()
	ids, flags := map[string]bool{}, map[string]bool{}
	var titles, reportHeadings []string
	for _, e := range reg {
		if e.ID == "" || ids[e.ID] {
			t.Errorf("empty or duplicate ID %q", e.ID)
		}
		ids[e.ID] = true
		if e.run == nil {
			t.Errorf("%s: no run function", e.ID)
		}
		if e.Flag == "" && e.Heading == "" {
			t.Errorf("%s: listed by neither CLI", e.ID)
		}
		if e.Flag != "" {
			if flags[e.Flag] || e.Flag == "all" || e.Flag == "trials" || e.Flag == "seed" || e.Flag == "sim-n" {
				t.Errorf("%s: flag -%s is taken", e.ID, e.Flag)
			}
			flags[e.Flag] = true
			if e.Title == "" || e.Usage == "" {
				t.Errorf("%s: nbtables flag without a title or usage", e.ID)
			}
			titles = append(titles, e.Title)
		} else if e.Title != "" || e.Usage != "" {
			t.Errorf("%s: title or usage without an nbtables flag", e.ID)
		}
		if e.Heading != "" {
			reportHeadings = append(reportHeadings, e.Heading)
		}
		if e.reportRun != nil && e.Heading == "" {
			t.Errorf("%s: report parameters for an entry nbreport does not list", e.ID)
		}
	}
	if len(reg) != 21 || len(flags) != 19 || len(reportHeadings) != 20 {
		t.Errorf("%d entries, %d flags, %d report sections; want 21, 19, 20", len(reg), len(flags), len(reportHeadings))
	}
	// The committed outputs of nbtables -all and nbreport list their
	// sections in registry order.
	if got := headings(t, "../../testdata/tables_golden.txt", "== ", " =="); !slices.Equal(got, titles) {
		t.Errorf("nbtables -all sections\n got %q\nwant %q", got, titles)
	}
	if got := headings(t, "../../report.md", "## ", ""); !slices.Equal(got, reportHeadings) {
		t.Errorf("report.md sections\n got %q\nwant %q", got, reportHeadings)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, p := range []Params{{Trials: 0, SimN: 3}, {Trials: -5, SimN: 3}, {Trials: 1, SimN: 0}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}
