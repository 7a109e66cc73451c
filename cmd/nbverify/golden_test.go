package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// goldenRun is one local nbverify invocation: the flags runCtx takes, at
// their command-line defaults unless a case sets them.
type goldenRun struct {
	n, m, r      int
	scheme       string
	maxExh       int
	firstBlocked bool
	sym, verbose bool
	flags        string // how the case reads on the command line
}

// goldenRuns lists every routing on ftree(2+4,4) under each flag set, the
// -sym wall on ftree(4+8,3) (an orbit sweep for spray, an error for
// adaptive), and the adaptive m=1 routing error.
func goldenRuns() []goldenRun {
	schemes := []string{"paper", "paper-folded", "dest-mod", "source-mod", "dest-switch-mod",
		"random-fixed", "adaptive", "greedy-local", "global", "spray"}
	flagSets := []goldenRun{
		{flags: ""},
		{flags: "-v", verbose: true},
		{flags: "-sym", sym: true},
		{flags: "-first-blocked", firstBlocked: true},
		{flags: "-max-exhaustive 4", maxExh: 4},
	}
	var runs []goldenRun
	for _, s := range schemes {
		for _, fs := range flagSets {
			fs.n, fs.m, fs.r, fs.scheme = 2, 4, 4, s
			runs = append(runs, fs)
		}
	}
	return append(runs,
		goldenRun{n: 4, m: 8, r: 3, scheme: "spray", sym: true, flags: "-sym"},
		goldenRun{n: 4, m: 8, r: 3, scheme: "adaptive", sym: true, flags: "-sym"},
		goldenRun{n: 2, m: 1, r: 4, scheme: "adaptive", flags: ""},
	)
}

// TestGolden byte-compares nbverify's stdout and error text for every
// goldenRuns case against testdata/golden.txt. Refresh with
// `go test ./cmd/nbverify -run TestGolden -update` only when a change to
// the output is intended.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenRuns() {
		maxExh := 9
		if c.maxExh != 0 {
			maxExh = c.maxExh
		}
		fmt.Fprintf(&got, "=== -n %d -m %d -r %d -routing %s %s\n", c.n, c.m, c.r, c.scheme, c.flags)
		err := runCtx(context.Background(), &got, c.n, c.m, c.r, c.scheme, 0, 500, 1, maxExh, c.firstBlocked, c.sym, c.verbose, "")
		if err != nil {
			fmt.Fprintf(&got, "error: %v\n", err)
		}
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
