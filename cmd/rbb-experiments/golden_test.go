package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/small.txt from this tree")

// elapsedMs matches the wall-clock time that ends each text shape-check
// line, the only part of the suite's output that is not a pure function of
// the seed.
var elapsedMs = regexp.MustCompile(`(?m)^(shape check: .*, )[^,)]*\)$`)

// TestSmallSuiteGolden pins every reproduction table: the whole suite,
// E01–E20 at small scale and seed 1, must print testdata/small.txt line
// for line, the elapsed time on each shape-check line masked. A change to
// any draw, law or table arithmetic moves it; rewrite the file with
// go test ./cmd/rbb-experiments -run SmallSuiteGolden -args -update
// only for a change meant to move a table. The file was made on
// linux/amd64. Other architectures may fuse a multiply and an add into one
// instruction and round a table cell differently, so the test skips there.
func TestSmallSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("testdata/small.txt was made on amd64; this architecture may fuse multiply-adds")
	}
	var buf bytes.Buffer
	if err := run([]string{"-scale", "small"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := elapsedMs.ReplaceAllString(buf.String(), "${1}<elapsed>)")
	path := filepath.Join("testdata", "small.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s:%d differs (%d lines, want %d)\n got: %q\nwant: %q", path, i+1, len(g), len(w), gl, wl)
		}
	}
}
