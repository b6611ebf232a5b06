// Command rbb-experiments regenerates the reproduction tables E01–E20 (one
// per quantitative claim of the paper, plus the E20 production-scale sweep;
// see DESIGN.md §3 for the index). EXPERIMENTS.md is produced by running it
// with -format markdown.
//
// Examples:
//
//	rbb-experiments -list
//	rbb-experiments -scale small
//	rbb-experiments -only E04,E06 -scale medium
//	rbb-experiments -scale large -format markdown > tables.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/table"
)

func main() {
	// The suite serves no /metrics and writes no trace, and telemetry is
	// write-only, so the per-round phase timers would be pure cost.
	obs.SetEnabled(false)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rbb-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rbb-experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scaleName = fs.String("scale", "medium", "parameter scale: small | medium | large")
		seed      = fs.Uint64("seed", 1, "master seed")
		only      = fs.String("only", "", "comma-separated experiment ids (e.g. E04,E06); empty = all")
		format    = fs.String("format", "text", "output format: text | markdown | csv")
		list      = fs.Bool("list", false, "list experiments and exit")
		par       = fs.Int("parallelism", 0, "worker cap for multi-trial experiments (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(out, "%s  %s\n", e.ID, e.Title)
		}
		return nil
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	var fmtName table.Format
	switch *format {
	case "text":
		fmtName = table.Text
	case "markdown":
		fmtName = table.Markdown
	case "csv":
		fmtName = table.CSV
	default:
		return fmt.Errorf("unknown format %q (want text|markdown|csv)", *format)
	}

	var entries []experiments.Entry
	if *only == "" {
		entries = experiments.Registry()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			entries = append(entries, e)
		}
	}

	cfg := experiments.Config{Scale: scale, Seed: *seed, Parallelism: *par}
	failures := 0
	for _, e := range entries {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if fmtName == table.Markdown {
			fmt.Fprintf(out, "### %s — %s\n\n", res.ID, res.Title)
			fmt.Fprintf(out, "Claim: %s\n\n", res.Claim)
		} else if fmtName == table.Text {
			fmt.Fprintf(out, "=== %s — %s\n", res.ID, res.Title)
			fmt.Fprintf(out, "claim: %s\n", res.Claim)
		}
		if err := res.Table.RenderAs(out, fmtName); err != nil {
			return err
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			failures++
		}
		switch fmtName {
		case table.Markdown:
			fmt.Fprintf(out, "\nShape check: **%s** (scale %s, seed %d, %v)\n\n", status, scale, *seed, elapsed)
		case table.Text:
			fmt.Fprintf(out, "shape check: %s (scale %s, seed %d, %v)\n\n", status, scale, *seed, elapsed)
		default:
			fmt.Fprintln(out)
		}
	}
	if fmtName == table.Text {
		fmt.Fprintf(out, "=== suite complete: %d experiments, %d shape-check failures\n", len(entries), failures)
	}
	if failures > 0 {
		return fmt.Errorf("%d experiments failed their shape checks", failures)
	}
	return nil
}
