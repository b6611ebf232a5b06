// Command rbb-campaign runs resumable parameter-sweep campaigns: a
// campaign spec (JSON) declares axes over the law-plane fields of the
// canonical run spec — grids or explicit lists over n, m, lambda, the
// process kind, plus seed replicas — and the command expands it into an
// ordered set of point runs, drives them through a bounded concurrent
// budget, and folds the results into one phase-diagram table.
//
// Everything is resumable. The campaign directory holds an atomically
// written manifest with every point's status and result digest; SIGTERM
// or SIGINT snapshots in-flight rbb points through the checkpoint
// machinery and exits cleanly, and re-running the same spec over the same
// directory skips completed points and produces byte-identical aggregate
// artifacts (aggregate.txt, aggregate.csv, aggregate.json) — a killed and
// resumed campaign is indistinguishable from an uninterrupted one.
//
// Points execute in process by default (the same pure function of the law
// the CLI and server compute), or against a running rbb-serve with
// -server, where identical law points ride the server's result cache.
//
// Subcommands:
//
//	rbb-campaign run       -spec spec.json -dir DIR   run (or resume) a campaign
//	rbb-campaign resume    -dir DIR                   resume from the manifest alone
//	rbb-campaign status    -dir DIR                   point-by-point progress
//	rbb-campaign aggregate -dir DIR [-format f]       recompute + print the table
//
// Examples:
//
//	rbb-campaign run -spec sweep.json -dir runs/sweep1
//	rbb-campaign run -spec sweep.json -dir runs/sweep1 -server http://localhost:8080
//	rbb-campaign status -dir runs/sweep1
//	rbb-campaign aggregate -dir runs/sweep1 -format csv
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rbb-campaign:", err)
		os.Exit(1)
	}
}

const usage = `usage: rbb-campaign <command> [flags]

commands:
  run        run (or resume) a campaign from a spec file over a directory
  resume     resume a campaign from its directory's manifest alone
  status     print point-by-point progress of a campaign directory
  aggregate  recompute and print the phase-diagram table
  version    print build info

Run "rbb-campaign <command> -h" for the flags of one command.`

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		fmt.Fprintln(out, usage)
		return errors.New("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest, out, false)
	case "resume":
		return cmdRun(rest, out, true)
	case "status":
		return cmdStatus(rest, out)
	case "aggregate":
		return cmdAggregate(rest, out)
	case "version":
		fmt.Fprintln(out, "rbb-campaign", obs.Build())
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		fmt.Fprintln(out, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// readSpec loads a campaign spec from a JSON file ("-" = stdin).
func readSpec(path string) (campaign.CampaignSpec, error) {
	var cs campaign.CampaignSpec
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return cs, err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cs); err != nil {
		return cs, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return cs, nil
}

// cmdRun drives a campaign: from a spec file (run) or from the spec
// stored in the directory's manifest (resume). Both paths reconcile
// against the manifest, so "run" over a half-done directory resumes it
// too — "resume" just spares re-supplying the spec file.
func cmdRun(args []string, out io.Writer, fromManifest bool) error {
	name := "run"
	if fromManifest {
		name = "resume"
	}
	fs := flag.NewFlagSet("rbb-campaign "+name, flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		specPath  = fs.String("spec", "", "campaign spec JSON file (\"-\" = stdin)")
		dir       = fs.String("dir", "", "campaign directory: manifest, per-point checkpoints and aggregate artifacts (empty = in-memory, not resumable)")
		server    = fs.String("server", "", "execute points against a running rbb-serve at this base URL instead of in process")
		conc      = fs.Int("concurrency", 0, "concurrent point budget (0 = the spec's, default 1)")
		workers   = fs.Int("workers", 0, "phase workers per in-process point (0 = GOMAXPROCS); never affects results")
		ckptEvery = fs.Int64("checkpoint-every", 0, "rounds between periodic point snapshots (0 = only on signal; requires -dir)")
		quiet     = fs.Bool("quiet", false, "suppress per-point progress lines")
		jsonOut   = fs.Bool("json", false, "print the aggregate table as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cs campaign.CampaignSpec
	switch {
	case fromManifest:
		if *specPath != "" {
			return errors.New("resume takes the spec from the manifest; drop -spec")
		}
		if *dir == "" {
			return errors.New("resume requires -dir")
		}
		m, err := campaign.ReadManifest(*dir)
		if err != nil {
			return err
		}
		if m == nil {
			return fmt.Errorf("%s holds no campaign manifest", *dir)
		}
		cs = m.Spec
	default:
		if *specPath == "" {
			return errors.New("run requires -spec")
		}
		var err error
		if cs, err = readSpec(*specPath); err != nil {
			return err
		}
	}
	if *ckptEvery > 0 && *dir == "" {
		return errors.New("-checkpoint-every requires -dir")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	opts := campaign.Options{
		Dir:             *dir,
		Concurrency:     *conc,
		HostWorkers:     *workers,
		CheckpointEvery: *ckptEvery,
	}
	if *server != "" {
		opts.Exec = campaign.Remote(*server)
	}
	if !*quiet {
		// Progress goes to stderr: stdout carries only the final table so
		// -json output stays machine-parseable.
		opts.OnPoint = func(st campaign.PointState) {
			switch st.Status {
			case campaign.StatusDone:
				fmt.Fprintf(os.Stderr, "rbb-campaign: %s %v done (round %d)\n", st.ID, st.Coords, st.Round)
			case campaign.StatusFailed:
				fmt.Fprintf(os.Stderr, "rbb-campaign: %s %v failed: %s\n", st.ID, st.Coords, st.Error)
			case campaign.StatusPending:
				fmt.Fprintf(os.Stderr, "rbb-campaign: %s %v interrupted at round %d (checkpointed)\n", st.ID, st.Coords, st.Round)
			}
		}
	}
	res, err := campaign.Run(ctx, cs, opts)
	if err != nil {
		return err
	}
	if res.Stopped {
		fmt.Fprintf(os.Stderr, "rbb-campaign: interrupted with %d/%d points done; resume with: rbb-campaign resume -dir %s\n",
			res.Done, len(res.Points), *dir)
		return nil
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d points failed (rerun to retry; see %s)", res.Failed, len(res.Points), campaign.ManifestPath(*dir))
	}
	if *jsonOut {
		return res.Table.RenderJSON(out)
	}
	return res.Table.RenderText(out)
}

// cmdStatus prints the per-point progress of a campaign directory.
func cmdStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rbb-campaign status", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dir     = fs.String("dir", "", "campaign directory")
		jsonOut = fs.Bool("json", false, "print the raw manifest JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("status requires -dir")
	}
	m, err := campaign.ReadManifest(*dir)
	if err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("%s holds no campaign manifest", *dir)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	counts := map[campaign.PointStatus]int{}
	tb := table.New(fmt.Sprintf("campaign %s", m.CampaignID), "point", "coords", "status", "round", "error")
	for _, st := range m.Points {
		counts[st.Status]++
		tb.AddRow(st.ID, fmt.Sprintf("%v", st.Coords), string(st.Status), st.Round, st.Error)
	}
	tb.AddNote(fmt.Sprintf("%d points: %d done, %d failed, %d pending",
		len(m.Points), counts[campaign.StatusDone], counts[campaign.StatusFailed],
		len(m.Points)-counts[campaign.StatusDone]-counts[campaign.StatusFailed]))
	return tb.RenderText(out)
}

// cmdAggregate recomputes the phase-diagram table from the manifest and
// prints it — byte-identical to the aggregate artifacts the run wrote,
// since the table is a deterministic function of the stored summaries.
func cmdAggregate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rbb-campaign aggregate", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dir    = fs.String("dir", "", "campaign directory")
		format = fs.String("format", "text", "output format: text | markdown | csv | json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("aggregate requires -dir")
	}
	m, err := campaign.ReadManifest(*dir)
	if err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("%s holds no campaign manifest", *dir)
	}
	plan, err := m.Spec.Expand()
	if err != nil {
		return err
	}
	if plan.ID != m.CampaignID {
		return fmt.Errorf("manifest spec expands to campaign %s, directory records %s", plan.ID, m.CampaignID)
	}
	tb, err := campaign.Aggregate(m.Spec, plan, m.Points)
	if err != nil {
		return err
	}
	return tb.RenderAs(out, table.Format(*format))
}
