package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/shard"
	"repro/internal/spec"
)

// remoteRun mirrors the rbb-serve RunInfo fields the campaign driver
// needs. It is deliberately a local copy, not an import: serve imports
// campaign for its /v1/campaigns surface, so campaign cannot import serve.
type remoteRun struct {
	ID      string         `json:"id"`
	Status  string         `json:"status"`
	Round   int64          `json:"round"`
	Error   string         `json:"error,omitempty"`
	Summary *shard.Summary `json:"summary,omitempty"`
	Cached  bool           `json:"cached,omitempty"`
}

// client executes campaign points against a running rbb-serve. Identical
// law points (seed-replica axes over a cached law, resubmitted resumes)
// hit the server's result cache and come back instantly.
type client struct {
	base string
	hc   *http.Client
	// poll is the run status poll period (tests shrink it).
	poll time.Duration
}

// Remote returns the executor that runs points against the rbb-serve at
// base URL: each point is submitted as an ordinary run and polled to a
// terminal state.
func Remote(base string) Executor {
	return &client{base: strings.TrimRight(base, "/"), hc: &http.Client{}, poll: 150 * time.Millisecond}
}

// submit posts one point spec, returning the new run's identity.
func (c *client) submit(ctx context.Context, sp spec.RunSpec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var info remoteRun
	if err := c.do(req, http.StatusAccepted, &info); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return info.ID, nil
}

// get fetches one run's state.
func (c *client) get(ctx context.Context, runID string) (*remoteRun, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+runID, nil)
	if err != nil {
		return nil, err
	}
	var info remoteRun
	if err := c.do(req, http.StatusOK, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// do executes a request and decodes the JSON body, surfacing non-want
// statuses with the server's error text.
func (c *client) do(req *http.Request, want int, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

// RunPoint drives one point remotely: submit (or re-attach to runID from
// an interrupted campaign), report the run id through started, then poll
// until the run is terminal. A cancelled ctx reports interruption and
// keeps the remote run going — the server owns its durability, and resume
// re-attaches by run id (or, if the server lost it to retention,
// resubmits and rides the result cache).
func (c *client) RunPoint(ctx context.Context, pt Point, runID string, started func(string)) (PointRun, error) {
	if runID != "" {
		// Re-attach: a vanished run (404 after retention GC) falls back to
		// a fresh submission of the same law.
		if _, err := c.get(ctx, runID); err != nil {
			if ctx.Err() != nil {
				return PointRun{RunID: runID, Interrupted: true}, nil
			}
			runID = ""
		}
	}
	if runID == "" {
		var err error
		if runID, err = c.submit(ctx, pt.Spec); err != nil {
			if ctx.Err() != nil {
				return PointRun{Interrupted: true}, nil
			}
			return PointRun{}, err
		}
	}
	started(runID)
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		info, err := c.get(ctx, runID)
		if err != nil {
			if ctx.Err() != nil {
				return PointRun{RunID: runID, Interrupted: true}, nil
			}
			return PointRun{RunID: runID}, err
		}
		run := PointRun{Round: info.Round, RunID: runID}
		switch info.Status {
		case "done":
			run.Summary, run.Cached = info.Summary, info.Cached
			return run, nil
		case "failed":
			return run, fmt.Errorf("remote run %s failed: %s", runID, info.Error)
		case "cancelled":
			return run, fmt.Errorf("remote run %s was cancelled", runID)
		}
		select {
		case <-ctx.Done():
			run.Interrupted = true
			return run, nil
		case <-t.C:
		}
	}
}
