package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/table"
)

// CampaignInfo is the public state of one campaign. The server hosts
// campaign.Run, the same driver rbb-campaign uses, with the server's own
// scheduler as its executor: every point is an ordinary run (durable,
// cached, resumable through the run machinery), while the campaign record
// itself lives in memory and dies with the process — durable campaign
// resumability lives in cmd/rbb-campaign, whose manifest directory
// survives restarts. Resubmitting a campaign after a restart rides the
// result cache, so completed points cost nothing the second time.
type CampaignInfo struct {
	ID string `json:"id"`
	// Name is the spec's label; LawID is the campaign's law identity
	// (campaign.Plan.ID) — placement- and concurrency-independent.
	Name  string `json:"name,omitempty"`
	LawID string `json:"law_id"`
	// Status is queued|running|done|failed (failed covers any point
	// failure and a server shutdown mid-campaign).
	Status Status `json:"status"`
	// Points is the expanded point count; Done/Failed/Cached count
	// terminal points, Cached the subset of Done answered from the
	// result cache.
	Points int    `json:"points"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Cached int    `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// CampaignEvent is one line of a campaign's progress stream: a point
// transition plus the campaign's running totals.
type CampaignEvent struct {
	Point  string `json:"point"`
	Index  int    `json:"index"`
	RunID  string `json:"run_id,omitempty"`
	Status string `json:"status"` // running | done | failed
	Cached bool   `json:"cached,omitempty"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Points int    `json:"points"`
}

// campaignRun is one tracked campaign: public info, the aggregate table
// once done, and the stream hub (whose mutex guards the rest).
type campaignRun struct {
	hub
	info  CampaignInfo
	table *table.Table
}

// Info returns a copy of the public state.
func (c *campaignRun) Info() CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info
}

// Aggregate returns the phase-diagram table, nil until the campaign is
// done.
func (c *campaignRun) Aggregate() *table.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table
}

// subscribe registers a stream channel, nil once the campaign is terminal.
func (c *campaignRun) subscribe() chan []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.info.Status.Terminal() {
		return nil
	}
	return c.addLocked()
}

// notePoint is the campaign's OnPoint hook: it refreshes the counters and
// fans the point transition out to subscribers. In memory every point
// reaches at most one terminal state, so the counters just add up.
func (c *campaignRun) notePoint(st campaign.PointState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch st.Status {
	case campaign.StatusDone:
		c.info.Done++
		if st.Cached {
			c.info.Cached++
		}
	case campaign.StatusFailed:
		c.info.Failed++
	}
	c.info.Status = StatusRunning
	blob, _ := json.Marshal(CampaignEvent{
		Point: st.ID, Index: st.Index, RunID: st.RunID, Status: string(st.Status),
		Cached: st.Cached, Done: c.info.Done, Failed: c.info.Failed, Points: c.info.Points,
	})
	c.sendLocked(blob)
}

// finish applies the terminal state and closes every subscriber channel.
func (c *campaignRun) finish(status Status, errText string, tb *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.info.Status, c.info.Error, c.table = status, errText, tb
	c.closeLocked()
}

// SubmitCampaign validates a campaign and starts it: campaign.Run drives
// its points as ordinary submissions (identical law points hit the result
// cache) with the spec's Concurrency.
func (s *Server) SubmitCampaign(cs campaign.CampaignSpec) (CampaignInfo, error) {
	plan, err := cs.Expand()
	if err != nil {
		return CampaignInfo{}, &badRequestError{err}
	}
	s.mu.Lock()
	s.nextCampaign++
	id := fmt.Sprintf("c%06d", s.nextCampaign)
	c := &campaignRun{info: CampaignInfo{ID: id, Name: cs.Name, LawID: plan.ID, Status: StatusQueued, Points: len(plan.Points)}}
	s.campaigns[id] = c
	s.campaignOrder = append(s.campaignOrder, id)
	s.mu.Unlock()
	s.logger.Info("campaign queued", "id", id, "law_id", plan.ID, "points", len(plan.Points))
	s.wg.Add(1)
	go s.driveCampaign(c, cs)
	return c.Info(), nil
}

// CampaignRunInfo returns the public state of one campaign.
func (s *Server) CampaignRunInfo(id string) (CampaignInfo, bool) {
	c, ok := s.lookupCampaign(id)
	if !ok {
		return CampaignInfo{}, false
	}
	return c.Info(), true
}

// Campaigns lists every campaign in submission order.
func (s *Server) Campaigns() []CampaignInfo {
	s.mu.Lock()
	cs := make([]*campaignRun, 0, len(s.campaignOrder))
	for _, id := range s.campaignOrder {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.Info())
	}
	return out
}

// lookupCampaign returns the campaign with the given id, if any.
func (s *Server) lookupCampaign(id string) (*campaignRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// driveCampaign runs a campaign through campaign.Run with the server's
// scheduler as the executor. Point failures don't stop the campaign; a
// server shutdown does (in-flight point runs snapshot and requeue through
// the run machinery, and the campaign reports failed — resubmit after
// restart to ride the result cache).
func (s *Server) driveCampaign(c *campaignRun, cs campaign.CampaignSpec) {
	defer s.wg.Done()
	res, err := campaign.Run(s.stopCtx, cs, campaign.Options{Exec: pointExec{s}, OnPoint: c.notePoint})
	switch {
	case res == nil:
		c.finish(StatusFailed, err.Error(), nil) // unreachable: SubmitCampaign expanded the spec
	case res.Stopped:
		c.finish(StatusFailed, "interrupted by server shutdown (campaign progress is in-memory; resubmit to ride the result cache)", nil)
	case res.Failed > 0:
		c.finish(StatusFailed, fmt.Sprintf("%d of %d points failed", res.Failed, len(res.Points)), nil)
	case err != nil:
		c.finish(StatusFailed, fmt.Sprintf("aggregate: %v", err), nil)
	default:
		c.finish(StatusDone, "", res.Table)
	}
	info := c.Info()
	s.logger.Info("campaign finished", "id", info.ID, "status", string(info.Status),
		"done", info.Done, "failed", info.Failed)
}

// pointExec is the serve-hosted campaign executor: each point is an
// ordinary Submit, awaited to a terminal state.
type pointExec struct{ s *Server }

// RunPoint implements campaign.Executor.
func (e pointExec) RunPoint(ctx context.Context, pt campaign.Point, _ string, started func(string)) (campaign.PointRun, error) {
	info, err := e.s.Submit(pt.Spec)
	if err != nil {
		return campaign.PointRun{}, err
	}
	started(info.ID)
	r, ok := e.s.lookup(info.ID)
	if !ok {
		return campaign.PointRun{RunID: info.ID}, errors.New("run vanished (retention policy evicted it mid-campaign)")
	}
	final := awaitRun(ctx, r)
	run := campaign.PointRun{Round: final.Round, RunID: final.ID}
	switch {
	case final.Status == StatusDone && final.Summary != nil:
		run.Summary, run.Cached = final.Summary, final.Cached
		return run, nil
	case final.Status.Terminal():
		return run, fmt.Errorf("run %s %s: %s", final.ID, final.Status, final.Error)
	}
	// Server shutdown re-queued the run; the point drops back to pending
	// and the campaign reports interrupted.
	run.Interrupted = true
	return run, nil
}

// awaitRun blocks until the run leaves the scheduler or ctx (the server's
// stop context) ends, returning the last observed state. The run's hub
// closes only when the run turns terminal or a shutdown re-queues it, and
// a re-queue implies ctx has ended, so one subscription suffices.
func awaitRun(ctx context.Context, r *run) RunInfo {
	ch := r.subscribe()
	if ch == nil {
		return r.Info()
	}
	defer r.unsubscribe(ch)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return r.Info()
			}
		case <-ctx.Done():
			return r.Info()
		}
	}
}

// --- HTTP handlers ---

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, req *http.Request) {
	var cs campaign.CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad campaign spec: %v", err))
		return
	}
	info, err := s.SubmitCampaign(cs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleCampaignList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Campaigns())
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, req *http.Request) {
	info, ok := s.CampaignRunInfo(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCampaignAggregate serves the phase-diagram artifact of a done
// campaign in the requested format (?format=json|csv|text, default json).
func (s *Server) handleCampaignAggregate(w http.ResponseWriter, req *http.Request) {
	c, ok := s.lookupCampaign(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	tb := c.Aggregate()
	if tb == nil {
		info := c.Info()
		writeError(w, http.StatusConflict, fmt.Sprintf("campaign is %s (%d/%d points done)", info.Status, info.Done, info.Points))
		return
	}
	format := table.Format(req.URL.Query().Get("format"))
	if format == "" {
		format = table.JSON
	}
	switch format {
	case table.JSON:
		w.Header().Set("Content-Type", "application/json")
	case table.CSV:
		w.Header().Set("Content-Type", "text/csv")
	case table.Text, table.Markdown:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q", format))
		return
	}
	w.WriteHeader(http.StatusOK)
	tb.RenderAs(w, format)
}

// handleCampaignStream tails a campaign's per-point progress events:
// NDJSON, or SSE frames under Accept: text/event-stream — the same
// contract as a run's stream, ending with the terminal CampaignInfo.
func (s *Server) handleCampaignStream(w http.ResponseWriter, req *http.Request) {
	c, ok := s.lookupCampaign(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeStream(w, req, &c.hub, c.subscribe(), func() any { return c.Info() })
}
