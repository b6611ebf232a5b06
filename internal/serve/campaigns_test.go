package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/spec"
	"repro/internal/table"
)

// testCampaignSpec is the serve tests' sweep: an n axis with seed
// replicas over rbb, small enough to finish in milliseconds.
func testCampaignSpec() campaign.CampaignSpec {
	return campaign.CampaignSpec{
		Name: "serve-test",
		Base: spec.RunSpec{Seed: 9, Rounds: 40, Shards: 2, Quantiles: []float64{0.5}},
		Axes: []campaign.Axis{
			{Field: campaign.FieldN, Values: []float64{32, 64}},
		},
		Replicas:    2,
		Concurrency: 2,
	}
}

// submitCampaign POSTs a campaign spec and returns the accepted info.
func submitCampaign(t *testing.T, hs *httptest.Server, cs campaign.CampaignSpec) CampaignInfo {
	t.Helper()
	blob, _ := json.Marshal(cs)
	resp, err := http.Post(hs.URL+"/v1/campaigns", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit campaign: status %d: %s", resp.StatusCode, body)
	}
	var info CampaignInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitCampaign polls until the campaign is terminal.
func waitCampaign(t *testing.T, s *Server, id string) CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := s.CampaignRunInfo(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return CampaignInfo{}
}

// getAggregate fetches a campaign's aggregate artifact in one format.
func getAggregate(t *testing.T, hs *httptest.Server, id, format string) []byte {
	t.Helper()
	url := hs.URL + "/v1/campaigns/" + id + "/aggregate"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate %s: status %d: %s", format, resp.StatusCode, body)
	}
	return body
}

// scrapeMetrics fetches the /metrics exposition text.
func scrapeMetrics(t *testing.T, hs *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCampaignEndToEnd drives a campaign through the HTTP surface: submit,
// progress to done, aggregate artifact in all formats — and a second
// identical campaign answered entirely from the result cache with a
// byte-identical aggregate.
func TestCampaignEndToEnd(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	// The campaign point counter is process-global; pin the delta across
	// this campaign so the serve driver is known to feed it.
	const doneSeries = `rbb_campaign_points_total{status="done"}`
	done0 := metricValue(t, scrapeMetrics(t, hs), doneSeries)
	info := submitCampaign(t, hs, testCampaignSpec())
	if info.Points != 4 {
		t.Fatalf("points = %d, want 4", info.Points)
	}
	final := waitCampaign(t, s, info.ID)
	if final.Status != StatusDone || final.Done != 4 || final.Failed != 0 {
		t.Fatalf("campaign = %+v", final)
	}
	if done := metricValue(t, scrapeMetrics(t, hs), doneSeries); done != done0+4 {
		t.Errorf("campaign done points counter = %v, want %v", done, done0+4)
	}

	blob := getAggregate(t, hs, info.ID, "")
	var tb table.Table
	if err := json.Unmarshal(blob, &tb); err != nil {
		t.Fatalf("aggregate json: %v", err)
	}
	if tb.NumRows() != 2 {
		t.Errorf("aggregate rows = %d, want 2 (one per n)", tb.NumRows())
	}
	if tb.Columns[0] != "n" || tb.Columns[1] != "replicas" {
		t.Errorf("aggregate columns = %v", tb.Columns)
	}
	csvBlob := getAggregate(t, hs, info.ID, "csv")
	fromCSV, err := table.ParseCSV(bytes.NewReader(csvBlob))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV.Rows()) != 2 {
		t.Errorf("csv aggregate rows = %d", len(fromCSV.Rows()))
	}
	getAggregate(t, hs, info.ID, "text")

	// Every point result must equal the in-process oracle for its law.
	plan, err := func() (*campaign.Plan, error) { cs := testCampaignSpec(); return cs.Expand() }()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range plan.Points {
		ref := refSummary(t, pt.Spec)
		run := submit(t, hs, pt.Spec) // all done already → cache hits
		got := waitDone(t, s, run.ID)
		if !got.Cached {
			t.Errorf("point %s law missed the cache after the campaign ran it", pt.ID)
		}
		refBlob, _ := json.Marshal(ref)
		gotBlob, _ := json.Marshal(got.Summary)
		if string(refBlob) != string(gotBlob) {
			t.Errorf("point %s summary differs from oracle", pt.ID)
		}
	}

	// Identical campaign again: all four points ride the cache.
	info2 := submitCampaign(t, hs, testCampaignSpec())
	final2 := waitCampaign(t, s, info2.ID)
	if final2.Status != StatusDone || final2.Cached != 4 {
		t.Fatalf("cached campaign = %+v, want 4 cache hits", final2)
	}
	if got := getAggregate(t, hs, info2.ID, ""); string(got) != string(blob) {
		t.Errorf("cached campaign aggregate differs:\n%s\nvs\n%s", got, blob)
	}
	if final.LawID != final2.LawID {
		t.Errorf("law ids differ: %s vs %s", final.LawID, final2.LawID)
	}
}

// TestCampaignStream tails a campaign's progress: per-point NDJSON events
// ending with the terminal CampaignInfo.
func TestCampaignStream(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	// Park a long run on the lone worker so no campaign point can finish
	// before the stream is attached.
	blocker := submit(t, hs, Spec{Seed: 1, N: 256, Rounds: 1 << 40})
	waitStatus(t, s, blocker.ID, StatusRunning)
	cs := testCampaignSpec()
	cs.Concurrency = 1
	info := submitCampaign(t, hs, cs)
	resp, err := http.Get(hs.URL + "/v1/campaigns/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	// Terminal line: the campaign info.
	var fin CampaignInfo
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fin); err != nil {
		t.Fatalf("terminal line: %v", err)
	}
	if !fin.Status.Terminal() {
		t.Errorf("stream ended with non-terminal status %s", fin.Status)
	}
	sawDone := false
	for _, line := range lines[:len(lines)-1] {
		var ev CampaignEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if ev.Status == "done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("no point completion event observed")
	}
	waitCampaign(t, s, info.ID)
}

// TestCampaignShutdown: a server shutdown mid-campaign fails the
// campaign with the in-memory interruption message, and its in-flight
// point counts as interrupted, not failed.
func TestCampaignShutdown(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	blocker := submit(t, hs, Spec{Seed: 1, N: 256, Rounds: 1 << 40})
	waitStatus(t, s, blocker.ID, StatusRunning)
	const series = `rbb_campaign_points_total{status="interrupted"}`
	before := metricValue(t, scrapeMetrics(t, hs), series)
	cs := testCampaignSpec()
	cs.Concurrency = 1
	info := submitCampaign(t, hs, cs)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ci, _ := s.CampaignRunInfo(info.ID); ci.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started a point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Shutdown()
	final, _ := s.CampaignRunInfo(info.ID)
	if final.Status != StatusFailed || !strings.HasPrefix(final.Error, "interrupted by server shutdown") {
		t.Fatalf("campaign after shutdown = %+v", final)
	}
	if final.Done != 0 || final.Failed != 0 {
		t.Errorf("counted %d done, %d failed points; want none", final.Done, final.Failed)
	}
	if got := metricValue(t, scrapeMetrics(t, hs), series); got != before+1 {
		t.Errorf("interrupted points counter = %v, want %v", got, before+1)
	}
}

// TestCampaignValidation: malformed and invalid specs are 400s, unknown
// campaigns 404, aggregates of unfinished campaigns 409.
func TestCampaignValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	post := func(body string) int {
		resp, err := http.Post(hs.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`{"base":{"seed":1,"n":8,"rounds":4},"axes":[{"field":"workers","values":[1]}]}`); code != http.StatusBadRequest {
		t.Errorf("placement axis: %d", code)
	}
	resp, err := http.Get(hs.URL + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign: %d", resp.StatusCode)
	}
}

// TestCampaignRemoteRunner points the campaign CLI runner at a live
// rbb-serve: points execute as server runs, the manifest and aggregate
// artifacts land in the local campaign directory, and the result equals
// an in-process campaign of the same spec byte for byte — as does the
// aggregate of the same campaign hosted by a fresh server, in every
// format: the three executors share one driver.
func TestCampaignRemoteRunner(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})

	refDir := t.TempDir()
	csLocal := testCampaignSpec()
	if _, err := campaign.Run(context.Background(), csLocal, campaign.Options{Dir: refDir}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	csRemote := testCampaignSpec()
	res, err := campaign.Run(context.Background(), csRemote, campaign.Options{Dir: dir, Exec: campaign.Remote(hs.URL)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 4 || res.Failed != 0 || res.Stopped {
		t.Fatalf("remote campaign = %+v", res)
	}
	for _, st := range res.Points {
		if st.RunID == "" {
			t.Errorf("point %s has no remote run id", st.ID)
		}
	}
	for _, name := range []string{campaign.ArtifactText, campaign.ArtifactCSV, campaign.ArtifactJSON} {
		ref, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(ref) != string(got) {
			t.Errorf("%s differs between in-process and remote campaign:\n%s\nvs\n%s", name, got, ref)
		}
	}

	hosted, hsHosted := newTestServer(t, Options{Workers: 2})
	info := submitCampaign(t, hsHosted, testCampaignSpec())
	if final := waitCampaign(t, hosted, info.ID); final.Status != StatusDone || final.Cached != 0 {
		t.Fatalf("serve-hosted campaign = %+v", final)
	}
	for name, format := range map[string]string{
		campaign.ArtifactJSON: "json", campaign.ArtifactCSV: "csv", campaign.ArtifactText: "text",
	} {
		ref, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := getAggregate(t, hsHosted, info.ID, format); !bytes.Equal(got, ref) {
			t.Errorf("serve-hosted /aggregate?format=%s differs from in-process %s:\n%s\nvs\n%s", format, name, got, ref)
		}
	}
}

// TestCampaignRemoteRunIDPersisted: a remote point's run id is in the
// campaign manifest while the point runs, so a campaign killed hard at
// that moment re-attaches to the server run on resume instead of
// submitting a duplicate.
func TestCampaignRemoteRunIDPersisted(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	// Park the lone worker: the campaign's first point stays queued on
	// the server for as long as the test needs it.
	blocker := submit(t, hs, Spec{Seed: 1, N: 256, Rounds: 1 << 40})
	waitStatus(t, s, blocker.ID, StatusRunning)
	cs := testCampaignSpec()
	cs.Concurrency = 1
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := campaign.Run(ctx, cs, campaign.Options{Dir: dir, Exec: campaign.Remote(hs.URL)})
		done <- err
	}()

	// What a SIGKILL would leave behind: the manifest while point 0 runs.
	var (
		killed []byte
		runID  string
	)
	deadline := time.Now().Add(10 * time.Second)
	for runID == "" {
		if time.Now().After(deadline) {
			t.Fatal("running point's run id never reached the manifest")
		}
		time.Sleep(5 * time.Millisecond)
		m, err := campaign.ReadManifest(dir)
		if err != nil || m == nil {
			continue
		}
		if st := m.Points[0]; st.Status == campaign.StatusRunning && st.RunID != "" {
			runID = st.RunID
			if killed, err = os.ReadFile(campaign.ManifestPath(dir)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if info, ok := s.Info(runID); !ok || info.Status != StatusQueued {
		t.Fatalf("manifest run id %s is not the queued server run (found %v, %+v)", runID, ok, info)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	killedDir := t.TempDir()
	if err := os.WriteFile(campaign.ManifestPath(killedDir), killed, 0o644); err != nil {
		t.Fatal(err)
	}
	runs := len(s.Runs())
	res, err := campaign.Run(context.Background(), cs, campaign.Options{Dir: killedDir, Exec: campaign.Remote(hs.URL)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != len(res.Points) {
		t.Fatalf("resumed campaign = %+v", res)
	}
	if got := res.Points[0].RunID; got != runID {
		t.Errorf("resumed point 0 ran as %s, want the re-attached %s", got, runID)
	}
	if added := len(s.Runs()) - runs; added != len(res.Points)-1 {
		t.Errorf("resume submitted %d runs, want %d (point 0 re-attaches)", added, len(res.Points)-1)
	}
}
