package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/shard"
)

// PointStatus is the lifecycle state of one campaign point.
type PointStatus string

// Point lifecycle. A point is persisted "running" (with its run id) as
// soon as its run exists; a crash mid-point leaves it so, and resume
// reads it back as pending — its checkpoint or its remote run id carries
// the progress.
const (
	StatusPending PointStatus = "pending"
	StatusRunning PointStatus = "running"
	StatusDone    PointStatus = "done"
	StatusFailed  PointStatus = "failed"
)

// PointState is the durable record of one point in the campaign manifest.
type PointState struct {
	// ID and Index identify the point (see Point).
	ID    string `json:"id"`
	Index int    `json:"index"`
	// Coords are the point's axis coordinates, copied from the plan so
	// status output is self-describing.
	Coords []string `json:"coords"`
	// Status is the point's lifecycle state.
	Status PointStatus `json:"status"`
	// Round is the last known completed round: the snapshot round of an
	// interrupted point, the target of a done one.
	Round int64 `json:"round,omitempty"`
	// Summary is the point's result once done.
	Summary *shard.Summary `json:"summary,omitempty"`
	// Digest is the SHA-256 of the summary's canonical JSON encoding:
	// the byte-identity that kill-and-resume equivalence is pinned on.
	Digest string `json:"digest,omitempty"`
	// RunID is the remote run's identity when the point executes against
	// an rbb-serve (resume re-attaches to it instead of re-submitting).
	// It is persisted while the point runs.
	RunID string `json:"run_id,omitempty"`
	// Cached marks a done point whose result came from a result cache.
	Cached bool `json:"cached,omitempty"`
	// Error is the failure cause when Status is failed.
	Error string `json:"error,omitempty"`
}

// Manifest is the campaign's durable state: the (normalized) spec that
// produced it, the campaign identity it was expanded to, and one state
// per point. It is written atomically on every transition, so a crash at
// any moment leaves a loadable manifest.
type Manifest struct {
	Version    int          `json:"version"`
	CampaignID string       `json:"campaign_id"`
	Spec       CampaignSpec `json:"spec"`
	Points     []PointState `json:"points"`
}

// ManifestName is the manifest filename inside a campaign directory.
const ManifestName = "campaign.json"

// ManifestPath returns the manifest path of a campaign directory.
func ManifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// CheckpointPath returns the checkpoint path of one point inside a
// campaign directory.
func CheckpointPath(dir, pointID string) string {
	return filepath.Join(dir, pointID+".ckpt")
}

// SummaryDigest computes the SHA-256 hex digest of a summary's canonical
// JSON encoding. Summaries are byte-deterministic functions of the
// trajectory, so equal digests mean byte-equal results.
func SummaryDigest(sum *shard.Summary) string {
	blob, err := json.Marshal(sum)
	if err != nil {
		// shard.Summary is a flat struct of numbers; Marshal cannot fail.
		panic(fmt.Sprintf("campaign: marshal summary: %v", err))
	}
	d := sha256.Sum256(blob)
	return hex.EncodeToString(d[:])
}

// newManifest builds a fresh all-pending manifest for a plan.
func newManifest(cs CampaignSpec, plan *Plan) *Manifest {
	m := &Manifest{Version: Version, CampaignID: plan.ID, Spec: cs}
	for _, pt := range plan.Points {
		m.Points = append(m.Points, PointState{
			ID: pt.ID, Index: pt.Index, Coords: pt.Coords, Status: StatusPending,
		})
	}
	return m
}

// WriteManifest atomically persists the manifest into dir.
func WriteManifest(dir string, m *Manifest) error {
	return atomicio.WriteFile(ManifestPath(dir), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// ReadManifest loads the manifest of a campaign directory. A missing
// file returns (nil, nil): the directory holds no campaign yet.
func ReadManifest(dir string) (*Manifest, error) {
	blob, err := os.ReadFile(ManifestPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("campaign: parse manifest: %w", err)
	}
	if m.Version < 1 || m.Version > Version {
		return nil, fmt.Errorf("campaign: unsupported manifest version %d", m.Version)
	}
	return &m, nil
}

// reconcile merges a loaded manifest into a fresh plan expansion,
// validating that the directory holds this campaign. Done and failed
// points keep their stored state; a point the previous process left
// "running" (it crashed without the SIGTERM path) drops back to pending —
// its checkpoint, if any, carries the progress.
func reconcile(m *Manifest, plan *Plan) ([]PointState, error) {
	if m.CampaignID != plan.ID {
		return nil, fmt.Errorf("campaign: directory holds campaign %s, spec expands to %s (refusing to mix manifests)",
			m.CampaignID, plan.ID)
	}
	if len(m.Points) != len(plan.Points) {
		return nil, fmt.Errorf("campaign: manifest has %d points, plan %d", len(m.Points), len(plan.Points))
	}
	states := make([]PointState, len(plan.Points))
	for i, pt := range plan.Points {
		st := m.Points[i]
		if st.ID != pt.ID {
			return nil, fmt.Errorf("campaign: manifest point %d is %s, plan expects %s", i, st.ID, pt.ID)
		}
		if st.Status == StatusRunning {
			st.Status = StatusPending
		}
		st.Coords = pt.Coords
		states[i] = st
	}
	return states, nil
}
