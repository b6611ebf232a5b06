package checkpoint

import (
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
)

// WriteFile atomically replaces path with the serialized snapshot
// (internal/atomicio: temp file in the same directory, fsync, rename). A
// crash mid-write therefore leaves either the old checkpoint or the new
// one, never a torn file — which the CRCs would reject anyway, but a valid
// previous checkpoint is strictly better than a rejected torn one.
func WriteFile(path string, snap *Snapshot) error {
	// Save's own errors already carry the package prefix; OS-level errors
	// name the file, so neither needs further wrapping.
	return WriteFileFunc(path, func(w io.Writer) error { return Save(w, snap) })
}

// WriteFileFunc atomically replaces path with whatever write produces —
// the streaming form of WriteFile, which Run uses to write a checkpoint
// straight from a running engine instead of from a gathered snapshot.
func WriteFileFunc(path string, write func(io.Writer) error) error {
	return atomicio.WriteFile(path, write)
}

// ReadFile loads a snapshot from path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Load(f)
}
