// Package atomicio provides crash-safe file replacement, the single
// durability policy shared by every file the repository rewrites in
// place: checkpoint files (internal/checkpoint), rbb-serve's run manifest
// (internal/serve) and campaign manifests and aggregates
// (internal/campaign).
package atomicio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write: the
// data goes to a temporary file in the same directory, is fsynced, and the
// file is renamed over path. A crash at any point leaves either the old
// file or the complete new one, never a torn or empty file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
