package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/shard"
)

// KillWorker force-kills the i-th self-spawned worker child, simulating
// a mid-run worker death for the fail-fast tests. Test binaries only.
func (e *Engine) KillWorker(i int) {
	c := e.children[i]
	c.cmd.Process.Kill()
	<-c.done
}

// SetJoin makes self-spawned workers run argv (nil: this test binary) and
// sets the join wait (see joinWait) for the rest of the test.
func SetJoin(t testing.TB, argv []string, wait time.Duration) {
	oldArgv, oldWait := workerArgv, joinWait
	workerArgv, joinWait = argv, wait
	t.Cleanup(func() { workerArgv, joinWait = oldArgv, oldWait })
}

// NewProcess builds a fresh multi-process run over a copy of loads — the
// same pure function of (seed, len(loads), shards, rule) as the
// in-process engines, executed across TCP workers.
func NewProcess(loads []int32, seed uint64, opts Options) (*Engine, error) {
	return NewProcessFill(len(loads), func(lo int, dst []int32) { copy(dst, loads[lo:]) }, seed, opts)
}

// Released returns the number of balls released in the last round.
func (e *Engine) Released() int { return e.released }

// Staged returns the number of balls thrown in the last round.
func (e *Engine) Staged() int { return e.staged }

// CheckpointBytes serializes p's current state in the checkpoint format:
// a coordinator streams it from its workers as checkpoint.Run does, an
// in-process engine (*shard.Process) is gathered and saved.
func CheckpointBytes(p checkpoint.Process, seed uint64) ([]byte, error) {
	var b bytes.Buffer
	if sp, ok := p.(checkpoint.StreamProcess); ok {
		err := sp.StreamCheckpoint(&b, seed, nil, checkpoint.Options{})
		return b.Bytes(), err
	}
	snap, err := p.(interface {
		Snapshot() (*shard.EngineSnapshot, error)
	}).Snapshot()
	if err != nil {
		return nil, err
	}
	err = checkpoint.Save(&b, &checkpoint.Snapshot{Seed: seed, Engine: snap})
	return b.Bytes(), err
}
