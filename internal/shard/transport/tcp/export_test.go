package tcp

import (
	"testing"
	"time"
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
