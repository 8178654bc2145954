package director

import (
	"runtime"
	"testing"
	"time"
)

// setParkHook installs f as one of the park seams (testHookConsumerPark or
// testHookProducerPark) for the rest of the test.
func setParkHook(t *testing.T, hook *func(), f func()) {
	t.Helper()
	*hook = f
	t.Cleanup(func() { *hook = nil })
}

// awaitDone fails the test with every goroutine's stack when done is not
// closed within d, so a lost wakeup or a deadlock names itself in seconds
// instead of stalling the binary until go test's own timeout.
func awaitDone(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: not done after %v; goroutines:\n%s", what, d, stacks())
	}
}

// stacks returns every goroutine's stack.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

// SolveBalance exposes the SDF balance-equation solver.
var SolveBalance = solveBalance
