package hotpath

import "time"

// backoff trips the engine-wide time.Sleep ban, tagged or not.
func backoff() {
	time.Sleep(time.Millisecond)
}

var _ = backoff
