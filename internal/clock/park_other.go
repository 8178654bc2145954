//go:build !linux

package clock

import "time"

// sleepShort waits d on the Go runtime's timer, whose resolution off Linux
// is the platform's.
func sleepShort(d time.Duration) { time.Sleep(d) }
