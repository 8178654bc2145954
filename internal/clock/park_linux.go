//go:build linux

package clock

import (
	"syscall"
	"time"
)

// sleepShort blocks the calling thread for d in nanosleep(2), resumed with
// the remainder whenever a signal (the runtime's preemption signal among
// them) interrupts it.
func sleepShort(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
