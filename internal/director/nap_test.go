package director

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
)

// dueActor is a timed source whose next external event is already due.
type dueActor struct{ model.Base }

func (*dueActor) NextEventTime() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestNapReturnsAtOnceWhenNextEventIsDue pins the source nap's due case: an
// item that fell due between the firing and the nap must be fired at once,
// not after a default nap.
func TestNapReturnsAtOnceWhenNextEventIsDue(t *testing.T) {
	d := NewPNCWF(PNCWFOptions{})
	a := &dueActor{Base: model.NewBase("src")}
	a.Bind(a)
	ctx := context.Background()
	naps := make([]time.Duration, 11)
	for i := range naps {
		start := time.Now()
		d.napUntilNextEvent(ctx, a)
		naps[i] = time.Since(start)
	}
	slices.Sort(naps)
	if med := naps[len(naps)/2]; med >= 500*time.Microsecond {
		t.Errorf("median nap with a due event = %v, want < 500µs (all: %v)", med, naps)
	}
}
