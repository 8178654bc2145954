// Fixture for the lifecycle analyzer: Fire re-enters Initialize; a free
// function that happens to be named Initialize is fine.
package lifecycle

type Actor struct{}

func (a *Actor) Initialize() {}
func (a *Actor) Wrapup()     {}

func (a *Actor) Fire() {
	a.Initialize() // lifecycle phase re-entered from Fire
}

type Clean struct{}

func (c *Clean) Fire() { Initialize() } // free function, not a lifecycle method

func Initialize() {}
