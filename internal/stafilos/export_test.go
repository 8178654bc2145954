package stafilos

// IdleEvents reports how many recycled events the director's pool holds.
func (d *Director) IdleEvents() int { return d.evpool.Idle() }
