package transport

// Parked reports how many waiters are registered on c.
func (c *Cond) Parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.parked)
}
