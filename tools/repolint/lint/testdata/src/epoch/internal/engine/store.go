// Package engine is the epoch fixture: a store implementation whose
// mutating verbs must reach an epoch bump, directly or through a
// helper.
package engine

// counter mimics atomic.Uint64's bump surface.
type counter struct{ v uint64 }

func (c *counter) Add(d uint64) uint64 { c.v += d; return c.v }
func (c *counter) Store(v uint64)      { c.v = v }
func (c *counter) Load() uint64        { return c.v }

// Engine matches a checked store implementation name.
type Engine struct {
	rows  []float64
	epoch counter
}

// Append bumps directly.
func (s *Engine) Append(v float64) {
	s.rows = append(s.rows, v)
	s.epoch.Add(1)
}

// Delete reaches the bump through a helper — the fixpoint must see it.
func (s *Engine) Delete(i int) {
	s.rows = append(s.rows[:i], s.rows[i+1:]...)
	s.finishMutationLocked()
}

func (s *Engine) finishMutationLocked() { s.epoch.Store(s.epoch.Load() + 1) }

// Window forgets the bump entirely: a stale cached evaluation would
// survive this mutation.
func (s *Engine) Window(n int) { // want "Window mutates the store but never reaches an epoch bump"
	if n < len(s.rows) {
		s.rows = s.rows[len(s.rows)-n:]
	}
}

// Len is not a mutation verb; no bump required.
func (s *Engine) Len() int { return len(s.rows) }

// Other is not a checked type; its verbs are out of scope.
type Other struct{ epoch counter }

func (o *Other) Window(n int) {}
