package ps

// Untouched reports whether no push has reached tensor i's gradient sum
// this step: it is not marked pushed, and its record has no live block —
// as BeginStep leaves every sum.
func (s *Job) Untouched(i int) bool {
	return !s.pushed[i] && s.blocks[i].Empty(s.params[i].G.Len())
}
