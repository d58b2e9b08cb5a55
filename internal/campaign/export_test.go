package campaign

// snapshot returns (distinct classes over all plans, distinct signatures
// observed) for progress reporting.
func (s *coverageScheduler) snapshot() (classes, signatures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.classes), len(s.seen)
}
