package scheduler

// NodeView returns the node names currently schedulable in the scheduler's
// cache (S'), sorted. Oracles compare this against ground truth.
func (s *Scheduler) NodeView() []string {
	if s.nodeInf == nil {
		return nil
	}
	var out []string
	for _, n := range s.nodeInf.ListCached() {
		if n.Node != nil && n.Node.Ready && !s.deadNodes[n.Meta.Name] {
			out = append(out, n.Meta.Name)
		}
	}
	return out
}
