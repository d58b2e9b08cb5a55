package controller

// Len returns the number of queued keys.
func (q *Queue) Len() int { return len(q.order) }
