package client

// Retries returns how many list attempts failed against an unavailable
// upstream and were rescheduled with backoff.
func (i *Informer) Retries() int { return i.retries }
