package bench

// Diff is DiffEntries rendered as human-readable lines (empty means
// identical).
func Diff(committed, fresh any) []string {
	entries := DiffEntries(committed, fresh)
	if len(entries) == 0 {
		return nil
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out
}
