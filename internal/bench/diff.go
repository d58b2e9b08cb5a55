package bench

import (
	"encoding/json"
	"fmt"
	"sort"
)

// DiffEntry is one field-level disagreement between a committed artifact
// and a fresh recomputation, in machine-readable form (cmd/benchcheck
// -json emits these verbatim).
type DiffEntry struct {
	// Path is the JSON path of the disagreeing field, e.g.
	// ".cells[3].executions" ("" for whole-artifact problems).
	Path string `json:"path"`
	// Kind classifies the disagreement: "value" (same field, different
	// value), "type" (field changed JSON type), "length" (array length
	// changed), "marshal" (an artifact failed to serialize), "opaque"
	// (artifacts differ but no field could be localized).
	Kind string `json:"kind"`
	// Committed and Fresh are the two sides, rendered as strings (for
	// "length" entries, the two lengths).
	Committed string `json:"committed,omitempty"`
	Fresh     string `json:"fresh,omitempty"`
}

// String renders the entry as the one-line human form Diff returns.
func (e DiffEntry) String() string {
	switch e.Kind {
	case "marshal":
		return fmt.Sprintf("marshal failure: %s / %s", e.Committed, e.Fresh)
	case "type":
		return fmt.Sprintf("%s: type changed", e.Path)
	case "length":
		return fmt.Sprintf("%s: length %s (committed) vs %s (fresh)", e.Path, e.Committed, e.Fresh)
	case "opaque":
		return "artifacts differ (unlocalized)"
	default:
		return fmt.Sprintf("%s: committed %s, fresh %s", e.Path, e.Committed, e.Fresh)
	}
}

// DiffEntries compares two artifacts of the same type and returns one
// entry per field-level disagreement (nil means identical). It works on
// the marshaled forms, so any field drift — a flipped detection, a
// shifted execution count, a changed pruning decision — is caught.
func DiffEntries(committed, fresh any) []DiffEntry {
	a, errA := json.Marshal(committed)
	b, errB := json.Marshal(fresh)
	if errA != nil || errB != nil {
		return []DiffEntry{{Kind: "marshal", Committed: fmt.Sprint(errA), Fresh: fmt.Sprint(errB)}}
	}
	if string(a) == string(b) {
		return nil
	}
	var va, vb any
	_ = json.Unmarshal(a, &va)
	_ = json.Unmarshal(b, &vb)
	var out []DiffEntry
	diffValue("", va, vb, &out)
	if len(out) == 0 {
		out = append(out, DiffEntry{Kind: "opaque"})
	}
	return out
}

func diffValue(path string, a, b any, out *[]DiffEntry) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, DiffEntry{Path: path, Kind: "type", Committed: fmt.Sprint(a), Fresh: fmt.Sprint(b)})
			return
		}
		set := map[string]bool{}
		for k := range av {
			set[k] = true
		}
		for k := range bv {
			set[k] = true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			diffValue(path+"."+k, av[k], bv[k], out)
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			*out = append(*out, DiffEntry{Path: path, Kind: "type", Committed: fmt.Sprint(a), Fresh: fmt.Sprint(b)})
			return
		}
		if len(av) != len(bv) {
			*out = append(*out, DiffEntry{
				Path: path, Kind: "length",
				Committed: fmt.Sprint(len(av)), Fresh: fmt.Sprint(len(bv)),
			})
			return
		}
		for i := range av {
			diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], out)
		}
	default:
		if fmt.Sprint(a) != fmt.Sprint(b) {
			*out = append(*out, DiffEntry{
				Path: path, Kind: "value",
				Committed: fmt.Sprint(a), Fresh: fmt.Sprint(b),
			})
		}
	}
}
