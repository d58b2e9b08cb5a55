package leasecache

import (
	"sort"

	"repro/internal/sim"
)

// Holders returns the live leaseholders of key, sorted (diagnostics).
func (s *Server) Holders(key string) []sim.NodeID {
	var out []sim.NodeID
	for _, g := range s.pruned(key) {
		out = append(out, g.holder)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Version returns the authoritative version of key.
func (s *Server) Version(key string) uint64 { return s.versions[key] }
