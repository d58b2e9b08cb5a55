package cluster

// The canonical-shape halves of the codec, for the differential tests in
// package cluster_test (which cannot live in this package: they run the
// workload targets, and workload imports cluster).
var (
	ParseObject  = parseObject
	AppendObject = appendObject
)

// Get returns the value l has for name, and whether it has one. Nothing in
// the program reads a label; the tests do.
func (l Labels) Get(name string) (string, bool) {
	i, found := l.search(name)
	if !found {
		return "", false
	}
	return l[i].Value, true
}
