package cluster

// The canonical-shape halves of the codec, for the differential tests in
// package cluster_test (which cannot live in this package: they run the
// workload targets, and workload imports cluster).
var (
	ParseObject  = parseObject
	AppendObject = appendObject
)
