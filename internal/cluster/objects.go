// Package cluster defines the object model of the simulated infrastructure:
// the typed resources (pods, nodes, persistent volume claims, Cassandra
// clusters, regions) that collectively form the cluster state S, plus the
// codec that maps them onto the store's keyspace.
//
// The model mirrors the Kubernetes API machinery closely enough for the
// paper's bugs to exist: objects carry a ResourceVersion (the store mod
// revision) used for optimistic concurrency, a DeletionTimestamp used for
// two-phase deletion (mark, then remove), and owner references used by
// garbage-collecting controllers.
package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Kind identifies a resource type.
type Kind string

// Resource kinds known to the simulated cluster.
const (
	KindPod       Kind = "pods"
	KindNode      Kind = "nodes"
	KindPVC       Kind = "pvcs"
	KindCassandra Kind = "cassandraclusters"
	KindRegion    Kind = "regions"
)

// Kinds lists every known kind in stable order.
func Kinds() []Kind {
	return []Kind{KindPod, KindNode, KindPVC, KindCassandra, KindRegion}
}

// PodPhase is the lifecycle phase of a pod.
type PodPhase string

// Pod phases.
const (
	PodPending     PodPhase = "Pending"
	PodScheduled   PodPhase = "Scheduled"
	PodRunning     PodPhase = "Running"
	PodTerminating PodPhase = "Terminating"
	PodFailed      PodPhase = "Failed"
)

// PodSpec describes a pod: desired placement and observed phase.
type PodSpec struct {
	NodeName string   `json:"nodeName,omitempty"` // bound node ("" = unscheduled)
	Phase    PodPhase `json:"phase,omitempty"`
	Image    string   `json:"image,omitempty"` // version label; rolling upgrades change it
	App      string   `json:"app,omitempty"`   // owning application/operator name
}

// NodeSpec describes a worker node. Rack/Zone/DC are topology labels set
// by the kubelet at registration; empty labels mean the node is outside
// any modeled topology (all existing small-world targets), and omitempty
// keeps their encodings — and thus every store revision — byte-identical
// to the pre-topology model.
type NodeSpec struct {
	Ready    bool   `json:"ready"`
	Capacity int    `json:"capacity"` // max pods
	Rack     string `json:"rack,omitempty"`
	Zone     string `json:"zone,omitempty"`
	DC       string `json:"dc,omitempty"`
}

// PVCPhase is the lifecycle phase of a persistent volume claim.
type PVCPhase string

// PVC phases.
const (
	PVCBound    PVCPhase = "Bound"
	PVCReleased PVCPhase = "Released"
)

// PVCSpec describes a persistent volume claim.
type PVCSpec struct {
	OwnerPod string   `json:"ownerPod,omitempty"` // pod this claim backs
	Phase    PVCPhase `json:"phase,omitempty"`
	SizeGB   int      `json:"sizeGB,omitempty"`
}

// CassandraSpec describes a Cassandra cluster custom resource managed by
// the operator in internal/operators/cassandra.
type CassandraSpec struct {
	Replicas        int      `json:"replicas"`                  // desired members
	ReadyMembers    []string `json:"readyMembers,omitempty"`    // status: member pods seen ready
	Decommissioning string   `json:"decommissioning,omitempty"` // member currently draining
	// Racks, when non-empty, places member i in Racks[i%len(Racks)] and
	// switches the operator to rack-aware decommission ordering (drain
	// the most-populated rack first). Empty keeps the flat ordering.
	Racks []string `json:"racks,omitempty"`
}

// RegionState is the assignment state of a region (HBase analog).
type RegionState string

// Region states.
const (
	RegionOffline RegionState = "Offline"
	RegionOpening RegionState = "Opening"
	RegionOnline  RegionState = "Online"
	RegionClosing RegionState = "Closing"
)

// RegionSpec describes a region (shard) assignment for the HBASE-3136
// experiment: ownership transitions must be atomic CAS operations.
type RegionSpec struct {
	Owner string      `json:"owner,omitempty"` // region server holding it
	State RegionState `json:"state,omitempty"`
}

// Meta is object metadata common to all kinds.
type Meta struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// UID is unique per object incarnation: deleting and re-creating a name
	// yields a different UID, which is how controllers are supposed to
	// detect re-creation (and often fail to).
	UID string `json:"uid"`
	// ResourceVersion is the store mod revision of this object version. It
	// is set by the apiserver on reads/watches and used as the CAS guard on
	// updates.
	ResourceVersion int64 `json:"resourceVersion,omitempty"`
	// DeletionTimestamp, when nonzero, marks the object as being deleted
	// (virtual time of the mark). Two-phase deletion: mark, finalize,
	// remove.
	DeletionTimestamp int64  `json:"deletionTimestamp,omitempty"`
	OwnerUID          string `json:"ownerUID,omitempty"`
	// Labels is the object's label set, sorted by name. Like the rest of a
	// shared object it is never written in place: With returns a new set.
	Labels Labels `json:"labels,omitempty"`
}

// Label is one name=value pair of a label set.
type Label struct {
	Name, Value string
}

// Labels is a label set: a slice sorted by name, no name twice, which
// encodes as the JSON object a map[string]string would — keys in order. A
// set is immutable once built (DESIGN.md §12): With copies it, so an object,
// its copies and the objects made from them share one set freely. A literal
// out of order or naming a label twice is not canonical: it encodes through
// encoding/json as the map it stands for (the last value of a name wins),
// decodes to that map's sorted set, and is never exact (EncodeExact).
type Labels []Label

// With returns a copy of the canonical set l with name set to value: added
// in its place, or replacing the value l has for it.
func (l Labels) With(name, value string) Labels {
	i, found := l.search(name)
	if found {
		out := slices.Clone(l)
		out[i].Value = value
		return out
	}
	out := make(Labels, len(l)+1)
	copy(out, l[:i])
	out[i] = Label{Name: name, Value: value}
	copy(out[i+1:], l[i:])
	return out
}

// search returns where name is, or would be, in the canonical set l.
func (l Labels) search(name string) (int, bool) {
	return slices.BinarySearchFunc(l, name, func(x Label, name string) int { return strings.Compare(x.Name, name) })
}

// MarshalJSON writes l as the JSON object of its map: names sorted, the
// last value of a repeated name, null for a nil set.
func (l Labels) MarshalJSON() ([]byte, error) {
	if l == nil {
		return []byte("null"), nil
	}
	m := make(map[string]string, len(l))
	for _, x := range l {
		m[x.Name] = x.Value
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads a JSON object of strings into l as encoding/json
// reads one into a map: merged into what l holds (a key repeated in the
// input is decoded twice), a repeated name keeping its last value; null
// makes a nil set, {} an empty one.
func (l *Labels) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if *l != nil {
		m = make(map[string]string, len(*l))
		for _, x := range *l {
			m[x.Name] = x.Value
		}
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*l = nil
		return nil
	}
	out := make(Labels, 0, len(m))
	for name, v := range m {
		out = append(out, Label{Name: name, Value: v})
	}
	slices.SortFunc(out, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
	*l = out
	return nil
}

// Object is a typed cluster resource. Exactly one payload pointer matching
// Meta.Kind is non-nil.
type Object struct {
	Meta      Meta           `json:"meta"`
	Pod       *PodSpec       `json:"pod,omitempty"`
	Node      *NodeSpec      `json:"node,omitempty"`
	PVC       *PVCSpec       `json:"pvc,omitempty"`
	Cassandra *CassandraSpec `json:"cassandra,omitempty"`
	Region    *RegionSpec    `json:"region,omitempty"`
}

// NewPod constructs a pod object.
func NewPod(name, uid string, spec PodSpec) *Object {
	return &Object{Meta: Meta{Kind: KindPod, Name: name, UID: uid}, Pod: &spec}
}

// NewNode constructs a node object.
func NewNode(name, uid string, spec NodeSpec) *Object {
	return &Object{Meta: Meta{Kind: KindNode, Name: name, UID: uid}, Node: &spec}
}

// NewPVC constructs a persistent volume claim object.
func NewPVC(name, uid string, spec PVCSpec) *Object {
	return &Object{Meta: Meta{Kind: KindPVC, Name: name, UID: uid}, PVC: &spec}
}

// NewCassandra constructs a Cassandra cluster custom resource.
func NewCassandra(name, uid string, spec CassandraSpec) *Object {
	return &Object{Meta: Meta{Kind: KindCassandra, Name: name, UID: uid}, Cassandra: &spec}
}

// NewRegion constructs a region object.
func NewRegion(name, uid string, spec RegionSpec) *Object {
	return &Object{Meta: Meta{Kind: KindRegion, Name: name, UID: uid}, Region: &spec}
}

// Clone returns a deep copy of the object. Objects handed to or received
// from the API (requests, replies, watch events, informer caches and
// handlers) are shared by pointer and immutable; Clone is how a holder gets
// a copy it may change (the client-go lister rule, see DESIGN.md).
func (o *Object) Clone() *Object {
	if o == nil {
		return nil
	}
	c := *o
	c.Meta.Labels = slices.Clone(o.Meta.Labels)
	if o.Pod != nil {
		p := *o.Pod
		c.Pod = &p
	}
	if o.Node != nil {
		n := *o.Node
		c.Node = &n
	}
	if o.PVC != nil {
		p := *o.PVC
		c.PVC = &p
	}
	if o.Cassandra != nil {
		cs := *o.Cassandra
		cs.ReadyMembers = append([]string(nil), o.Cassandra.ReadyMembers...)
		cs.Racks = append([]string(nil), o.Cassandra.Racks...)
		c.Cassandra = &cs
	}
	if o.Region != nil {
		r := *o.Region
		c.Region = &r
	}
	return &c
}

// Terminating reports whether the object is marked for deletion.
func (o *Object) Terminating() bool { return o.Meta.DeletionTimestamp != 0 }

func (o *Object) String() string {
	return fmt.Sprintf("%s/%s@rv%d", o.Meta.Kind, o.Meta.Name, o.Meta.ResourceVersion)
}

// RegistryPrefix is the root of the object keyspace in the store.
const RegistryPrefix = "/registry/"

// Key returns the store key for (kind, name).
func Key(kind Kind, name string) string {
	return RegistryPrefix + string(kind) + "/" + name
}

// kindPrefixes interns the prefixes of the well-known kinds: KindPrefix is
// called on hot read paths and the concatenation allocates.
var kindPrefixes = map[Kind]string{
	KindPod:       RegistryPrefix + string(KindPod) + "/",
	KindNode:      RegistryPrefix + string(KindNode) + "/",
	KindPVC:       RegistryPrefix + string(KindPVC) + "/",
	KindCassandra: RegistryPrefix + string(KindCassandra) + "/",
	KindRegion:    RegistryPrefix + string(KindRegion) + "/",
}

// KindPrefix returns the store key prefix holding all objects of a kind.
func KindPrefix(kind Kind) string {
	if p, ok := kindPrefixes[kind]; ok {
		return p
	}
	return RegistryPrefix + string(kind) + "/"
}

// ParseKey splits a store key into kind and name.
func ParseKey(key string) (Kind, string, error) {
	rest, ok := strings.CutPrefix(key, RegistryPrefix)
	if !ok {
		return "", "", fmt.Errorf("cluster: key %q outside registry", key)
	}
	kind, name, ok := strings.Cut(rest, "/")
	if !ok || kind == "" || name == "" {
		return "", "", fmt.Errorf("cluster: malformed key %q", key)
	}
	return Kind(kind), name, nil
}

// UIDGen deterministically generates unique object UIDs. It is a plain
// value: a component keeps it in its state, so copying the state carries
// the count of UIDs issued.
type UIDGen struct {
	prefix string
	n      int
}

// NewUIDGen creates a generator whose UIDs carry the given prefix.
func NewUIDGen(prefix string) UIDGen { return UIDGen{prefix: prefix} }

// Next returns a fresh UID.
func (g *UIDGen) Next() string {
	g.n++
	return fmt.Sprintf("%s-%04d", g.prefix, g.n)
}
