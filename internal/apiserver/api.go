// Package apiserver implements the middle tier of Figure 1: servers that
// cache the store's state S and history H in a watch cache and serve typed
// reads, writes, and watch streams to all other components.
//
// The cache is the whole point: reads and client watches are served from
// the apiserver's *cached* (H', S'), not from the store, mirroring the
// Kubernetes watch-cache design the paper cites ([1]). An apiserver whose
// link to the store degrades keeps serving its stale view — which is
// exactly the "api-2" of the Kubernetes-59848 scenario (Figure 2).
package apiserver

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// API error sentinels. They cross the simulated network as strings; use the
// Is* helpers on the client side.
var (
	// ErrConflict is returned when a write's ResourceVersion guard fails
	// (optimistic concurrency violation).
	ErrConflict = errors.New("apiserver: resource version conflict")
	// ErrAlreadyExists is returned when creating an object whose name is
	// taken.
	ErrAlreadyExists = errors.New("apiserver: object already exists")
	// ErrNotFound is returned for reads/deletes of absent objects.
	ErrNotFound = errors.New("apiserver: object not found")
	// ErrTooOldResourceVersion is returned when a watch requests a start
	// revision that has fallen out of the apiserver's bounded event window
	// — the client must re-list ([7], §4.2.3).
	ErrTooOldResourceVersion = errors.New("apiserver: resource version too old, must relist")
)

// matchesSentinel reports whether err (possibly a remote error carrying
// only a message string) corresponds to the sentinel.
func matchesSentinel(err, sentinel error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, sentinel) || err.Error() == sentinel.Error()
}

// IsTooOld reports whether err demands a relist.
func IsTooOld(err error) bool { return matchesSentinel(err, ErrTooOldResourceVersion) }

// RPC methods served by apiservers.
var (
	MethodList   = sim.NewMethod("api.List")
	MethodGet    = sim.NewMethod("api.Get")
	MethodCreate = sim.NewMethod("api.Create")
	MethodUpdate = sim.NewMethod("api.Update")
	MethodDelete = sim.NewMethod("api.Delete")
	MethodWatch  = sim.NewMethod("api.Watch")
)

// KindWatchPush is the message kind of apiserver->client event pushes.
const KindWatchPush = "api.watch-push"

// EventType classifies a typed watch event.
type EventType string

// Watch event types, as in the Kubernetes watch API.
const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// WatchEvent is one typed change notification.
type WatchEvent struct {
	Type EventType
	// Object is the new object state (for Deleted: the last known state,
	// with the deletion revision as its ResourceVersion).
	Object   *cluster.Object
	Revision int64 // store revision of the change
}

// Request/response bodies.
type (
	// ListRequest lists objects of a kind. With Quorum the list bypasses
	// the watch cache and reads through to the store (slow, consistent);
	// without it the list is served from the possibly stale cache, and
	// Revision reports the cache's frontier.
	ListRequest struct {
		Kind   cluster.Kind
		Quorum bool
	}
	// ListResponse carries the listed objects and the revision they are
	// consistent with.
	ListResponse struct {
		Objects  []*cluster.Object
		Revision int64
	}
	// GetRequest reads one object (cached by default, quorum on demand).
	GetRequest struct {
		Kind   cluster.Kind
		Name   string
		Quorum bool
	}
	// GetResponse carries the object if found.
	GetResponse struct {
		Object *cluster.Object
		Found  bool
	}
	// CreateRequest creates a new named object.
	CreateRequest struct{ Object *cluster.Object }
	// UpdateRequest overwrites an object guarded by its ResourceVersion.
	UpdateRequest struct{ Object *cluster.Object }
	// DeleteRequest removes an object; a nonzero ExpectRV guards the
	// delete against concurrent modification. Its reply carries no body.
	DeleteRequest struct {
		Kind     cluster.Kind
		Name     string
		ExpectRV int64
	}
	// WriteResponse acknowledges a create or update: it echoes the stored
	// object with its new ResourceVersion.
	WriteResponse struct{ Object *cluster.Object }
	// WatchRequest subscribes to typed events of a kind after StartRev. Its
	// reply carries no body.
	WatchRequest struct {
		Kind     cluster.Kind
		StartRev int64
		SubID    uint64
	}
	// WatchPushMsg is the payload of KindWatchPush messages.
	WatchPushMsg struct {
		SubID  uint64
		Events []WatchEvent
	}
)
