package cluster

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		key := Key(kind, "obj-1")
		gotKind, gotName, err := ParseKey(key)
		if err != nil || gotKind != kind || gotName != "obj-1" {
			t.Fatalf("ParseKey(%q) = %v %v %v", key, gotKind, gotName, err)
		}
		if !strings.HasPrefix(key, KindPrefix(kind)) {
			t.Fatalf("key %q lacks kind prefix %q", key, KindPrefix(kind))
		}
	}
}

func TestParseKeyRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "/other/pods/x", "/registry/", "/registry/pods", "/registry/pods/"} {
		if _, _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pod := NewPod("web-0", "uid-1", PodSpec{NodeName: "k1", Phase: PodRunning, Image: "v2", App: "web"})
	pod.Meta.Labels = Labels{{Name: "tier", Value: "frontend"}}
	pod.Meta.DeletionTimestamp = 42
	pod.Meta.OwnerUID = "owner-1"

	data, err := Encode(pod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, 77)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ResourceVersion != 77 {
		t.Fatalf("rv = %d", got.Meta.ResourceVersion)
	}
	if got.Meta.Name != "web-0" || got.Meta.UID != "uid-1" || got.Meta.DeletionTimestamp != 42 {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if got.Pod == nil || got.Pod.NodeName != "k1" || got.Pod.Phase != PodRunning {
		t.Fatalf("pod = %+v", got.Pod)
	}
	if v, ok := got.Meta.Labels.Get("tier"); !ok || v != "frontend" {
		t.Fatalf("labels = %v", got.Meta.Labels)
	}
}

func TestEncodeStripsResourceVersion(t *testing.T) {
	pod := NewPod("p", "u", PodSpec{})
	pod.Meta.ResourceVersion = 99
	data, _ := Encode(pod)
	got, _ := Decode(data, 0)
	if got.Meta.ResourceVersion != 0 {
		t.Fatalf("encoded RV leaked: %d", got.Meta.ResourceVersion)
	}
	// The input object is not mutated by Encode.
	if pod.Meta.ResourceVersion != 99 {
		t.Fatal("Encode mutated its argument")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json"), 1); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCloneDeep(t *testing.T) {
	cass := NewCassandra("c", "u", CassandraSpec{Replicas: 3, ReadyMembers: []string{"c-0", "c-1"}})
	cass.Meta.Labels = Labels{{Name: "a", Value: "1"}}
	cp := cass.Clone()
	cp.Cassandra.ReadyMembers[0] = "mutated"
	cp.Cassandra.Replicas = 9
	cp.Meta.Labels[0].Value = "2"
	if v, _ := cass.Meta.Labels.Get("a"); cass.Cassandra.ReadyMembers[0] != "c-0" || cass.Cassandra.Replicas != 3 || v != "1" {
		t.Fatalf("clone not deep: %+v", cass)
	}

	pvc := NewPVC("v", "u", PVCSpec{OwnerPod: "p", Phase: PVCBound})
	cp2 := pvc.Clone()
	cp2.PVC.Phase = PVCReleased
	if pvc.PVC.Phase != PVCBound {
		t.Fatal("pvc clone not deep")
	}

	var nilObj *Object
	if nilObj.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

func TestTerminating(t *testing.T) {
	pod := NewPod("p", "u", PodSpec{})
	if pod.Terminating() {
		t.Fatal("fresh pod terminating")
	}
	pod.Meta.DeletionTimestamp = 1
	if !pod.Terminating() {
		t.Fatal("marked pod not terminating")
	}
}

func TestUIDGenUnique(t *testing.T) {
	g := NewUIDGen("test")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		uid := g.Next()
		if seen[uid] {
			t.Fatalf("duplicate uid %q", uid)
		}
		seen[uid] = true
		if !strings.HasPrefix(uid, "test-") {
			t.Fatalf("uid %q missing prefix", uid)
		}
	}
}

func TestPropertyEncodeDecodeAllKinds(t *testing.T) {
	f := func(name string, rv int64, ready bool, replicas uint8) bool {
		if name == "" || strings.Contains(name, "/") {
			return true // names with slashes are not valid objects
		}
		if rv < 0 {
			rv = -rv
		}
		objs := []*Object{
			NewPod(name, "u1", PodSpec{NodeName: "n", Phase: PodPending}),
			NewNode(name, "u2", NodeSpec{Ready: ready, Capacity: int(replicas)}),
			NewPVC(name, "u3", PVCSpec{OwnerPod: "o", Phase: PVCBound, SizeGB: 1}),
			NewCassandra(name, "u4", CassandraSpec{Replicas: int(replicas)}),
			NewRegion(name, "u5", RegionSpec{Owner: "rs", State: RegionOnline}),
		}
		for _, o := range objs {
			data, err := Encode(o)
			if err != nil {
				return false
			}
			got, err := Decode(data, rv)
			if err != nil || got.Meta.Name != name || got.Meta.ResourceVersion != rv ||
				got.Meta.Kind != o.Meta.Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelsWith: With puts a new label in its sorted place — first,
// between two, last, into an empty set — or replaces the value of one the
// set has, and leaves the set it was called on as it was.
func TestLabelsWith(t *testing.T) {
	base := Labels{{Name: "b", Value: "1"}, {Name: "d", Value: "2"}}
	for _, tc := range []struct {
		on          Labels
		name, value string
		want        Labels
	}{
		{base, "a", "0", Labels{{"a", "0"}, {"b", "1"}, {"d", "2"}}},
		{base, "c", "0", Labels{{"b", "1"}, {"c", "0"}, {"d", "2"}}},
		{base, "e", "0", Labels{{"b", "1"}, {"d", "2"}, {"e", "0"}}},
		{base, "b", "9", Labels{{"b", "9"}, {"d", "2"}}},
		{base, "d", "9", Labels{{"b", "1"}, {"d", "9"}}},
		{nil, "a", "0", Labels{{"a", "0"}}},
	} {
		before := slices.Clone(tc.on)
		got := tc.on.With(tc.name, tc.value)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v.With(%q, %q) = %v, want %v", tc.on, tc.name, tc.value, got, tc.want)
		}
		if !slices.Equal(tc.on, before) {
			t.Errorf("With(%q, %q) changed the set it was called on: %v, was %v", tc.name, tc.value, tc.on, before)
		}
		if v, ok := got.Get(tc.name); !ok || v != tc.value {
			t.Errorf("%v.Get(%q) = %q, %v", got, tc.name, v, ok)
		}
	}
	if _, ok := base.Get("c"); ok {
		t.Error("Get found a label the set does not have")
	}
}
