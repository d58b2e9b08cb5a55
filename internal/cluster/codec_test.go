package cluster_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/workload"
)

// encoding/json is the codec's reference: what Decode and Encode did before
// the hand-written paths existed, and what they must still do.

// refObject is Object with its labels held as a map, the way encoding/json
// writes and reads them unaided, so the reference shares no code with
// Labels' own JSON methods.
type refObject struct {
	Meta struct {
		Kind              cluster.Kind      `json:"kind"`
		Name              string            `json:"name"`
		UID               string            `json:"uid"`
		ResourceVersion   int64             `json:"resourceVersion,omitempty"`
		DeletionTimestamp int64             `json:"deletionTimestamp,omitempty"`
		OwnerUID          string            `json:"ownerUID,omitempty"`
		Labels            map[string]string `json:"labels,omitempty"`
	} `json:"meta"`
	Pod       *cluster.PodSpec       `json:"pod,omitempty"`
	Node      *cluster.NodeSpec      `json:"node,omitempty"`
	PVC       *cluster.PVCSpec       `json:"pvc,omitempty"`
	Cassandra *cluster.CassandraSpec `json:"cassandra,omitempty"`
	Region    *cluster.RegionSpec    `json:"region,omitempty"`
}

func refDecode(data []byte, rv int64) (*cluster.Object, error) {
	var r refObject
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	m := r.Meta
	o := &cluster.Object{
		Meta: cluster.Meta{Kind: m.Kind, Name: m.Name, UID: m.UID, ResourceVersion: rv,
			DeletionTimestamp: m.DeletionTimestamp, OwnerUID: m.OwnerUID},
		Pod: r.Pod, Node: r.Node, PVC: r.PVC, Cassandra: r.Cassandra, Region: r.Region,
	}
	if m.Labels != nil {
		o.Meta.Labels = cluster.Labels{}
		for name, v := range m.Labels {
			o.Meta.Labels = append(o.Meta.Labels, cluster.Label{Name: name, Value: v})
		}
		slices.SortFunc(o.Meta.Labels, func(a, b cluster.Label) int { return strings.Compare(a.Name, b.Name) })
	}
	return o, nil
}

func refEncode(o *cluster.Object) []byte {
	var r refObject
	r.Meta.Kind, r.Meta.Name, r.Meta.UID = o.Meta.Kind, o.Meta.Name, o.Meta.UID
	r.Meta.DeletionTimestamp, r.Meta.OwnerUID = o.Meta.DeletionTimestamp, o.Meta.OwnerUID
	if o.Meta.Labels != nil {
		r.Meta.Labels = map[string]string{}
		for _, l := range o.Meta.Labels {
			r.Meta.Labels[l.Name] = l.Value
		}
	}
	r.Pod, r.Node, r.PVC, r.Cassandra, r.Region = o.Pod, o.Node, o.PVC, o.Cassandra, o.Region
	b, err := json.Marshal(&r)
	if err != nil {
		panic(err)
	}
	return b
}

// committedValues returns every distinct value the reference run of the five
// committed targets and both scale targets (10 racks × 5 nodes) puts in the
// store: the bytes the simulator itself writes.
var committedValues = sync.OnceValue(func() [][]byte {
	scale := workload.ScaleProfile{Racks: 10, NodesPerRack: 5}
	targets := append(workload.AllTargets(), workload.ScaleReplaceTarget(scale), workload.ScaleRackDrainTarget(scale))
	seen := map[string]bool{}
	var out [][]byte
	for _, target := range targets {
		c := target.Build(1)
		target.Workload(c)
		c.RunFor(target.Horizon)
		for _, ev := range c.Store.Store().History().Events() {
			if ev.Type == history.Put && !seen[string(ev.Value)] {
				seen[string(ev.Value)] = true
				out = append(out, ev.Value)
			}
		}
	}
	return out
})

// fuzzSeeds thins committedValues to one value per shape — values that
// differ only in their digits (heartbeats, ordinals, UIDs) are one shape.
func fuzzSeeds() [][]byte {
	digits := func(r rune) rune {
		if r >= '0' && r <= '9' {
			return '0'
		}
		return r
	}
	seen := map[string]bool{}
	var out [][]byte
	for _, v := range committedValues() {
		if shape := strings.Map(digits, string(v)); !seen[shape] {
			seen[shape] = true
			out = append(out, v)
		}
	}
	return out
}

// TestCodecCorpusDifferential: on everything the simulator commits, the fast
// parser never falls back and agrees with json.Unmarshal, and both encoders
// reproduce the committed bytes.
func TestCodecCorpusDifferential(t *testing.T) {
	values := committedValues()
	kinds := map[cluster.Kind]int{}
	for _, v := range values {
		got, ok := cluster.ParseObject(v)
		if !ok {
			t.Fatalf("fast parser fell back on a committed value: %s", v)
		}
		want, err := refDecode(v, 0)
		if err != nil {
			t.Fatalf("json.Unmarshal rejects a committed value: %v: %s", err, v)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode of %s\n got %+v\nwant %+v", v, got, want)
		}
		enc, ok := cluster.AppendObject(nil, got)
		if !ok {
			t.Fatalf("fast encoder fell back on a committed object: %s", v)
		}
		if !bytes.Equal(enc, v) || !bytes.Equal(refEncode(got), v) {
			t.Fatalf("re-encode of %s\n fast %s\n json %s", v, enc, refEncode(got))
		}
		kinds[got.Meta.Kind]++
	}
	for _, k := range []cluster.Kind{cluster.KindPod, cluster.KindNode, cluster.KindPVC, cluster.KindCassandra} {
		if kinds[k] == 0 {
			t.Errorf("corpus holds no %s; the check is vacuous for that kind", k)
		}
	}
	t.Logf("%d distinct committed values, 0 fallbacks: %v", len(values), kinds)
}

// TestCodecOffShapeFallsBack: inputs outside the canonical shape are refused
// by the fast parser and then decode — or fail — exactly as json.Unmarshal
// decides.
func TestCodecOffShapeFallsBack(t *testing.T) {
	const pod = `{"meta":{"kind":"pods","name":"p","uid":"u"},"pod":{"nodeName":"n"}}`
	if _, ok := cluster.ParseObject([]byte(pod)); !ok {
		t.Fatalf("the table's base input is itself off-shape: %s", pod)
	}
	mut := func(old, new string) string {
		if !strings.Contains(pod, old) {
			t.Fatalf("base input lacks %q", old)
		}
		return strings.Replace(pod, old, new, 1)
	}
	for _, tc := range []struct {
		name, in string
		wantErr  bool
	}{
		{"escape", mut(`"p"`, `"p\n"`), false},
		{"unicode escape", mut(`"p"`, `"\u0070"`), false},
		{"escaped quote", mut(`"p"`, `"\""`), false},
		{"non-ASCII", mut(`"p"`, `"pé"`), false},
		{"invalid UTF-8", mut(`"p"`, "\"p\xff\""), false},
		{"DEL byte", mut(`"p"`, "\"p\x7f\""), false},
		{"control byte", mut(`"p"`, "\"p\x01\""), true},
		{"whitespace", mut(`,"pod"`, `, "pod"`), false},
		{"leading whitespace", " " + pod, false},
		{"trailing newline", pod + "\n", false},
		{"unknown field", mut(`"uid":"u"`, `"uid":"u","extra":1`), false},
		{"wrong-case key", mut(`"name"`, `"Name"`), false},
		{"duplicate key", mut(`"uid":"u"`, `"uid":"x","uid":"u"`), false},
		{"duplicate payload", mut(`}}`, `},"pod":{"app":"a"}}`), false},
		{"out-of-order keys", mut(`"name":"p","uid":"u"`, `"uid":"u","name":"p"`), false},
		{"resourceVersion in bytes", mut(`"uid":"u"`, `"uid":"u","resourceVersion":9`), false},
		{"null payload", mut(`{"nodeName":"n"}`, `null`), false},
		{"null string", mut(`"p"`, `null`), false},
		{"empty labels", mut(`"uid":"u"`, `"uid":"u","labels":{}`), false},
		{"unsorted labels", mut(`"uid":"u"`, `"uid":"u","labels":{"b":"1","a":"2"}`), false},
		{"duplicate label", mut(`"uid":"u"`, `"uid":"u","labels":{"a":"1","a":"2"}`), false},
		{"labels twice", mut(`"uid":"u"`, `"uid":"u","labels":{"b":"1"},"labels":{"a":"2"}`), false},
		{"null labels", mut(`"uid":"u"`, `"uid":"u","labels":null`), false},
		{"number for labels", mut(`"uid":"u"`, `"uid":"u","labels":5`), true},
		{"number for label value", mut(`"uid":"u"`, `"uid":"u","labels":{"a":"1","b":2}`), true},
		{"empty array", `{"meta":{"kind":"cassandraclusters"},"cassandra":{"replicas":1,"racks":[]}}`, false},
		{"float", `{"meta":{"kind":"nodes"},"node":{"ready":true,"capacity":1.0}}`, true},
		{"exponent", `{"meta":{"kind":"nodes"},"node":{"ready":true,"capacity":1e2}}`, true},
		{"leading zero", `{"meta":{"kind":"nodes"},"node":{"ready":true,"capacity":01}}`, true},
		{"negative zero", `{"meta":{"kind":"nodes"},"node":{"ready":true,"capacity":-0}}`, false},
		{"19-digit integer", mut(`"uid":"u"`, `"uid":"u","deletionTimestamp":9223372036854775807`), false},
		{"overflowing integer", mut(`"uid":"u"`, `"uid":"u","deletionTimestamp":9223372036854775808`), true},
		{"string for integer", mut(`"uid":"u"`, `"uid":"u","deletionTimestamp":"7"`), true},
		{"number for bool", `{"meta":{"kind":"nodes"},"node":{"ready":1,"capacity":1}}`, true},
		{"truncated", pod[:len(pod)-1], true},
		{"truncated in string", pod[:20], true},
		{"trailing bytes", pod + "x", true},
		{"trailing object", pod + pod, true},
		{"trailing comma", mut(`"uid":"u"`, `"uid":"u",`), true},
		{"leading comma", mut(`{"kind"`, `{,"kind"`), true},
		{"array", `[]`, true},
		{"null", `null`, false},
		{"empty", ``, true},
		{"not json", `{not json`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if o, ok := cluster.ParseObject([]byte(tc.in)); ok || o != nil {
				t.Fatalf("fast parser accepted off-shape input %q: %+v", tc.in, o)
			}
			want, wantErr := refDecode([]byte(tc.in), 7)
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("table is wrong about json.Unmarshal(%q): err = %v", tc.in, wantErr)
			}
			got, err := cluster.Decode([]byte(tc.in), 7)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Decode(%q) err = %v, want error: %v", tc.in, err, tc.wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode(%q)\n got %+v\nwant %+v", tc.in, got, want)
			}
		})
	}
}

// TestCodecEncodeFallsBack: an object holding a string json.Marshal would
// escape is encoded by json.Marshal, whole.
func TestCodecEncodeFallsBack(t *testing.T) {
	for _, s := range []string{`a"b`, `a\b`, "a\nb", "a<b", "a>b", "a&b", "é", "a\xffb", "a\x7fb", "a\u2028b"} {
		objs := []*cluster.Object{
			cluster.NewPod(s, "u", cluster.PodSpec{}),
			cluster.NewPod("p", "u", cluster.PodSpec{Image: s}),
			cluster.NewCassandra("c", "u", cluster.CassandraSpec{ReadyMembers: []string{"c-0", s}}),
			{Meta: cluster.Meta{Kind: cluster.Kind(s)}},
		}
		labelled := cluster.NewNode("n", "u", cluster.NodeSpec{})
		labelled.Meta.Labels = cluster.Labels{{Name: s, Value: "v"}}
		valued := cluster.NewNode("n", "u", cluster.NodeSpec{})
		valued.Meta.Labels = cluster.Labels{{Name: "k", Value: s}}
		for _, o := range append(objs, labelled, valued) {
			if _, ok := cluster.AppendObject(nil, o); ok {
				t.Errorf("fast encoder accepted %q in %+v", s, o)
			}
			if got, want := cluster.MustEncode(o), refEncode(o); !bytes.Equal(got, want) {
				t.Errorf("Encode with %q\n got %s\nwant %s", s, got, want)
			}
			if _, exact, _ := cluster.EncodeExact(o); exact {
				t.Errorf("EncodeExact calls %+v, holding %q, exact", o, s)
			}
		}
	}
}

// TestEncodeExactEmptyNotNil: an empty label set or string slice that is
// not nil encodes like a nil one, and decodes to nil, so EncodeExact does
// not call its object exact; the same object with the field nil is.
func TestEncodeExactEmptyNotNil(t *testing.T) {
	labelled := cluster.NewNode("n", "u", cluster.NodeSpec{Ready: true})
	labelled.Meta.Labels = cluster.Labels{}
	for _, o := range []*cluster.Object{
		labelled,
		cluster.NewCassandra("c", "u", cluster.CassandraSpec{Replicas: 3, ReadyMembers: []string{}}),
		cluster.NewCassandra("c", "u", cluster.CassandraSpec{Replicas: 3, Racks: []string{}}),
	} {
		data, exact, err := cluster.EncodeExact(o)
		if err != nil || exact {
			t.Errorf("EncodeExact(%+v): exact = %v, err = %v; want inexact", o, exact, err)
		}
		got, _ := cluster.Decode(data, 0)
		if reflect.DeepEqual(got, o) {
			t.Errorf("%+v survives its round trip; the case proves nothing", o)
		}
		c := o.Clone() // Clone turns an empty string slice nil; the label set is cleared by hand
		if len(c.Meta.Labels) == 0 {
			c.Meta.Labels = nil
		}
		if _, exact, _ := cluster.EncodeExact(c); !exact {
			t.Errorf("EncodeExact(%+v) is inexact with the empty field nil", c)
		}
	}
}

func benchPod() *cluster.Object {
	pod := cluster.NewPod("web-7", "uid-0042", cluster.PodSpec{NodeName: "node-r03-2", Phase: cluster.PodRunning, Image: "v2", App: "web"})
	pod.Meta.OwnerUID = "uid-0007"
	return pod
}

func benchNode() *cluster.Object {
	node := cluster.NewNode("node-r03-2", "uid-0013", cluster.NodeSpec{Ready: true, Capacity: 8, Rack: "rack-03", Zone: "zone-1", DC: "dc-1"})
	node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: "1234000000"}}
	return node
}

// TestCodecAllocCeilings pins what the codec saves: json.Unmarshal took 16
// allocations for this pod and 21 for this node, json.Marshal 2 and 5.
func TestCodecAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name           string
		obj            *cluster.Object
		decode, encode float64
	}{
		{"pod", benchPod(), 3, 1},   // the text, the Object, the PodSpec
		{"node", benchNode(), 4, 1}, // + the label set
	} {
		data := cluster.MustEncode(tc.obj)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := cluster.Decode(data, 1); err != nil {
				t.Fatal(err)
			}
		}); n > tc.decode {
			t.Errorf("%s decode allocates %v times, ceiling %v", tc.name, n, tc.decode)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := cluster.Encode(tc.obj); err != nil {
				t.Fatal(err)
			}
		}); n > tc.encode {
			t.Errorf("%s encode allocates %v times, ceiling %v", tc.name, n, tc.encode)
		}
	}
}

// FuzzDecodeMatchesJSON: on arbitrary bytes Decode and json.Unmarshal agree
// on whether the input is an object and, if it is, on the object.
func FuzzDecodeMatchesJSON(f *testing.F) {
	for _, v := range fuzzSeeds() {
		f.Add(v)
	}
	f.Add([]byte(`{"meta":{"kind":"pods","name":"p\n","uid":"u","resourceVersion":3,"labels":{}},"pod":null}`))
	f.Add([]byte(`{"meta":{"kind":"nodes","name":"n","uid":"u","deletionTimestamp":-5},"node":{"ready":false,"capacity":1e2}}`))
	// label sets of three: in order, out of order, naming one label twice,
	// and split over a key given twice
	f.Add([]byte(`{"meta":{"kind":"nodes","name":"n","uid":"u","labels":{"a":"1","b":"2","c":"3"}},"node":{"ready":true,"capacity":4}}`))
	f.Add([]byte(`{"meta":{"kind":"nodes","name":"n","uid":"u","labels":{"c":"3","a":"1","b":"2"}},"node":{"ready":true,"capacity":4}}`))
	f.Add([]byte(`{"meta":{"kind":"nodes","name":"n","uid":"u","labels":{"a":"1","b":"2","a":"3"}},"node":{"ready":true,"capacity":4}}`))
	f.Add([]byte(`{"meta":{"kind":"nodes","name":"n","uid":"u","labels":{"b":"2"},"labels":{"a":"1"}},"node":{"ready":true,"capacity":4}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refDecode(data, 7)
		got, err := cluster.Decode(data, 7)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Decode(%q) err = %v, json.Unmarshal err = %v", data, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q)\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// splitNonEmpty splits fuzzed text into list elements; no elements is a nil
// slice, which is what an omitted field decodes to.
func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// FuzzEncodeMatchesJSON: for an object assembled from fuzzed fields — any
// subset of the five payloads, absent lists and labels nil or empty — Encode's
// bytes are json.Marshal's, and decoding them gives what json.Unmarshal
// gives, which is the object itself whenever its strings are valid UTF-8 and
// nothing is empty but not nil, and always when EncodeExact calls it exact.
func FuzzEncodeMatchesJSON(f *testing.F) {
	for _, v := range fuzzSeeds() {
		o, err := refDecode(v, 0)
		if err != nil {
			f.Fatal(err)
		}
		var payloads uint8
		var a, b, c, list string
		var n int64
		var flag bool
		switch {
		case o.Pod != nil:
			payloads, a, b, c, list = 1, o.Pod.NodeName, string(o.Pod.Phase), o.Pod.Image, o.Pod.App
		case o.Node != nil:
			payloads, a, b, c, n, flag = 2, o.Node.Rack, o.Node.Zone, o.Node.DC, int64(o.Node.Capacity), o.Node.Ready
		case o.PVC != nil:
			payloads, a, b, n = 4, o.PVC.OwnerPod, string(o.PVC.Phase), int64(o.PVC.SizeGB)
		case o.Cassandra != nil:
			payloads, a, n = 8, o.Cassandra.Decommissioning, int64(o.Cassandra.Replicas)
			list = strings.Join(o.Cassandra.ReadyMembers, ",")
			c = strings.Join(o.Cassandra.Racks, ",")
		case o.Region != nil:
			payloads, a, b = 16, o.Region.Owner, string(o.Region.State)
		}
		var labels []string
		for _, l := range o.Meta.Labels {
			labels = append(labels, l.Name, l.Value)
		}
		f.Add(string(o.Meta.Kind), o.Meta.Name, o.Meta.UID, o.Meta.OwnerUID, o.Meta.DeletionTimestamp,
			strings.Join(labels, ","), payloads, a, b, c, list, n, flag)
	}
	f.Add("pods", "a<b", "u\"", "o\\", int64(-1), "k,v,k2,\xff", uint8(31), "é", "\n", "&", "x,,y", int64(-7), true)
	// label sets of three: in order, out of order, and naming one label twice
	f.Add("nodes", "n", "u", "", int64(0), "a,1,b,2,c,3", uint8(2), "", "", "", "", int64(4), true)
	f.Add("nodes", "n", "u", "", int64(0), "c,3,a,1,b,2", uint8(2), "", "", "", "", int64(4), true)
	f.Add("nodes", "n", "u", "", int64(0), "a,1,b,2,a,3", uint8(2), "", "", "", "", int64(4), true)
	f.Fuzz(func(t *testing.T, kind, name, uid, owner string, deleted int64, labels string,
		payloads uint8, a, b, c, list string, n int64, flag bool) {
		o := &cluster.Object{Meta: cluster.Meta{
			Kind: cluster.Kind(kind), Name: name, UID: uid, OwnerUID: owner, DeletionTimestamp: deleted,
		}}
		// The labels as the literal lists them: maybe out of order, maybe
		// naming one twice.
		canonical := true
		if kv := splitNonEmpty(labels); kv != nil {
			o.Meta.Labels = cluster.Labels{}
			for i := 0; i < len(kv); i += 2 {
				l := cluster.Label{Name: kv[i], Value: kv[(i+1)%len(kv)]}
				if n := len(o.Meta.Labels); n > 0 && o.Meta.Labels[n-1].Name >= l.Name {
					canonical = false
				}
				o.Meta.Labels = append(o.Meta.Labels, l)
			}
		}
		if payloads&1 != 0 {
			o.Pod = &cluster.PodSpec{NodeName: a, Phase: cluster.PodPhase(b), Image: c, App: list}
		}
		if payloads&2 != 0 {
			o.Node = &cluster.NodeSpec{Ready: flag, Capacity: int(n), Rack: a, Zone: b, DC: c}
		}
		if payloads&4 != 0 {
			o.PVC = &cluster.PVCSpec{OwnerPod: a, Phase: cluster.PVCPhase(b), SizeGB: int(n)}
		}
		if payloads&8 != 0 {
			o.Cassandra = &cluster.CassandraSpec{Replicas: int(n), ReadyMembers: splitNonEmpty(list), Decommissioning: a, Racks: splitNonEmpty(c)}
		}
		if payloads&16 != 0 {
			o.Region = &cluster.RegionSpec{Owner: a, State: cluster.RegionState(b)}
		}
		if payloads&32 != 0 { // absent lists and labels empty, not nil
			if o.Meta.Labels == nil {
				o.Meta.Labels = cluster.Labels{}
			}
			if c := o.Cassandra; c != nil && c.ReadyMembers == nil {
				c.ReadyMembers = []string{}
			}
			if c := o.Cassandra; c != nil && c.Racks == nil {
				c.Racks = []string{}
			}
		}

		enc, err := cluster.Encode(o)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", o, err)
		}
		if want := refEncode(o); !bytes.Equal(enc, want) {
			t.Fatalf("Encode(%+v)\n got %s\nwant %s", o, enc, want)
		}
		got, err := cluster.Decode(enc, 0)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)) = %v", o, err)
		}
		want, _ := refDecode(enc, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%s)\n got %+v\nwant %+v", enc, got, want)
		}
		// Each string on its own: two invalid strings can concatenate to a
		// valid one ("\xdb" + "\x86"), and json.Marshal replaces both.
		valid := true
		for _, s := range []string{kind, name, uid, owner, labels, a, b, c, list} {
			valid = valid && utf8.ValidString(s)
		}
		_, exact, _ := cluster.EncodeExact(o)
		if exact && !reflect.DeepEqual(got, o) {
			t.Fatalf("EncodeExact calls %+v exact, but %s decodes to %+v", o, enc, got)
		}
		if !canonical {
			if _, ok := cluster.AppendObject(nil, o); ok || exact {
				t.Fatalf("labels %v are not canonical, but the fast encoder took them (%v) or EncodeExact calls them exact (%v)",
					o.Meta.Labels, ok, exact)
			}
			return // they decode as the map they stand for: the reference above
		}
		if payloads&32 == 0 && valid && !reflect.DeepEqual(got, o) {
			t.Fatalf("round trip of %+v through %s gave %+v", o, enc, got)
		}
	})
}
