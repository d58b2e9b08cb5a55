package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The codec (DESIGN.md §12). Every committed revision is encoded once, by
// the writing apiserver. Decoding is what is left over: a revision written
// through an apiserver is served as the object its writer encoded
// (EncodeExact says when that is safe), so applyOne decodes only a value no
// apiserver of the cluster wrote, or one whose writer's object Decode would
// not give back; cached reads of relisted or restored keys and the oracles
// decode too. Object has a hand-written codec for the one shape the
// simulator itself produces, and encoding/json for everything else:
//
//   - appendObject emits exactly json.Marshal's bytes (field order,
//     omitempty, sorted label keys) for objects whose strings json.Marshal
//     would copy verbatim and whose label set is canonical, and reports
//     false for any other object;
//   - parseObject accepts exactly those bytes — fields in declaration order,
//     no whitespace, unescaped printable-ASCII strings, plain integers,
//     non-empty label objects with ascending keys, non-empty string arrays —
//     and reports false at the first byte outside that shape.
//
// On false the caller hands the whole input to encoding/json, so off-shape
// bytes decode, and fail, exactly as they always did. Which path runs
// depends on the input alone.

// Encode serializes an object for storage. ResourceVersion is not encoded:
// it is derived from the store revision on read, never trusted from bytes.
func Encode(o *Object) ([]byte, error) {
	b, _, err := EncodeExact(o)
	return b, err
}

// EncodeExact is Encode that also reports whether o is the object Decode
// makes of the bytes, ResourceVersion aside. It is unless some string is
// off the canonical shape or the label set is not canonical (the bytes then
// come from json.Marshal, and Decode may not give the text or the literal
// back), or a label set or a string slice is empty but not nil (Encode
// omits it, and Decode leaves the field nil).
func EncodeExact(o *Object) (data []byte, exact bool, err error) {
	var scratch [256]byte
	if b, ok := appendObject(scratch[:0], o); ok {
		return slices.Clone(b), !emptyNotNil(o), nil
	}
	c := *o // shallow: only the ResourceVersion field differs from o
	c.Meta.ResourceVersion = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: encode %s: %w", o, err)
	}
	return b, false, nil
}

// emptyNotNil reports whether o has a label set or a string slice that is
// empty but not nil.
func emptyNotNil(o *Object) bool {
	empty := func(ss []string) bool { return ss != nil && len(ss) == 0 }
	return o.Meta.Labels != nil && len(o.Meta.Labels) == 0 ||
		o.Cassandra != nil && (empty(o.Cassandra.ReadyMembers) || empty(o.Cassandra.Racks))
}

// Decode deserializes an object and stamps the given resource version.
func Decode(data []byte, resourceVersion int64) (*Object, error) {
	o, ok := parseObject(data)
	if !ok {
		o = new(Object)
		if err := json.Unmarshal(data, o); err != nil {
			return nil, fmt.Errorf("cluster: decode: %w", err)
		}
	}
	o.Meta.ResourceVersion = resourceVersion
	return o, nil
}

// MustEncode is Encode for objects constructed by this package; encoding
// them cannot fail.
func MustEncode(o *Object) []byte {
	b, err := Encode(o)
	if err != nil {
		panic(err)
	}
	return b
}

// plainByte reports whether json.Marshal copies c into a string verbatim
// and the parser accepts it there: printable ASCII except the quote, the
// backslash and the three characters json.Marshal escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// encoder appends canonical JSON to b. It is passed and returned by value,
// append-style, so that a caller's stack buffer stays on the stack. off
// turns true at the first string that is not plain or label set that is not
// canonical, after which the output is abandoned.
type encoder struct {
	b     []byte
	first bool // no key written yet in the innermost open object
	off   bool
}

func (e encoder) open() encoder {
	e.b = append(e.b, '{')
	e.first = true
	return e
}

func (e encoder) close() encoder {
	e.b = append(e.b, '}')
	e.first = false
	return e
}

// key appends k (a quoted name and its colon), after a comma unless it is
// the object's first key.
func (e encoder) key(k string) encoder {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.b = append(e.b, k...)
	return e
}

func (e encoder) str(s string) encoder {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			e.off = true
			return e
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
	return e
}

func (e encoder) integer(v int64) encoder {
	e.b = strconv.AppendInt(e.b, v, 10)
	return e
}

// optStr, optInt and optStrs are the omitempty fields.
func (e encoder) optStr(k, s string) encoder {
	if s == "" {
		return e
	}
	return e.key(k).str(s)
}

func (e encoder) optInt(k string, v int64) encoder {
	if v == 0 {
		return e
	}
	return e.key(k).integer(v)
}

func (e encoder) optStrs(k string, ss []string) encoder {
	if len(ss) == 0 {
		return e
	}
	e = e.key(k)
	for i, s := range ss {
		if i == 0 {
			e.b = append(e.b, '[')
		} else {
			e.b = append(e.b, ',')
		}
		e = e.str(s)
	}
	e.b = append(e.b, ']')
	return e
}

// optLabels writes a label set the way json.Marshal writes its map: in
// order, names escaped by the same rule as values. A set that is not
// canonical — out of order, or a name twice — is off the shape: its map is
// encoding/json's to write.
func (e encoder) optLabels(k string, labels Labels) encoder {
	if len(labels) == 0 {
		return e
	}
	e = e.key(k)
	for i, l := range labels {
		if i == 0 {
			e.b = append(e.b, '{')
		} else if labels[i-1].Name >= l.Name {
			e.off = true
			return e
		} else {
			e.b = append(e.b, ',')
		}
		e = e.str(l.Name)
		e.b = append(e.b, ':')
		e = e.str(l.Value)
	}
	return e.close()
}

// appendObject appends o's storage encoding (ResourceVersion omitted) to b.
// It reports false, with the returned bytes meaningless, when some string
// in o is one json.Marshal would not copy verbatim.
func appendObject(b []byte, o *Object) ([]byte, bool) {
	e := encoder{b: b}.open()
	m := &o.Meta
	e = e.key(`"meta":`).open()
	e = e.key(`"kind":`).str(string(m.Kind))
	e = e.key(`"name":`).str(m.Name)
	e = e.key(`"uid":`).str(m.UID)
	e = e.optInt(`"deletionTimestamp":`, m.DeletionTimestamp)
	e = e.optStr(`"ownerUID":`, m.OwnerUID)
	e = e.optLabels(`"labels":`, m.Labels)
	e = e.close()
	if s := o.Pod; s != nil {
		e = e.key(`"pod":`).open()
		e = e.optStr(`"nodeName":`, s.NodeName)
		e = e.optStr(`"phase":`, string(s.Phase))
		e = e.optStr(`"image":`, s.Image)
		e = e.optStr(`"app":`, s.App)
		e = e.close()
	}
	if s := o.Node; s != nil {
		e = e.key(`"node":`).open()
		e = e.key(`"ready":`)
		e.b = strconv.AppendBool(e.b, s.Ready)
		e = e.key(`"capacity":`).integer(int64(s.Capacity))
		e = e.optStr(`"rack":`, s.Rack)
		e = e.optStr(`"zone":`, s.Zone)
		e = e.optStr(`"dc":`, s.DC)
		e = e.close()
	}
	if s := o.PVC; s != nil {
		e = e.key(`"pvc":`).open()
		e = e.optStr(`"ownerPod":`, s.OwnerPod)
		e = e.optStr(`"phase":`, string(s.Phase))
		e = e.optInt(`"sizeGB":`, int64(s.SizeGB))
		e = e.close()
	}
	if s := o.Cassandra; s != nil {
		e = e.key(`"cassandra":`).open()
		e = e.key(`"replicas":`).integer(int64(s.Replicas))
		e = e.optStrs(`"readyMembers":`, s.ReadyMembers)
		e = e.optStr(`"decommissioning":`, s.Decommissioning)
		e = e.optStrs(`"racks":`, s.Racks)
		e = e.close()
	}
	if s := o.Region; s != nil {
		e = e.key(`"region":`).open()
		e = e.optStr(`"owner":`, s.Owner)
		e = e.optStr(`"state":`, string(s.State))
		e = e.close()
	}
	e = e.close()
	return e.b, !e.off
}

// parser is a cursor over one canonical encoding. The input is converted to
// a string once and every decoded string is a substring of it, so a decode
// allocates the text once however many string fields it has. The first
// byte outside the canonical shape sets bad; from then on nothing matches.
type parser struct {
	s     string
	i     int
	first bool // no key consumed yet in the innermost open object
	bad   bool
}

func (p *parser) fail() {
	p.bad = true
	p.i = len(p.s)
}

// lit consumes c, or fails.
func (p *parser) lit(c byte) {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return
	}
	p.fail()
}

func (p *parser) open() {
	p.lit('{')
	p.first = true
}

func (p *parser) close() {
	p.lit('}')
	p.first = false
}

// key consumes k (a quoted name and its colon) with the comma that must
// precede every key but an object's first, and reports whether it was
// there. Callers ask for an object's keys in declaration order, so an
// unknown, repeated, out-of-order or wrong-case key matches nothing and
// the close that follows fails.
func (p *parser) key(k string) bool {
	i := p.i
	if !p.first {
		if i >= len(p.s) || p.s[i] != ',' {
			return false
		}
		i++
	}
	if !strings.HasPrefix(p.s[i:], k) {
		return false
	}
	p.i = i + len(k)
	p.first = false
	return true
}

// str consumes a quoted string of plain bytes. A literal '<', '>' or '&'
// is fine on the way in — json.Unmarshal reads them as themselves — so the
// test here is wider than plainByte by exactly those three.
func (p *parser) str() string {
	p.lit('"')
	s, start := p.s, p.i
	for i := start; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			p.i = i + 1
			return s[start:i]
		case c < 0x20 || c >= 0x7f || c == '\\':
			p.fail()
			return ""
		}
	}
	p.fail()
	return ""
}

// integer consumes a plain JSON integer of at most 18 digits (so it cannot
// overflow): no fraction, no exponent, no leading zero, no "-0".
func (p *parser) integer() int64 {
	neg := p.i < len(p.s) && p.s[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var v int64
	for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
		v = v*10 + int64(p.s[p.i]-'0')
		p.i++
	}
	n := p.i - start
	if n == 0 || n > 18 || (p.s[start] == '0' && (n > 1 || neg)) {
		p.fail()
		return 0
	}
	if neg {
		return -v
	}
	return v
}

// intField is integer for a field of Go type int.
func (p *parser) intField() int {
	v := p.integer()
	if v < math.MinInt || v > math.MaxInt {
		p.fail()
		return 0
	}
	return int(v)
}

func (p *parser) boolean() bool {
	switch {
	case strings.HasPrefix(p.s[p.i:], "true"):
		p.i += len("true")
		return true
	case strings.HasPrefix(p.s[p.i:], "false"):
		p.i += len("false")
		return false
	}
	p.fail()
	return false
}

// strs consumes a non-empty array of strings. An empty one is off-shape:
// Encode omits it, and json.Unmarshal would decode it to a non-nil slice.
func (p *parser) strs() []string {
	p.lit('[')
	// Size the slice before filling it: plain strings hold no quote, so
	// every element contributes exactly two up to the closing bracket.
	end := strings.IndexByte(p.s[p.i:], ']')
	if end < 0 {
		p.fail()
		return nil
	}
	out := make([]string, 0, strings.Count(p.s[p.i:p.i+end], `"`)/2)
	for {
		out = append(out, p.str())
		if p.i < len(p.s) && p.s[p.i] == ',' {
			p.i++
			continue
		}
		p.lit(']')
		return out
	}
}

// labels consumes a non-empty object of string values whose keys strictly
// ascend, which is how Encode writes a label set and rules out duplicates.
func (p *parser) labels() Labels {
	p.lit('{')
	end := strings.IndexByte(p.s[p.i:], '}')
	if end < 0 {
		p.fail()
		return nil
	}
	out := make(Labels, 0, strings.Count(p.s[p.i:p.i+end], `"`)/4)
	for {
		k := p.str()
		p.lit(':')
		v := p.str()
		if len(out) > 0 && k <= out[len(out)-1].Name {
			p.fail()
		}
		if p.bad {
			return nil
		}
		out = append(out, Label{Name: k, Value: v})
		if p.i < len(p.s) && p.s[p.i] == ',' {
			p.i++
			continue
		}
		p.lit('}')
		return out
	}
}

// wellKnown returns the constant among known that equals s, so that a
// decoded kind, phase or state neither allocates nor pins the input text;
// any other string is kept as it is.
func wellKnown[T ~string](s string, known ...T) T {
	for _, k := range known {
		if string(k) == s {
			return k
		}
	}
	return T(s)
}

// parseObject decodes data if it is a canonical encoding (see the top of
// this file) and reports false, with no object, if it is anything else.
func parseObject(data []byte) (*Object, bool) {
	p := parser{s: string(data)}
	o := new(Object)
	p.open()
	if p.key(`"meta":`) {
		m := &o.Meta
		p.open()
		if p.key(`"kind":`) {
			m.Kind = wellKnown(p.str(), KindPod, KindNode, KindPVC, KindCassandra, KindRegion)
		}
		if p.key(`"name":`) {
			m.Name = p.str()
		}
		if p.key(`"uid":`) {
			m.UID = p.str()
		}
		if p.key(`"deletionTimestamp":`) {
			m.DeletionTimestamp = p.integer()
		}
		if p.key(`"ownerUID":`) {
			m.OwnerUID = p.str()
		}
		if p.key(`"labels":`) {
			m.Labels = p.labels()
		}
		p.close()
	}
	if p.key(`"pod":`) {
		s := new(PodSpec)
		p.open()
		if p.key(`"nodeName":`) {
			s.NodeName = p.str()
		}
		if p.key(`"phase":`) {
			s.Phase = wellKnown(p.str(), PodPending, PodScheduled, PodRunning, PodTerminating, PodFailed)
		}
		if p.key(`"image":`) {
			s.Image = p.str()
		}
		if p.key(`"app":`) {
			s.App = p.str()
		}
		p.close()
		o.Pod = s
	}
	if p.key(`"node":`) {
		s := new(NodeSpec)
		p.open()
		if p.key(`"ready":`) {
			s.Ready = p.boolean()
		}
		if p.key(`"capacity":`) {
			s.Capacity = p.intField()
		}
		if p.key(`"rack":`) {
			s.Rack = p.str()
		}
		if p.key(`"zone":`) {
			s.Zone = p.str()
		}
		if p.key(`"dc":`) {
			s.DC = p.str()
		}
		p.close()
		o.Node = s
	}
	if p.key(`"pvc":`) {
		s := new(PVCSpec)
		p.open()
		if p.key(`"ownerPod":`) {
			s.OwnerPod = p.str()
		}
		if p.key(`"phase":`) {
			s.Phase = wellKnown(p.str(), PVCBound, PVCReleased)
		}
		if p.key(`"sizeGB":`) {
			s.SizeGB = p.intField()
		}
		p.close()
		o.PVC = s
	}
	if p.key(`"cassandra":`) {
		s := new(CassandraSpec)
		p.open()
		if p.key(`"replicas":`) {
			s.Replicas = p.intField()
		}
		if p.key(`"readyMembers":`) {
			s.ReadyMembers = p.strs()
		}
		if p.key(`"decommissioning":`) {
			s.Decommissioning = p.str()
		}
		if p.key(`"racks":`) {
			s.Racks = p.strs()
		}
		p.close()
		o.Cassandra = s
	}
	if p.key(`"region":`) {
		s := new(RegionSpec)
		p.open()
		if p.key(`"owner":`) {
			s.Owner = p.str()
		}
		if p.key(`"state":`) {
			s.State = wellKnown(p.str(), RegionOffline, RegionOpening, RegionOnline, RegionClosing)
		}
		p.close()
		o.Region = s
	}
	p.close()
	if p.bad || p.i != len(p.s) {
		return nil, false
	}
	return o, true
}
