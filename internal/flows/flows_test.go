package flows

import (
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want IPv4
		ok   bool
	}{
		{"10.0.1.0", MakeIPv4(10, 0, 1, 0), true},
		{"255.255.255.255", MakeIPv4(255, 255, 255, 255), true},
		{"0.0.0.0", 0, true},
		{"10.0.1", 0, false},
		{"10.0.1.256", 0, false},
		{"a.b.c.d", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseIPv4(%q) err = %v", c.in, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseIPv4(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoICMP.String() != "icmp" || ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("bad proto names")
	}
	if Proto(99).String() != "99" {
		t.Fatal("bad unknown proto name")
	}
}

func TestUniverse(t *testing.T) {
	u := NewUniverse()
	ta := FiveTuple{Src: MakeIPv4(10, 0, 1, 0), Dst: MakeIPv4(10, 0, 1, 16), Proto: ProtoICMP}
	tb := FiveTuple{Src: MakeIPv4(10, 0, 1, 1), Dst: MakeIPv4(10, 0, 1, 16), Proto: ProtoICMP}
	a := u.Add("a", ta)
	b := u.Add("b", tb)
	if a == b {
		t.Fatal("distinct tuples share an ID")
	}
	if again := u.Add("a2", ta); again != a {
		t.Fatal("re-adding a tuple minted a new ID")
	}
	if u.Size() != 2 {
		t.Fatalf("size = %d", u.Size())
	}
	if got, ok := u.Lookup(tb); !ok || got != b {
		t.Fatal("lookup failed")
	}
	if _, ok := u.Lookup(FiveTuple{}); ok {
		t.Fatal("lookup of unregistered tuple succeeded")
	}
	if u.Tuple(a) != ta || u.Name(a) != "a" {
		t.Fatal("tuple/name accessors broken")
	}
}

func TestClientServerUniverse(t *testing.T) {
	u := ClientServerUniverse(MakeIPv4(10, 0, 1, 0), 16)
	if u.Size() != 16 {
		t.Fatalf("size = %d", u.Size())
	}
	for i := 0; i < 16; i++ {
		tup := u.Tuple(ID(i))
		if tup.Src != MakeIPv4(10, 0, 1, byte(i)) {
			t.Errorf("flow %d src = %v", i, tup.Src)
		}
		if tup.Dst != MakeIPv4(10, 0, 1, 16) {
			t.Errorf("flow %d dst = %v", i, tup.Dst)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := SetOf(1, 3, 70)
	if s.Len() != 3 || !s.Contains(70) || s.Contains(2) {
		t.Fatalf("set = %v", s)
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 2 {
		t.Fatalf("after remove: %v", s)
	}
	s.Remove(200) // out of range: must not panic
	if s.String() != "{1,70}" {
		t.Fatalf("String = %q", s.String())
	}
	var zero Set
	if !zero.Empty() || zero.Len() != 0 {
		t.Fatal("zero set not empty")
	}
	zero.Add(5)
	if !zero.Contains(5) {
		t.Fatal("zero set did not grow")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := SetOf(0, 1, 2, 65)
	b := SetOf(2, 3, 65)
	if u := a.Union(b); u.Len() != 5 || !u.Contains(3) {
		t.Fatalf("union = %v", u)
	}
	if !a.Overlaps(b) || a.Overlaps(SetOf(99)) {
		t.Fatal("overlaps broken")
	}
	c := a.Clone()
	c.SubtractInPlace(b)
	if !c.Equal(SetOf(0, 1)) {
		t.Fatalf("SubtractInPlace = %v", c)
	}
	c.UnionInPlace(b)
	if !c.Equal(SetOf(0, 1, 2, 3, 65)) {
		t.Fatalf("UnionInPlace = %v", c)
	}
	// Clone must be independent.
	d := a.Clone()
	d.Add(7)
	if a.Contains(7) {
		t.Fatal("clone aliased original")
	}
}

func TestSetEqualDifferentLengths(t *testing.T) {
	a := SetOf(1)
	b := NewSet(200)
	b.Add(1)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equality should ignore trailing zero words")
	}
	b.Add(150)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("sets differing in a high word compare equal")
	}
}

func TestSetIDsAndForEach(t *testing.T) {
	s := SetOf(5, 1, 64)
	ids := s.IDs()
	want := []ID{1, 5, 64}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestSumRates(t *testing.T) {
	rates := []float64{0.5, 1, 2, 4}
	s := SetOf(0, 2)
	if got := s.SumRates(rates); got != 2.5 {
		t.Fatalf("SumRates = %v", got)
	}
	var empty Set
	if got := empty.SumRates(rates); got != 0 {
		t.Fatalf("empty SumRates = %v", got)
	}
}

func TestSetPropertyDeMorgan(t *testing.T) {
	// (a ∪ b) \ c == (a\c) ∪ (b\c) over a small universe.
	f := func(aw, bw, cw uint16) bool {
		mk := func(w uint16) Set {
			var s Set
			for i := 0; i < 16; i++ {
				if w&(1<<uint(i)) != 0 {
					s.Add(ID(i))
				}
			}
			return s
		}
		minus := func(s, t Set) Set {
			out := s.Clone()
			out.SubtractInPlace(t)
			return out
		}
		a, b, c := mk(aw), mk(bw), mk(cw)
		left := minus(a.Union(b), c)
		right := minus(a, c).Union(minus(b, c))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSetPropertyLenUnion(t *testing.T) {
	// |a ∪ b| = |b| + |a \ b|.
	f := func(aw, bw uint32) bool {
		mk := func(w uint32) Set {
			var s Set
			for i := 0; i < 32; i++ {
				if w&(1<<uint(i)) != 0 {
					s.Add(ID(i))
				}
			}
			return s
		}
		a, b := mk(aw), mk(bw)
		aOnly := a.Clone()
		aOnly.SubtractInPlace(b)
		return a.Union(b).Len() == b.Len()+aOnly.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
