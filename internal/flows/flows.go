// Package flows defines the flow-identifier universe over which rules and
// the Markov models operate.
//
// The paper identifies a flow by its IP-header 5-tuple; its evaluation
// (§VI-A) collapses that to one flow class per source address. This package
// supports both views: a concrete 5-tuple type (used by the OpenFlow and
// network-simulation substrates) and a dense integer index space with bitset
// flow sets (used by the rule algebra and the Markov models, where speed of
// set operations dominates).
package flows

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is the dense index of a flow class within a Universe.
type ID int

// Proto is an IP protocol number. Only the protocols the substrates need
// are named.
type Proto uint8

// Supported protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return strconv.Itoa(int(p))
	}
}

// IPv4 is an IPv4 address in host byte order.
type IPv4 uint32

// MakeIPv4 assembles an address from its dotted-quad octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIPv4 parses a dotted-quad string.
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("flows: bad IPv4 %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("flows: bad IPv4 octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IPv4(ip), nil
}

// String renders the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// FiveTuple is a concrete flow identifier: the IP-header fields a rule may
// match on.
type FiveTuple struct {
	Src     IPv4
	Dst     IPv4
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String implements fmt.Stringer.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s/%s:%d->%s:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// Universe is a registry of flow classes. It assigns each registered
// 5-tuple a dense ID so the models can treat flows as small integers and
// coverage sets as bitsets.
type Universe struct {
	byTuple map[FiveTuple]ID
	tuples  []FiveTuple
	names   []string
}

// NewUniverse returns an empty flow universe.
func NewUniverse() *Universe {
	return &Universe{byTuple: make(map[FiveTuple]ID)}
}

// Add registers a flow class and returns its ID. Re-adding an identical
// tuple returns the existing ID.
func (u *Universe) Add(name string, t FiveTuple) ID {
	if id, ok := u.byTuple[t]; ok {
		return id
	}
	id := ID(len(u.tuples))
	u.byTuple[t] = id
	u.tuples = append(u.tuples, t)
	u.names = append(u.names, name)
	return id
}

// Lookup returns the ID of the flow class for t, if registered.
func (u *Universe) Lookup(t FiveTuple) (ID, bool) {
	id, ok := u.byTuple[t]
	return id, ok
}

// Size returns the number of registered flow classes.
func (u *Universe) Size() int { return len(u.tuples) }

// Tuple returns the 5-tuple of flow id.
func (u *Universe) Tuple(id ID) FiveTuple { return u.tuples[id] }

// Name returns the human-readable name of flow id.
func (u *Universe) Name(id ID) string { return u.names[id] }

// ClientServerUniverse builds the paper's evaluation universe (§VI-A):
// nhosts flows, one per contiguous source address starting at base, all
// destined to the host one past the last source (10.0.1.16 in the paper),
// carried over ICMP.
func ClientServerUniverse(base IPv4, nhosts int) *Universe {
	u := NewUniverse()
	dst := base + IPv4(nhosts)
	for i := 0; i < nhosts; i++ {
		src := base + IPv4(i)
		u.Add(fmt.Sprintf("f%d(%s)", i, src), FiveTuple{Src: src, Dst: dst, Proto: ProtoICMP})
	}
	return u
}
