// Package ingest turns real traffic — classic libpcap captures and
// CSV/JSONL flow logs — into the deterministic workload traces the
// experiments run on. It is dependency-free by design: the pcap framing,
// Ethernet/IPv4/TCP/UDP/ICMP header parsing, and active/idle-timeout
// flow extraction are implemented here against byte slices, in the style
// of go-flows' compact binary 5-tuple keys, so the whole pipeline works
// inside the repository's seeded, reproducible world.
//
// The pipeline is three stages:
//
//	ReadPcap / ReadFlowLog  →  []Packet        (parse)
//	Extractor               →  []FlowRecord    (active/idle-timeout flows)
//	BuildTrace              →  ingest.Result   (per-source collapse onto a
//	                                            flows.Universe + workload.Trace)
//
// Every stage is a pure function of its input bytes, so ingested traces
// are as replayable as the synthetic generators: the same capture always
// produces the same arrivals, and a recording spec can pin a capture by
// its SHA-256.
package ingest

import (
	"encoding/binary"
	"fmt"

	"flowrecon/internal/flows"
)

// Key is the compact binary 5-tuple flow key: src IP (4), dst IP (4),
// protocol (1), src port (2), dst port (2), all network byte order — the
// go-flows FiveTuple4 layout. For ICMP the type/code pair occupies the
// dst-port slot, mirroring go-flows, so echo requests and replies key
// separately from other ICMP chatter.
type Key [13]byte

// Field accessors over the packed layout.
func (k Key) Proto() uint8    { return k[8] }
func (k Key) SrcPort() uint16 { return binary.BigEndian.Uint16(k[9:11]) }
func (k Key) DstPort() uint16 { return binary.BigEndian.Uint16(k[11:13]) }

// Src returns the source address as the repository's IPv4 type.
func (k Key) Src() flows.IPv4 {
	return flows.IPv4(binary.BigEndian.Uint32(k[0:4]))
}

// Dst returns the destination address as the repository's IPv4 type.
func (k Key) Dst() flows.IPv4 {
	return flows.IPv4(binary.BigEndian.Uint32(k[4:8]))
}

// Tuple unpacks the key into the repository's FiveTuple form.
func (k Key) Tuple() flows.FiveTuple {
	return flows.FiveTuple{
		Src:     k.Src(),
		Dst:     k.Dst(),
		SrcPort: k.SrcPort(),
		DstPort: k.DstPort(),
		Proto:   flows.Proto(k.Proto()),
	}
}

// String renders the key like "tcp/10.0.1.2:443->10.0.1.16:8080".
func (k Key) String() string { return k.Tuple().String() }

// MakeKey packs a 5-tuple into the compact binary layout.
func MakeKey(src, dst flows.IPv4, proto flows.Proto, sport, dport uint16) Key {
	var k Key
	binary.BigEndian.PutUint32(k[0:4], uint32(src))
	binary.BigEndian.PutUint32(k[4:8], uint32(dst))
	k[8] = uint8(proto)
	binary.BigEndian.PutUint16(k[9:11], sport)
	binary.BigEndian.PutUint16(k[11:13], dport)
	return k
}

// Packet is one parsed capture record: the wall-clock timestamp in
// seconds (absolute, as captured), the flow key, and the original wire
// length in bytes.
type Packet struct {
	Time  float64
	Key   Key
	Bytes int
}

func (p Packet) String() string {
	return fmt.Sprintf("%.6f %s len=%d", p.Time, p.Key, p.Bytes)
}
