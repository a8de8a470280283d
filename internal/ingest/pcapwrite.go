package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteOptions configures WritePcap.
type WriteOptions struct {
	// LittleEndian writes the byte-swapped file variant (the common
	// x86 tcpdump output). False writes big-endian.
	LittleEndian bool
	// Nano writes nanosecond-resolution timestamps.
	Nano bool
	// SnapLen is the recorded snap length (default 65535).
	SnapLen uint32
	// VLAN wraps every frame in an 802.1Q tag with this VID when > 0.
	VLAN uint16
}

// WritePcap renders packets as a classic libpcap capture: synthetic
// Ethernet framing around real IPv4/TCP/UDP/ICMP headers rebuilt from
// each packet's key. It is the write half the tests, fixtures and fuzz
// corpus use — ReadPcap(WritePcap(pkts)) round-trips keys, timestamps
// (at the chosen resolution) and lengths exactly.
func WritePcap(w io.Writer, packets []Packet, opts WriteOptions) error {
	if opts.SnapLen == 0 {
		opts.SnapLen = 65535
	}
	var order binary.ByteOrder = binary.BigEndian
	if opts.LittleEndian {
		order = binary.LittleEndian
	}
	magic := uint32(magicMicro)
	if opts.Nano {
		magic = magicNano
	}
	var hdr [pcapFileHeader]byte
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], 2) // version major
	order.PutUint16(hdr[6:8], 4) // version minor
	order.PutUint32(hdr[16:20], opts.SnapLen)
	order.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ingest: write pcap header: %w", err)
	}
	var rec [pcapRecHeader]byte
	for i, p := range packets {
		frame := BuildFrame(p.Key, opts.VLAN)
		sec, frac := splitTime(p.Time, opts.Nano)
		order.PutUint32(rec[0:4], sec)
		order.PutUint32(rec[4:8], frac)
		order.PutUint32(rec[8:12], uint32(len(frame)))
		origLen := uint32(p.Bytes)
		if origLen < uint32(len(frame)) {
			origLen = uint32(len(frame))
		}
		order.PutUint32(rec[12:16], origLen)
		if _, err := w.Write(rec[:]); err != nil {
			return fmt.Errorf("ingest: write record %d: %w", i, err)
		}
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("ingest: write record %d payload: %w", i, err)
		}
	}
	return nil
}

// splitTime decomposes an absolute float64 timestamp into the pcap
// record's (seconds, fraction) pair at the chosen resolution.
func splitTime(t float64, nano bool) (sec, frac uint32) {
	if t < 0 {
		t = 0
	}
	s := math.Floor(t)
	scale := 1e6
	if nano {
		scale = 1e9
	}
	f := math.Round((t - s) * scale)
	if f >= scale {
		s++
		f = 0
	}
	return uint32(s), uint32(f)
}

// BuildFrame rebuilds a minimal valid Ethernet+IPv4 frame for a key: a
// synthetic MAC layer (optionally 802.1Q-tagged), a 20-byte IPv4 header
// with correct version/IHL/fragment fields, and the first transport
// bytes the key's ports/ICMP type came from. ParseFrame(BuildFrame(k))
// always returns k.
func BuildFrame(k Key, vlan uint16) []byte {
	var trLen int
	switch k.Proto() {
	case 6, 17:
		trLen = 8 // ports + the rest of a minimal UDP header shape
	case 1:
		trLen = 4 // ICMP type, code, checksum
	default:
		trLen = 0
	}
	ethLen := ethHeaderLen
	if vlan > 0 {
		ethLen += 4
	}
	frame := make([]byte, ethLen+ipv4MinHeader+trLen)
	// Synthetic MACs derived from the addresses keep frames distinct.
	copy(frame[0:6], []byte{2, 0, k[4], k[5], k[6], k[7]})
	copy(frame[6:12], []byte{2, 0, k[0], k[1], k[2], k[3]})
	off := 12
	if vlan > 0 {
		binary.BigEndian.PutUint16(frame[off:], etherTypeVLAN)
		binary.BigEndian.PutUint16(frame[off+2:], vlan&0x0fff)
		off += 4
	}
	binary.BigEndian.PutUint16(frame[off:], etherTypeIPv4)
	off += 2

	ip := frame[off:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipv4MinHeader+trLen))
	ip[8] = 64 // TTL
	ip[9] = k.Proto()
	copy(ip[12:16], k[0:4])
	copy(ip[16:20], k[4:8])

	tr := ip[ipv4MinHeader:]
	switch k.Proto() {
	case 6, 17:
		copy(tr[0:2], k[9:11])
		copy(tr[2:4], k[11:13])
	case 1:
		copy(tr[0:2], k[11:13])
	}
	return frame
}
