package ingest

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"flowrecon/internal/flows"
)

func mustIP(t *testing.T, s string) flows.IPv4 {
	t.Helper()
	ip, err := flows.ParseIPv4(s)
	if err != nil {
		t.Fatalf("ParseIPv4(%q): %v", s, err)
	}
	return ip
}

func testPackets(t *testing.T) []Packet {
	t.Helper()
	a := mustIP(t, "10.0.0.1")
	b := mustIP(t, "10.0.0.2")
	c := mustIP(t, "192.168.1.7")
	return []Packet{
		{Time: 100.000250, Key: MakeKey(a, b, flows.ProtoTCP, 443, 51000), Bytes: 1500},
		{Time: 100.125000, Key: MakeKey(b, a, flows.ProtoTCP, 51000, 443), Bytes: 60},
		{Time: 101.500000, Key: MakeKey(c, a, flows.ProtoUDP, 53, 40000), Bytes: 120},
		{Time: 102.250000, Key: MakeKey(a, c, flows.ProtoICMP, 0, 8<<8), Bytes: 84},
	}
}

func TestKeyRoundTrip(t *testing.T) {
	src := mustIP(t, "10.1.2.3")
	dst := mustIP(t, "172.16.0.9")
	k := MakeKey(src, dst, flows.ProtoTCP, 443, 51234)
	if k.Src() != src || k.Dst() != dst {
		t.Fatalf("address round-trip: got %v->%v", k.Src(), k.Dst())
	}
	if k.Proto() != uint8(flows.ProtoTCP) || k.SrcPort() != 443 || k.DstPort() != 51234 {
		t.Fatalf("proto/ports round-trip: %d %d %d", k.Proto(), k.SrcPort(), k.DstPort())
	}
	tup := k.Tuple()
	if tup.Src != src || tup.DstPort != 51234 {
		t.Fatalf("Tuple: %+v", tup)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	pkts := testPackets(t)
	cases := []struct {
		name string
		opts WriteOptions
	}{
		{"big-micro", WriteOptions{}},
		{"little-micro", WriteOptions{LittleEndian: true}},
		{"big-nano", WriteOptions{Nano: true}},
		{"little-nano", WriteOptions{LittleEndian: true, Nano: true}},
		{"vlan-tagged", WriteOptions{LittleEndian: true, VLAN: 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WritePcap(&buf, pkts, tc.opts); err != nil {
				t.Fatalf("WritePcap: %v", err)
			}
			capt, err := ReadPcap(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadPcap: %v", err)
			}
			if capt.Skipped != 0 {
				t.Fatalf("skipped %d frames of a synthetic capture", capt.Skipped)
			}
			if capt.Nano != tc.opts.Nano {
				t.Fatalf("Nano = %v, want %v", capt.Nano, tc.opts.Nano)
			}
			if len(capt.Packets) != len(pkts) {
				t.Fatalf("got %d packets, want %d", len(capt.Packets), len(pkts))
			}
			res := 1e-6
			if tc.opts.Nano {
				res = 1e-9
			}
			for i, got := range capt.Packets {
				want := pkts[i]
				if got.Key != want.Key {
					t.Errorf("packet %d key: got %s want %s", i, got.Key, want.Key)
				}
				if math.Abs(got.Time-want.Time) > res {
					t.Errorf("packet %d time: got %.9f want %.9f (res %g)", i, got.Time, want.Time, res)
				}
				if got.Bytes != want.Bytes {
					t.Errorf("packet %d bytes: got %d want %d", i, got.Bytes, want.Bytes)
				}
			}
		})
	}
}

func TestReadPcapRejectsBadInput(t *testing.T) {
	pkts := testPackets(t)
	var good bytes.Buffer
	if err := WritePcap(&good, pkts, WriteOptions{LittleEndian: true}); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, err := ReadPcap(bytes.NewReader(bad)); err != ErrPcapMagic {
			t.Fatalf("got %v, want ErrPcapMagic", err)
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		if _, err := ReadPcap(bytes.NewReader(raw[:len(raw)-5])); err == nil {
			t.Fatal("truncated capture accepted")
		}
	})
	t.Run("bogus snaplen", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		// First record's inclLen field (little-endian) set past MaxSnapLen.
		bad[pcapFileHeader+8] = 0xff
		bad[pcapFileHeader+9] = 0xff
		bad[pcapFileHeader+10] = 0xff
		bad[pcapFileHeader+11] = 0x7f
		if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
			t.Fatal("bogus inclLen accepted")
		}
	})
	t.Run("non-ethernet link", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[20] = 101 // LINKTYPE_RAW, little-endian
		if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
			t.Fatal("non-Ethernet link accepted")
		}
	})
	t.Run("pcapng magic", func(t *testing.T) {
		// A pcapng Section Header Block: block type 0x0A0D0D0A, then
		// enough bytes to fill the 24-byte classic header read.
		ng := make([]byte, pcapFileHeader)
		ng[0], ng[1], ng[2], ng[3] = 0x0a, 0x0d, 0x0d, 0x0a
		_, err := ReadPcap(bytes.NewReader(ng))
		if !errors.Is(err, ErrPcapNG) {
			t.Fatalf("got %v, want ErrPcapNG", err)
		}
		if !strings.Contains(err.Error(), "tcpdump -r") {
			t.Fatalf("pcapng error should name the conversion command, got %q", err)
		}
		// Through the format-sniffing file entry point the same error must
		// surface instead of falling through to a flow-log CSV parse.
		path := t.TempDir() + "/capture.pcapng"
		if err := os.WriteFile(path, ng, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := IngestFile(path, IngestOptions{}); !errors.Is(err, ErrPcapNG) {
			t.Fatalf("IngestFile: got %v, want ErrPcapNG", err)
		}
	})
	t.Run("non-ipv4 frames skipped", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WritePcap(&buf, pkts[:1], WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		// Overwrite the ethertype with ARP: frame parses as non-IPv4.
		b[pcapFileHeader+pcapRecHeader+12] = 0x08
		b[pcapFileHeader+pcapRecHeader+13] = 0x06
		capt, err := ReadPcap(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("ReadPcap: %v", err)
		}
		if capt.Skipped != 1 || len(capt.Packets) != 0 {
			t.Fatalf("skipped=%d packets=%d, want 1/0", capt.Skipped, len(capt.Packets))
		}
	})
}

func TestReadPcapIntoReusesBuffers(t *testing.T) {
	pkts := testPackets(t)
	var buf bytes.Buffer
	if err := WritePcap(&buf, pkts, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	want, err := ReadPcap(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var c Capture
	for i := 0; i < 3; i++ {
		if err := ReadPcapInto(bytes.NewReader(raw), &c); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if !reflect.DeepEqual(c.Packets, want.Packets) || c.Skipped != want.Skipped ||
			c.SnapLen != want.SnapLen || c.Nano != want.Nano {
			t.Fatalf("pass %d: reused capture diverges from fresh parse", i)
		}
	}
	// A failed parse must still leave the capture reset, not holding the
	// previous file's packets.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if err := ReadPcapInto(bytes.NewReader(bad), &c); !errors.Is(err, ErrPcapMagic) {
		t.Fatalf("got %v, want ErrPcapMagic", err)
	}
	if len(c.Packets) != 0 {
		t.Fatalf("capture kept %d packets after failed parse", len(c.Packets))
	}
}

func TestParseFrameFragmentsAndTruncation(t *testing.T) {
	src := mustIP(t, "10.0.0.1")
	dst := mustIP(t, "10.0.0.2")
	k := MakeKey(src, dst, flows.ProtoTCP, 80, 9000)
	frame := BuildFrame(k, 0)

	t.Run("non-first fragment drops ports", func(t *testing.T) {
		frag := append([]byte(nil), frame...)
		frag[ethHeaderLen+6] = 0x00
		frag[ethHeaderLen+7] = 0x10 // fragment offset 16
		got, err := ParseFrame(frag)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if got.SrcPort() != 0 || got.DstPort() != 0 {
			t.Fatalf("fragment kept ports: %s", got)
		}
		if got.Src() != src || got.Proto() != uint8(flows.ProtoTCP) {
			t.Fatalf("fragment lost network fields: %s", got)
		}
	})
	t.Run("snapped transport drops ports", func(t *testing.T) {
		got, err := ParseFrame(frame[:ethHeaderLen+ipv4MinHeader+2])
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if got.SrcPort() != 0 || got.DstPort() != 0 {
			t.Fatalf("snapped frame kept ports: %s", got)
		}
	})
	t.Run("short frames error", func(t *testing.T) {
		for cut := 0; cut < ethHeaderLen+ipv4MinHeader; cut++ {
			if _, err := ParseFrame(frame[:cut]); err == nil {
				t.Fatalf("frame cut to %d bytes parsed", cut)
			}
		}
	})
	t.Run("vlan stack bounded", func(t *testing.T) {
		deep := make([]byte, ethHeaderLen+4*(maxVLANTags+1))
		for i := 0; i <= maxVLANTags; i++ {
			deep[12+4*i] = 0x81
			deep[13+4*i] = 0x00
		}
		if _, err := ParseFrame(deep); err == nil {
			t.Fatal("unbounded VLAN stack parsed")
		}
	})
}

func TestExtractorTimeouts(t *testing.T) {
	a := mustIP(t, "10.0.0.1")
	b := mustIP(t, "10.0.0.2")
	k1 := MakeKey(a, b, flows.ProtoTCP, 1, 2)
	k2 := MakeKey(b, a, flows.ProtoUDP, 3, 4)

	t.Run("idle timeout splits flows", func(t *testing.T) {
		recs, err := ExtractFlows([]Packet{
			{Time: 0, Key: k1, Bytes: 10},
			{Time: 1, Key: k1, Bytes: 10},
			{Time: 30, Key: k1, Bytes: 10}, // > idle 15s after t=1: new flow
		}, 120, 15)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("got %d flows, want 2: %+v", len(recs), recs)
		}
		if recs[0].Reason != EndIdle || recs[0].Packets != 2 || recs[0].End != 1 {
			t.Fatalf("first flow: %+v", recs[0])
		}
		if recs[1].Reason != EndOfTrace || recs[1].Start != 30 {
			t.Fatalf("second flow: %+v", recs[1])
		}
	})
	t.Run("active timeout cuts long flows", func(t *testing.T) {
		var pkts []Packet
		for ts := 0.0; ts <= 10; ts++ {
			pkts = append(pkts, Packet{Time: ts, Key: k1, Bytes: 1})
		}
		recs, err := ExtractFlows(pkts, 5, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 2 {
			t.Fatalf("active timeout never cut: %+v", recs)
		}
		if recs[0].Reason != EndActive {
			t.Fatalf("first cut reason = %v, want active", recs[0].Reason)
		}
		if recs[0].End-recs[0].Start > 5 {
			t.Fatalf("flow exceeded active timeout: %+v", recs[0])
		}
	})
	t.Run("interleaved flows stay separate", func(t *testing.T) {
		recs, err := ExtractFlows([]Packet{
			{Time: 0, Key: k1, Bytes: 1},
			{Time: 0.5, Key: k2, Bytes: 2},
			{Time: 1, Key: k1, Bytes: 1},
			{Time: 1.5, Key: k2, Bytes: 2},
		}, 120, 15)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("got %d flows, want 2", len(recs))
		}
		if recs[0].Key != k1 || recs[0].Bytes != 2 || recs[1].Key != k2 || recs[1].Bytes != 4 {
			t.Fatalf("flow accounting: %+v", recs)
		}
	})
	t.Run("time regression rejected", func(t *testing.T) {
		e := NewExtractor(0, 0)
		if err := e.Observe(Packet{Time: 5, Key: k1}); err != nil {
			t.Fatal(err)
		}
		if err := e.Observe(Packet{Time: 4, Key: k2}); err == nil {
			t.Fatal("time regression accepted")
		}
	})
	t.Run("flush resets", func(t *testing.T) {
		e := NewExtractor(0, 0)
		if err := e.Observe(Packet{Time: 1, Key: k1}); err != nil {
			t.Fatal(err)
		}
		if got := len(e.Flush()); got != 1 {
			t.Fatalf("first flush: %d flows", got)
		}
		if e.Open() != 0 {
			t.Fatalf("open after flush: %d", e.Open())
		}
		// Time may restart after a flush.
		if err := e.Observe(Packet{Time: 0, Key: k1}); err != nil {
			t.Fatalf("post-flush observe: %v", err)
		}
	})
}

func TestReadFlowLog(t *testing.T) {
	csv := `time,src,dst,proto,sport,dport,packets,bytes
# exported 2026-01-01
3.5,10.0.0.2,10.0.0.1,udp,53,40000,1,120
1.0,10.0.0.1,10.0.0.2,tcp,443,51000,10,15000
`
	jsonl := `{"time":3.5,"src":"10.0.0.2","dst":"10.0.0.1","proto":"udp","sport":53,"dport":40000,"bytes":120}
{"time":1.0,"src":"10.0.0.1","dst":"10.0.0.2","proto":"6","sport":443,"dport":51000,"bytes":15000}
`
	for _, tc := range []struct {
		name, in string
	}{{"csv", csv}, {"jsonl", jsonl}} {
		t.Run(tc.name, func(t *testing.T) {
			pkts, err := ReadFlowLog(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ReadFlowLog: %v", err)
			}
			if len(pkts) != 2 {
				t.Fatalf("got %d records, want 2", len(pkts))
			}
			if pkts[0].Time != 1.0 || pkts[1].Time != 3.5 {
				t.Fatalf("not sorted by time: %+v", pkts)
			}
			if pkts[0].Key.Proto() != uint8(flows.ProtoTCP) || pkts[0].Key.SrcPort() != 443 {
				t.Fatalf("first record key: %s", pkts[0].Key)
			}
			if pkts[0].Bytes != 15000 {
				t.Fatalf("first record bytes: %d", pkts[0].Bytes)
			}
		})
	}

	t.Run("bad lines error", func(t *testing.T) {
		for _, in := range []string{
			"1.0,10.0.0.1,10.0.0.2,tcp,443\n",             // too few fields
			"x,10.0.0.1,10.0.0.2,tcp,443,1\n",             // bad time
			"1.0,10.0.0.1,10.0.0.2,tcp,99999,1\n",         // bad port
			"1.0,10.0.0.1,10.0.0.2,frob,443,1\n",          // bad proto
			"1.0,300.0.0.1,10.0.0.2,tcp,443,1\n",          // bad address
			`{"time":1,"src":"10.0.0.1","dst":"x"` + "\n", // bad json
		} {
			if _, err := ReadFlowLog(strings.NewReader(in)); err == nil {
				t.Errorf("accepted %q", in)
			}
		}
	})
}

func TestBuildTrace(t *testing.T) {
	a := mustIP(t, "10.0.0.1")
	b := mustIP(t, "10.0.0.2")
	c := mustIP(t, "10.0.0.3")
	recs := []FlowRecord{
		{Key: MakeKey(a, b, flows.ProtoTCP, 1, 2), Start: 100},
		{Key: MakeKey(a, c, flows.ProtoTCP, 3, 4), Start: 101},
		{Key: MakeKey(a, b, flows.ProtoUDP, 5, 6), Start: 104},
		{Key: MakeKey(b, a, flows.ProtoTCP, 7, 8), Start: 102},
		{Key: MakeKey(b, a, flows.ProtoTCP, 9, 10), Start: 103},
		{Key: MakeKey(c, a, flows.ProtoTCP, 11, 12), Start: 110},
	}
	res, err := BuildTrace(recs, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sources != 3 || res.Flows != 6 || res.Dropped != 0 {
		t.Fatalf("counts: %+v", res)
	}
	// Class 0 is the busiest source (a, 3 flows), then b (2), then c (1).
	if res.Universe.Name(0) != "src(10.0.0.1)" || res.Universe.Name(1) != "src(10.0.0.2)" || res.Universe.Name(2) != "src(10.0.0.3)" {
		t.Fatalf("class ranking: %v %v %v", res.Universe.Name(0), res.Universe.Name(1), res.Universe.Name(2))
	}
	if res.Duration != 10 {
		t.Fatalf("duration = %v, want 10", res.Duration)
	}
	arr := res.Trace.Arrivals()
	if len(arr) != 6 || arr[0].Time != 0 {
		t.Fatalf("arrivals: %+v", arr)
	}
	wantRates := []float64{0.3, 0.2, 0.1}
	for i, r := range res.Rates {
		if math.Abs(r-wantRates[i]) > 1e-12 {
			t.Fatalf("rates = %v, want %v", res.Rates, wantRates)
		}
	}

	t.Run("class cap drops tail sources", func(t *testing.T) {
		capped, err := BuildTrace(recs, TraceOptions{MaxClasses: 2})
		if err != nil {
			t.Fatal(err)
		}
		if capped.Universe.Size() != 2 || capped.Dropped != 1 {
			t.Fatalf("cap: classes=%d dropped=%d", capped.Universe.Size(), capped.Dropped)
		}
	})
	t.Run("deterministic across runs", func(t *testing.T) {
		again, err := BuildTrace(recs, TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Rates, res.Rates) || !reflect.DeepEqual(again.Trace.Arrivals(), res.Trace.Arrivals()) {
			t.Fatal("BuildTrace not deterministic")
		}
	})
	t.Run("empty input errors", func(t *testing.T) {
		if _, err := BuildTrace(nil, TraceOptions{}); err == nil {
			t.Fatal("empty input accepted")
		}
	})
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	pkts := testPackets(t)
	res, err := IngestPackets(pkts, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()
	tr, rates, err := ReadTraceJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Arrivals(), res.Trace.Arrivals()) {
		t.Fatalf("arrivals round-trip: %+v vs %+v", tr.Arrivals(), res.Trace.Arrivals())
	}
	if !reflect.DeepEqual(rates, res.Rates) {
		t.Fatalf("rates round-trip: %v vs %v", rates, res.Rates)
	}
	var again bytes.Buffer
	if err := WriteTraceJSONL(&again, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("WriteTraceJSONL not byte-deterministic")
	}
}

func TestIngestFileSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	pkts := testPackets(t)

	pcapPath := dir + "/capture.pcap"
	var capture bytes.Buffer
	if err := WritePcap(&capture, pkts, WriteOptions{LittleEndian: true}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pcapPath, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromPcap, err := IngestFile(pcapPath, IngestOptions{})
	if err != nil {
		t.Fatalf("IngestFile(pcap): %v", err)
	}
	if fromPcap.Flows == 0 {
		t.Fatal("pcap ingest produced no flows")
	}

	logPath := dir + "/flows.csv"
	csv := "time,src,dst,proto,sport,dport,packets,bytes\n1.0,10.0.0.1,10.0.0.2,tcp,443,51000,10,15000\n"
	if err := os.WriteFile(logPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	fromLog, err := IngestFile(logPath, IngestOptions{})
	if err != nil {
		t.Fatalf("IngestFile(csv): %v", err)
	}
	if fromLog.Flows != 1 {
		t.Fatalf("csv ingest: %d flows, want 1", fromLog.Flows)
	}
}
