package service

import (
	"encoding/json"
	"strconv"

	"flowrecon/internal/experiment"
)

// Probe and verdict lines are the bulk of a session stream, so they are
// append-encoded into one reused buffer rather than reflected through
// encoding/json. The bytes must equal what json.Encoder writes for the
// line shapes
//
//	{"type":"probe","trial":T,"attacker":A,"i":I,"flow":F,"outcome":O[,"lost":true]}
//	{"type":"verdict","trial":T,"attacker":A,"verdict":V,"truth":U,"correct":C}
//
// each ending in a newline; stream_test.go holds the structs and checks
// the two encodings agree byte for byte.

// quoteName returns name as json.Encoder quotes it (HTML-escaped, invalid
// UTF-8 replaced, U+2028/U+2029 escaped).
func quoteName(name string) []byte {
	q, _ := json.Marshal(name) // a string always marshals
	return q
}

// appendProbeLine appends one probe line; attacker is the quoted name.
func appendProbeLine(b []byte, trial int, attacker []byte, i, flow int, hit, lost bool) []byte {
	b = append(b, `{"type":"probe","trial":`...)
	b = strconv.AppendInt(b, int64(trial), 10)
	b = append(b, `,"attacker":`...)
	b = append(b, attacker...)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, int64(flow), 10)
	b = append(b, `,"outcome":"`...)
	b = append(b, hitMiss(hit)...)
	if lost {
		b = append(b, `","lost":true}`+"\n"...)
	} else {
		b = append(b, `"}`+"\n"...)
	}
	return b
}

// appendVerdictLine appends one verdict line; attacker is the quoted name.
func appendVerdictLine(b []byte, trial int, attacker []byte, verdict, truth bool) []byte {
	b = append(b, `{"type":"verdict","trial":`...)
	b = strconv.AppendInt(b, int64(trial), 10)
	b = append(b, `,"attacker":`...)
	b = append(b, attacker...)
	b = append(b, `,"verdict":"`...)
	b = append(b, presence(verdict)...)
	b = append(b, `","truth":"`...)
	b = append(b, presence(truth)...)
	b = append(b, `","correct":`...)
	b = strconv.AppendBool(b, verdict == truth)
	b = append(b, "}\n"...)
	return b
}

// trialEncoder renders a session's trials. Each roster name is quoted
// once per session; the buffer is reused from trial to trial.
type trialEncoder struct {
	quoted [][]byte // JSON-quoted attacker names, in roster order
	buf    []byte
}

func newTrialEncoder(names []string) *trialEncoder {
	e := &trialEncoder{quoted: make([][]byte, len(names))}
	for j, n := range names {
		e.quoted[j] = quoteName(n)
	}
	return e
}

// encode renders one trial's probe and verdict lines, in roster order,
// and returns them; the slice is valid until the next call. The result's
// attackers are index-aligned with the roster (a TrialRunner contract).
func (e *trialEncoder) encode(res experiment.TrialResult) []byte {
	b := e.buf[:0]
	for j, att := range res.Attackers {
		q := e.quoted[j]
		for i, f := range att.Probes {
			hit := i < len(att.Outcomes) && att.Outcomes[i]
			lost := i < len(att.Lost) && att.Lost[i]
			b = appendProbeLine(b, res.Trial, q, i, int(f), hit, lost)
		}
		b = appendVerdictLine(b, res.Trial, q, att.Verdict, res.Truth)
	}
	e.buf = b
	return b
}
