package wire

// Sweep replies written by append. Both daemons write their /v1/sweep
// body straight from what they hold per row (a memo record's summary on
// flagsimd, a stored result's on flagdispd) into one buffer, with no
// SweepRunRow strings in between and no reflection. The bytes are
// exactly json.Marshal's for the reply's envelope struct: the structs
// stay the documented shape and the tests' reference.

import (
	"encoding/hex"
	"encoding/json"
	"strconv"

	"flagsim/internal/sweep"
)

// sweepRowSize bounds a typical row's length: a builtin or generated
// spec's label, both counts and the digest take about 200 bytes.
const sweepRowSize = 256

// SweepBody returns an empty buffer for a sweep reply of rows rows,
// sized for its envelope and every row, so that a reply of usual rows
// never grows it.
func SweepBody(rows int) []byte { return make([]byte, 0, 192+rows*sweepRowSize) }

// AppendSweepRow appends one row of a sweep reply's runs array: the
// bytes json.Marshal writes for the SweepRunRow of spec's run. A nil
// err gives a row with sum's makespan, events and grid digest, a
// non-nil one a row with its message; either way the spec's label and
// hit lead.
func AppendSweepRow(b []byte, spec sweep.Spec, hit bool, sum sweep.Summary, err error) []byte {
	b = append(b, `{"spec":"`...)
	start := len(b)
	b = spec.AppendLabel(b)
	if !plainJSON(b[start:]) {
		label := string(b[start:])
		b = AppendJSONString(b[:start-1], label)
	} else {
		b = append(b, '"')
	}
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), hit)
	if err != nil {
		if msg := err.Error(); msg != "" {
			b = AppendJSONString(append(b, `,"err":`...), msg)
		}
		return append(b, '}')
	}
	if sum.Makespan != 0 {
		b = strconv.AppendInt(append(b, `,"makespan_ns":`...), int64(sum.Makespan), 10)
	}
	if sum.Events != 0 {
		b = strconv.AppendUint(append(b, `,"events":`...), sum.Events, 10)
	}
	b = hex.AppendEncode(append(b, `,"grid_sha256":"`...), sum.GridSHA256[:])
	return append(b, `"}`...)
}

// AppendJSONString appends s as encoding/json quotes it. Run IDs, spec
// labels and error messages are mostly printable ASCII that needs no
// escaping; a string with any other byte takes json.Marshal's path, so
// the bytes always match.
func AppendJSONString(b []byte, s string) []byte {
	if !plainJSON(s) {
		q, _ := json.Marshal(s)
		return append(b, q...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// plainJSON reports whether json.Marshal writes s between its quotes as
// is: printable ASCII with none of the characters it escapes.
func plainJSON[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
