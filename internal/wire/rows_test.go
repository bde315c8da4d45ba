package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
)

// refRow is the SweepRunRow the daemons marshaled for a row before they
// wrote rows by append: the reference AppendSweepRow must reproduce.
func refRow(spec sweep.Spec, hit bool, sum sweep.Summary, err error) SweepRunRow {
	row := SweepRunRow{Spec: spec.Label(), CacheHit: hit}
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.MakespanNS, row.Events = int64(sum.Makespan), sum.Events
	row.GridSHA256 = hex.EncodeToString(sum.GridSHA256[:])
	return row
}

// TestSweepRowMatchesMarshal: a row written by append is byte for byte
// json.Marshal of its SweepRunRow, for ok and failed rows, hits and
// misses, zero makespan and events, fault labels, and labels and errors
// holding every kind of character encoding/json escapes.
func TestSweepRowMatchesMarshal(t *testing.T) {
	heavy, err := fault.Preset("heavy", 3)
	if err != nil {
		t.Fatal(err)
	}
	digest := [32]byte{0: 0xab, 31: 0x01}
	specs := []sweep.Spec{
		{Flag: "mauritius", Kind: implement.ThickMarker, Seed: 1},
		{Exec: sweep.ExecDynamic, Flag: "gen:v1:7:3", Workers: 3, Policy: sim.PullColorAffinity, Seed: 18446744073709551615},
		{Exec: sweep.ExecSteal, Flag: "jordan", Scenario: core.S4Pipelined, PerColor: 3, Kind: implement.Crayon, Faults: heavy},
		{Flag: `a"b\c`}, {Flag: "a<b>c&d"}, {Flag: "line\u2028sep\u2029"}, {Flag: "tab\tnl\n\x00"},
		{Flag: "bad\xffutf8\xc3"}, {Flag: "del\x7f \u00e9 \U0001F600"}, {Exec: sweep.Exec(9), Flag: "x"},
	}
	sums := []sweep.Summary{
		{Makespan: 123456789 * time.Nanosecond, Events: 4321, GridSHA256: digest},
		{},
		{Makespan: -5, Events: 1},
		{Events: 18446744073709551615},
	}
	errs := []error{nil, errors.New("engine: no <implement> & \u2028 for \xff"), errors.New(""), errors.New(`quote " and \ back`)}
	for _, spec := range specs {
		for _, hit := range []bool{false, true} {
			for _, sum := range sums {
				for _, rowErr := range errs {
					got := AppendSweepRow([]byte("prefix"), spec, hit, sum, rowErr)
					want, err := json.Marshal(refRow(spec, hit, sum, rowErr))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, append([]byte("prefix"), want...)) {
						t.Errorf("row %q %v %+v %v:\n got  %s\n want prefix%s", spec.Flag, hit, sum, rowErr, got, want)
					}
				}
			}
		}
	}
}

// TestAppendJSONStringMatchesMarshal: strings are quoted as json.Marshal
// quotes them, escapes included.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain/ascii=1", `a"b\c`, "a<b", "a>b", "a&b", "tab\there", "del\x7f", "\u00e9 ", "bad\xffutf8", "\u2028\u2029", "\x00\x1f"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("%q: got %s, want x%s", s, got, want)
		}
	}
}

// FuzzSweepRows writes a small sweep's rows, derived from the fuzzed
// fields, with AppendSweepRow and compares them with json.Marshal of the
// equivalent []SweepRunRow: any flag string, any enum values, any sizes,
// any summary and any error message.
func FuzzSweepRows(f *testing.F) {
	f.Add("mauritius", uint8(0), uint8(0), 4, uint8(1), 1, uint64(1), int64(200e9), uint64(96), []byte("digest"), "", uint8(1))
	f.Add("gen:v1:7:3", uint8(2), uint8(3), 3, uint8(3), 2, uint64(9), int64(0), uint64(0), []byte{}, "boom <&> \u2028", uint8(3))
	f.Add("bad\xff<flag>&\u2028", uint8(7), uint8(9), -1, uint8(200), -4, uint64(0), int64(-1), uint64(1), []byte{0xff}, "\xff\x00", uint8(2))
	f.Fuzz(func(t *testing.T, flag string, exec, scen uint8, workers int, kind uint8, perColor int, seed uint64,
		makespan int64, events uint64, digest []byte, errMsg string, rows uint8) {
		n := int(rows%4) + 1
		specs := make([]sweep.Spec, n)
		sums := make([]sweep.Summary, n)
		errs := make([]error, n)
		want := make([]SweepRunRow, n)
		for i := range specs {
			specs[i] = sweep.Spec{Exec: sweep.Exec(exec), Flag: strings.Repeat(flag, i+1), Scenario: core.ScenarioID(scen),
				Workers: workers + i, Kind: implement.Kind(kind), PerColor: perColor, Seed: seed + uint64(i)}
			sums[i] = sweep.Summary{Makespan: time.Duration(makespan) * time.Duration(i), Events: events >> i}
			copy(sums[i].GridSHA256[:], digest)
			sums[i].GridSHA256[i] ^= byte(i)
			if i%2 == 1 || (n == 1 && errMsg != "") {
				errs[i] = errors.New(errMsg)
			}
			want[i] = refRow(specs[i], i%3 == 0, sums[i], errs[i])
		}
		b := []byte{'['}
		for i := range specs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendSweepRow(b, specs[i], i%3 == 0, sums[i], errs[i])
		}
		b = append(b, ']')
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("rows\n %s\nwant\n %s", b, ref)
		}
	})
}
