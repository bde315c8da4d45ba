package dist

import (
	"errors"
	"testing"

	"flagsim/internal/wire"
)

// FuzzDistWireDecode hammers every fabric decode surface with arbitrary
// bytes. The contract is uniform: decode never panics, and every
// rejection is typed ErrWire (handlers rely on that to answer 4xx rather
// than crash or 500 on garbage from the network or a tampered journal).
func FuzzDistWireDecode(f *testing.F) {
	job, err := NewJob(wire.RunRequest{Flag: "mauritius", Scenario: 2, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	spec, _ := job.Req.Spec()
	res, err := spec.RunOnce(nil)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := wire.MarshalResult(res)
	if err != nil {
		f.Fatal(err)
	}

	// Seed with every valid payload shape plus near-misses.
	f.Add([]byte(`{"key":"` + job.KeyHex + `","req":{"flag":"mauritius","scenario":2,"seed":7}}`))
	f.Add([]byte(`{"name":"w1","slots":4}`))
	f.Add([]byte(`{"worker_id":"abc","ttl_ms":1000}`))
	f.Add([]byte(`{"lease_id":"abc","ttl_ms":1000}`))
	f.Add([]byte(`{"lease_id":"a","worker_id":"b","key":"` + job.KeyHex + `","err":"boom"}`))
	f.Add(enc)
	f.Add([]byte(`{"key":"0000","req":{}}`))
	f.Add([]byte(`{"v":1,"makespan_ns":1,"setup_ns":0,"faults":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	// A stored record whose grid digest is not 64 hex digits.
	f.Add([]byte(`{"strategy":"s","makespan_ns":1,"setup_ns":0,"events":2,"grid_sha256":"00"}`))
	// A valid payload followed by more bytes is rejected as a whole.
	for _, tail := range []string{`{"seed":1}`, ` x`, `}`, `]`} {
		raw := []byte(`{"name":"w1","slots":4}` + tail)
		f.Add(raw)
		if _, err := DecodeRegister(raw); !errors.Is(err, ErrWire) {
			f.Errorf("register payload with trailing %q: err = %v, want ErrWire", tail, err)
		}
	}

	// A report from a worker that still attaches its engine spans: the
	// trace is ignored, not rejected.
	oldReport := []byte(`{"lease_id":"a","worker_id":"b","key":"` + job.KeyHex + `","result":` + string(enc) +
		`,"trace":{"worker":"w1","procs":["P1"],"spans":[{"proc":0,"name":"paint red","cat":"paint","start_ns":0,"dur_ns":5,"args":{"cell":"(0,0)"}}]}}`)
	f.Add(oldReport)
	if _, err := DecodeReport(oldReport); err != nil {
		f.Errorf("report with an old-style trace: %v, want accepted", err)
	}

	check := func(t *testing.T, name string, err error) {
		if err != nil && !errors.Is(err, ErrWire) {
			t.Errorf("%s: rejection not typed ErrWire: %v", name, err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if j, err := DecodeJob(raw); err == nil {
			// An accepted job must have a self-consistent key.
			if _, kerr := ParseKey(j.KeyHex); kerr != nil {
				t.Errorf("accepted job has bad key %q", j.KeyHex)
			}
		} else {
			check(t, "DecodeJob", err)
		}
		_, err := DecodeRegister(raw)
		check(t, "DecodeRegister", err)
		_, err = DecodeLease(raw)
		check(t, "DecodeLease", err)
		_, err = DecodeRenew(raw)
		check(t, "DecodeRenew", err)
		_, err = DecodeReport(raw)
		check(t, "DecodeReport", err)
		if e, err := decodeResult(raw); err == nil {
			// An accepted stored result serves exactly the stored bytes,
			// and its row carries a digest the tier can read back.
			if string(e.payload) != string(raw) {
				t.Errorf("accepted result serves %q, stored %q", e.payload, raw)
			}
			if _, err := ParseKey(e.gridSHA256); err != nil {
				t.Errorf("accepted result has grid digest %q: %v", e.gridSHA256, err)
			}
		} else {
			check(t, "decodeResult", err)
		}
	})
}
