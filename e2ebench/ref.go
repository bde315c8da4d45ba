package main

// The reference: a fixed JSON echo service built from the standard
// library alone, called between the timed calls to the program so the
// two share the host's speed from moment to moment.
//
// The 2-vCPU KVM guest this benchmark was tuned on changes speed under
// the program by up to 2x, in swings from under a second to many
// minutes long, with no code change: identical fleet-warm rounds ran at
// 17k to 36k rows/s within one 30 s run. No run length averages that
// away. Reference calls sized like the workload's own slow down with it
// (per round, log throughput against log host factor, below: slopes
// 0.84-1.07, correlations 0.98-1.00), so every timed figure is also
// restated as if the reference calls around it had taken their nominal
// time: the *_cal metrics. Over two sets of ten seeds their spread was
// 0.008-0.051 of the median, against 0.13-0.78 for the raw figures. The
// reference is the same on every commit, so a change to flagsim moves a
// calibrated figure as it moves the raw one.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// refSize sizes a workload's reference calls. scale multiplies the
// payload; nominal is the call time the calibrated metrics are restated
// to, about its mean on the host the benchmark was tuned on, so
// calibrated and raw figures read alike there.
type refSize struct {
	scale   int
	nominal time.Duration
}

// refShare is how much reference time each client spends per unit of
// timed program time: after every timed call it calls the reference
// until its reference time reaches refShare of its program time.
const refShare = 0.25

// refDoc is the reference's payload: a small record with the shapes
// flagsim's wire types have (strings, a cell list, a map and a list of
// timed steps).
type refDoc struct {
	Name  string            `json:"name"`
	Cells []int             `json:"cells"`
	Tags  map[string]string `json:"tags"`
	Steps []refStep         `json:"steps"`
}

type refStep struct {
	Worker int     `json:"worker"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Kind   string  `json:"kind"`
}

// reference is the echo service on a loopback port. Each call decodes
// the request, encodes it again, hashes the encoding and returns it with
// the hash in a header.
type reference struct {
	size refSize
	srv  *httptest.Server
	body []byte
	sum  string
}

func newReference(size refSize) *reference {
	d := refDoc{Name: "reference", Tags: map[string]string{}}
	for i := 0; i < 64*size.scale; i++ {
		d.Cells = append(d.Cells, i*7%13)
		d.Tags[fmt.Sprint("k", i%16)] = fmt.Sprint("v", i)
	}
	for i := 0; i < 24*size.scale; i++ {
		d.Steps = append(d.Steps, refStep{Worker: i % 4, Start: float64(i) * 1.5, End: float64(i)*1.5 + 1.25, Kind: "paint"})
	}
	body := mustJSON(d)
	sum := sha256.Sum256(body)
	ref := &reference{size: size, body: body, sum: hex.EncodeToString(sum[:])}
	ref.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in refDoc
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := mustJSON(in)
		sum := sha256.Sum256(out)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Sum", hex.EncodeToString(sum[:]))
		w.Write(out)
	}))
	return ref
}

func (r *reference) close() { r.srv.Close() }

// newClient returns a client with one connection of its own.
func (r *reference) newClient() *http.Client {
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// call makes one reference call and checks its reply.
func (r *reference) call(cl *http.Client) (time.Duration, error) {
	start := time.Now()
	resp, err := cl.Post(r.srv.URL, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	switch {
	case err != nil:
		return 0, err
	case resp.StatusCode != http.StatusOK || !bytes.Equal(body, r.body) || resp.Header.Get("X-Sum") != r.sum:
		return 0, fmt.Errorf("reference replied %d with %d bytes", resp.StatusCode, len(body))
	}
	return d, nil
}
