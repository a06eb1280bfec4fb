package cata_test

// Wire-format goldens: every public type catad reads or writes is
// encoded, compared byte for byte with a committed file under
// testdata/formats, decoded back from that file and re-encoded to the
// same bytes. The files change only when the wire format does; a
// refactor of the types behind them must leave this test untouched.
// The served-bytes test below holds the daemon to the same encoding.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cata"
	"cata/internal/server"
)

// formatT0 anchors every timestamp in the goldens.
var formatT0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func formatClosedResult() cata.Result {
	return cata.Result{
		Makespan:            9809962 * time.Nanosecond,
		Joules:              0.125,
		EDP:                 0.00122625,
		TasksRun:            512,
		CriticalTasks:       64,
		ReconfigOps:         128,
		ReconfigLatencyAvg:  11209 * time.Nanosecond,
		ReconfigLatencyMax:  25600 * time.Nanosecond,
		MaxLockWait:         22600 * time.Nanosecond,
		ReconfigOverheadPct: 0.5,
		Transitions:         130,
		Inversions:          3,
		StaticBindingEvents: 2,
		AvgUtilization:      0.75,
	}
}

func formatOpenResult() cata.Result {
	return cata.Result{
		Makespan:      7584701 * time.Nanosecond,
		Joules:        0.04,
		EDP:           0.0003,
		TasksRun:      120,
		CriticalTasks: 24,
		Open: &cata.OpenResult{
			Process:        "poisson:lambda=2000,jobs=40,deadline=2ms,cap=4,window=2ms",
			JobsArrived:    40,
			JobsCompleted:  38,
			JobsShed:       2,
			DeadlineMissed: 5,
			MissRate:       0.125,
			PeakInSystem:   4,
			MeanResponse:   264867 * time.Nanosecond,
			P50:            201326 * time.Nanosecond,
			P99:            402653 * time.Nanosecond,
			P999:           402653 * time.Nanosecond,
			MaxResponse:    341743 * time.Nanosecond,
			TailEDP:        0.0000161,
			Windows: []cata.OpenWindow{
				{Start: 0, End: 2 * time.Millisecond, Completed: 4,
					P50: 402653 * time.Nanosecond, P99: 402653 * time.Nanosecond, P999: 402653 * time.Nanosecond},
				{Start: 4 * time.Millisecond, End: 6 * time.Millisecond, Completed: 34,
					P50: 201326 * time.Nanosecond, P99: 402653 * time.Nanosecond, P999: 402653 * time.Nanosecond},
			},
		},
	}
}

// wireFormats lists the pinned types: each value's encoding must equal
// testdata/formats/<name>.json, and that file must decode into the
// value's type and re-encode to itself.
func wireFormats() []struct {
	name  string
	value any
} {
	closed, open := formatClosedResult(), formatOpenResult()
	runCfg := cata.RunConfig{Workload: "dedup", Policy: cata.PolicyCATA, FastCores: 8, Scale: 0.05}
	return []struct {
		name  string
		value any
	}{
		{"run_config", cata.RunConfig{
			Workload: "layered:seed=7,width=16,depth=32", Policy: cata.Policy("CATS+BL:theta=0.8"),
			FastCores: 16, Cores: 32, Seed: 42, Scale: 0.5,
			TransitionLatency: 10 * time.Microsecond,
			Arrivals:          "poisson:lambda=2000,jobs=40,deadline=5ms",
			Trace:             true, TimelineWidth: 80,
		}},
		{"run_config_minimal", cata.RunConfig{Workload: "dedup"}},
		{"matrix_config", cata.MatrixConfig{
			Policies:  []cata.Policy{cata.PolicyFIFO, cata.PolicyCATA, cata.Policy("AMTHA:tiebreak=spread")},
			FastCores: []int{8, 16},
			Workloads: []string{"dedup", "layered:width=4"},
			Cores:     32,
			Seeds:     []uint64{42, 1337},
			Scale:     0.1,
		}},
		{"result_closed", closed},
		{"result_open", open},
		{"policies", cata.PolicyDocs()},
		{"workloads", cata.Workloads()},
		{"job_status", cata.JobStatus{
			ID: "job-000001", Kind: "sweep", Label: "3 runs", State: cata.JobSucceeded,
			Submitted: formatT0, Started: formatT0.Add(time.Millisecond), Finished: formatT0.Add(5 * time.Millisecond),
			Events: 6,
			Result: &cata.ServiceResult{
				Results: []cata.JobOutcome{
					{Config: runCfg, Result: &closed},
					{Config: runCfg, Cached: true, Result: &open},
					{Config: cata.RunConfig{Workload: "trace:file=missing.json"}, Error: "open missing.json: no such file or directory"},
				},
				Cached: 1,
				Failed: 1,
			},
		}},
		{"job_status_queued", cata.JobStatus{
			ID: "job-000002", Kind: "run", Label: "dedup/CATA/fast=8", State: cata.JobQueued,
			Submitted: formatT0, Events: 1,
		}},
		{"job_event_state", cata.JobEvent{
			Seq: 5, Time: formatT0.Add(5 * time.Millisecond), Type: "state",
			State: cata.JobFailed, Error: "context canceled",
		}},
		{"job_event_progress", cata.JobEvent{
			Seq: 2, Time: formatT0.Add(2 * time.Millisecond), Type: "progress",
			Progress: &cata.JobProgress{
				Done: 2, Total: 3, Cached: 1, Spec: "dedup/CATA/fast=8",
				ElapsedMS: 12, ETAMS: 6, Note: "best EDP 0.0012 Js (dedup/CATA/fast=8)",
			},
		}},
	}
}

// encodeIndented encodes v the way catad writes a response body.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWireFormats(t *testing.T) {
	for _, tc := range wireFormats() {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "formats", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeIndented(t, tc.value); !bytes.Equal(got, golden) {
				t.Errorf("encoding drifted from the golden:\ngot:\n%s\nwant:\n%s", got, golden)
			}
			decoded := reflect.New(reflect.TypeOf(tc.value))
			if err := json.Unmarshal(golden, decoded.Interface()); err != nil {
				t.Fatalf("golden does not decode into %T: %v", tc.value, err)
			}
			if got := encodeIndented(t, decoded.Elem().Interface()); !bytes.Equal(got, golden) {
				t.Errorf("decode→encode does not reproduce the golden:\ngot:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// TestServedBytesRoundTrip: the bodies catad serves for a finished job
// — GET /v1/jobs/{id}, GET /v1/jobs and every SSE event — decode into
// the client's types and re-encode to exactly the bytes served.
func TestServedBytesRoundTrip(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := cata.NewServiceClient(ts.URL, nil)
	ctx := context.Background()

	st, err := c.SubmitRun(ctx, cata.RunConfig{Workload: "dedup", Policy: cata.PolicyCATA, FastCores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.Result == nil {
		t.Fatalf("job = %+v, %v", final, err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return body
	}

	body := get("/v1/jobs/" + st.ID)
	var one cata.JobStatus
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if got := encodeIndented(t, one); !bytes.Equal(got, body) {
		t.Errorf("GET /v1/jobs/{id} body does not round-trip:\nserved:\n%s\nre-encoded:\n%s", body, got)
	}

	body = get("/v1/jobs")
	var all []cata.JobStatus
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if got := encodeIndented(t, all); !bytes.Equal(got, body) {
		t.Errorf("GET /v1/jobs body does not round-trip:\nserved:\n%s\nre-encoded:\n%s", body, got)
	}

	events := 0
	sc := bufio.NewScanner(bytes.NewReader(get("/v1/jobs/" + st.ID + "/events")))
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e cata.JobEvent
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Errorf("SSE event does not round-trip:\nserved:     %s\nre-encoded: %s", data, got)
		}
		events++
	}
	if events < 3 {
		t.Fatalf("event stream carried %d events, want queued, running, progress and a terminal state", events)
	}
}
