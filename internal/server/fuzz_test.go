package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cata"
)

// FuzzAdmission drives catad's admission path with arbitrary request
// bodies: the handlers' own decode (1 MB limit, unknown fields
// rejected) and, for run configs, RunConfig.Validate. Nothing may
// panic, and a config admission accepts must be a fixed point: encoding
// it, decoding that with the same decoder and encoding again gives the
// same bytes, so the config a job reports is the config it ran. A sweep
// is checked as decoded and never expanded with Configs(): its
// workloads × policies × fast_cores × seeds product has no cap.
func FuzzAdmission(f *testing.F) {
	for _, name := range []string{"run_config", "run_config_minimal", "matrix_config"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "formats", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload":"dedup","fast_cores":64}`))
	f.Add([]byte(`{"workload":"dot:file=/etc/passwd","scale":0}`))
	f.Add([]byte(`{"workloads":["chain:sidedur=NaN"],"policies":["CATS+BL:theta=2"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var run cata.RunConfig
		if decodeRequest(body, &run) == nil && run.Validate() == nil {
			requireFixedPoint(t, run)
		}
		var sweep cata.MatrixConfig
		if decodeRequest(body, &sweep) == nil {
			requireFixedPoint(t, sweep)
		}
	})
}

// decodeRequest decodes body the way a POST handler does.
func decodeRequest(body []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// requireFixedPoint checks encode → decode → encode on an admitted
// config.
func requireFixedPoint[T any](t *testing.T, v T) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encoding admitted %+v: %v", v, err)
	}
	var again T
	if err := decodeRequest(first, &again); err != nil {
		t.Fatalf("admitted config %s does not decode again: %v", first, err)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("admitted config is not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
	}
}
