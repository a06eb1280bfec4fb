package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestCacheRecordFormat: result-cache lines written by an earlier build
// — one per reconfiguration module (CATA's RSM, the RSU, TurboMode, the
// multi-level RSU) and one open-system run — still decode into
// Measurement, re-encode to the same bytes, and sit under the key their
// spec hashes to. A field renamed, moved or dropped would make an
// existing cache serve zeroed values under an unchanged key.
func TestCacheRecordFormat(t *testing.T) {
	raw, err := os.ReadFile("testdata/cache_records.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("%d cache records, want 5", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Key   string          `json:"key"`
			Value json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		var m Measurement
		if err := json.Unmarshal(rec.Value, &m); err != nil {
			t.Fatal(err)
		}
		t.Run(m.Spec.String(), func(t *testing.T) {
			got, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, rec.Value) {
				t.Errorf("record does not round-trip:\ncached:     %s\nre-encoded: %s", rec.Value, got)
			}
			if key, ok := cacheKey(m.Spec); !ok || key != rec.Key {
				t.Errorf("cache key = %q (cacheable %v), record sits under %q", key, ok, rec.Key)
			}
		})
	}
}
