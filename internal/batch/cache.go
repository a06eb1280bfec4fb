package batch

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Key returns the content-addressed cache key for v: the hex SHA-256 of
// its canonical JSON encoding. Two specs hash equal exactly when their
// JSON-portable fields are equal, so callers should normalize (apply
// defaults) before hashing.
func Key(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("batch: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is an append-only JSONL store of successful results keyed by
// content-addressed spec hashes. Each line is a self-contained
// {"key":…,"value":…} record, so a run killed mid-write loses at most
// its final, partial line: Open cuts that line off and skips any other
// line that fails to parse.
type Cache struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string]json.RawMessage
}

type cacheLine struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Open loads the JSONL cache at path (creating it if absent) and opens
// it for appending. Later records win on duplicate keys.
func Open(path string) (*Cache, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("batch: opening cache: %w", err)
	}
	c := &Cache{f: f, entries: map[string]json.RawMessage{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	// Only newline-terminated lines are records. end is the offset past
	// the last newline; torn marks bytes after it, a write cut short.
	var end int64
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			end += int64(i + 1)
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			torn = true
			return len(data), nil, nil
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		var line cacheLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Key == "" {
			continue // corrupt or foreign line: ignore, don't fail the sweep
		}
		c.entries[line.Key] = line.Value
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("batch: reading cache: %w", err)
	}
	// Cut the torn tail, or the next Put would extend it into one
	// unparseable line and lose its own record on reload.
	if torn {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("batch: truncating torn cache tail: %w", err)
		}
	}
	return c, nil
}

// Get returns the cached value for key.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// Put records a completed result and appends it to the backing file
// immediately, so the entry survives a kill of the process.
func (c *Cache) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("batch: encoding result: %w", err)
	}
	line, err := json.Marshal(cacheLine{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("batch: encoding cache line: %w", err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("batch: appending to cache: %w", err)
	}
	c.entries[key] = raw
	return nil
}

// Len returns the number of distinct cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close releases the backing file.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
