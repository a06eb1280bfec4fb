package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// cpuLayers are the layers whose share of CPU samples is reported, by
// the package that owns each sample's leaf frame: the simulator's
// packages, the root API, and the standard-library packages the service
// path spends its time in.
var cpuLayers = []string{
	"workloads", "exp", "rts", "sim", "tdg", "sched", "policies",
	"machine", "energy", "rsm", "cpufreq", "rsu", "turbo", "opensys",
	"batch", "jobs", "server", "json", "net_http",
}

// cpuProfile is a CPU profile folded by layer.
type cpuProfile struct {
	Samples int64
	// Leaf counts samples by the layer of their leaf frame.
	Leaf map[string]int64
	// GC counts samples with a garbage-collector frame on the stack;
	// Malloc those with runtime.mallocgc on the stack and no GC frame.
	GC, Malloc int64
}

// share returns n as a percentage of all samples.
func (p cpuProfile) share(n int64) float64 {
	if p.Samples == 0 {
		return 0
	}
	return 100 * float64(n) / float64(p.Samples)
}

// foldProfile folds a pprof CPU profile with the toolchain's
// `go tool pprof -raw`, which ships with Go.
func foldProfile(path string) (cpuProfile, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-raw", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuProfile{}, fmt.Errorf("go tool pprof -raw %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseRaw(bytes.NewReader(out))
}

var (
	rawSample   = regexp.MustCompile(`^\s*(\d+)\s+\d+:\s*([\d ]*)$`)
	rawLocation = regexp.MustCompile(`^\s*(\d+):\s+0x[0-9a-f]+(?:\s+M=\d+)?\s*(\S*)`)
	rawInlined  = regexp.MustCompile(`^\s+(\S+)\s+\S+:\d+`)
)

// parseRaw folds the text `go tool pprof -raw` prints: a Samples
// section of "count value: location-ids" lines (leaf first), then a
// Locations section where each location lists its function, followed by
// the functions inlined into it on indented lines.
func parseRaw(r io.Reader) (cpuProfile, error) {
	type sample struct {
		n    int64
		locs []int
	}
	var samples []sample
	funcs := map[int][]string{} // location → functions, leaf first
	section, lastLoc := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			m := rawSample.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			n, _ := strconv.ParseInt(m[1], 10, 64)
			var locs []int
			for _, f := range strings.Fields(m[2]) {
				id, _ := strconv.Atoi(f)
				locs = append(locs, id)
			}
			samples = append(samples, sample{n, locs})
		case "Locations":
			if m := rawLocation.FindStringSubmatch(line); m != nil {
				lastLoc, _ = strconv.Atoi(m[1])
				funcs[lastLoc] = []string{m[2]}
			} else if m := rawInlined.FindStringSubmatch(line); m != nil && lastLoc != 0 {
				funcs[lastLoc] = append(funcs[lastLoc], m[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return cpuProfile{}, err
	}
	p := cpuProfile{Leaf: map[string]int64{}}
	for _, s := range samples {
		p.Samples += s.n
		leaf := ""
		gc, malloc := false, false
		for _, id := range s.locs {
			for _, fn := range funcs[id] {
				if leaf == "" {
					leaf = fn
				}
				gc = gc || strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
				malloc = malloc || fn == "runtime.mallocgc"
			}
		}
		p.Leaf[layerOf(leaf)] += s.n
		switch {
		case gc:
			p.GC += s.n
		case malloc:
			p.Malloc += s.n
		}
	}
	return p, nil
}

// layerOf maps a function name to its layer: cata/internal/<layer>
// packages by their name, the root package as "cata", encoding/json as
// "json", net/http as "net_http", the runtime as "runtime", and
// everything else as "other".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiations can carry '/' in their type list
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "cata/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "cata/internal/"), "/")
		return name
	case pkg == "cata", pkg == "runtime":
		return pkg
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http", strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	}
	return "other"
}
