package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// foldProfile attributes every CPU sample of the profile at path to one
// module and returns each module's percentage of the samples, with the
// sample count. It shells out to `go tool pprof -traces`, which prints each
// distinct stack with its sample count, innermost frame first.
func foldProfile(path string) (map[string]float64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	counts, total, err := foldTraces(out)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(counts))
	for m, n := range counts {
		shares[m] = 100 * float64(n) / float64(total)
	}
	return shares, total, nil
}

// foldTraces parses `pprof -traces` output. A stack belongs to the module
// of its innermost repository frame: zerorefresh/internal/<pkg> names
// <pkg>, and this package's own frames (package main) name "bench". A
// stack with no repository frame belongs to "runtime".
func foldTraces(text []byte) (map[string]int64, int64, error) {
	counts := make(map[string]int64)
	var total, n int64
	owner, inStack, first := "", false, false
	flush := func() {
		if !inStack || first {
			return
		}
		if owner == "" {
			owner = "runtime"
		}
		counts[owner] += n
		total += n
	}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			owner, inStack, first = "", true, true
			continue
		}
		fields := strings.Fields(line)
		if !inStack || len(fields) == 0 {
			continue
		}
		if first {
			v, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad stack head %q", line)
			}
			n, fields, first = v, fields[1:], false
		}
		if owner == "" {
			owner = moduleOf(fields[0])
		}
	}
	flush()
	return counts, total, nil
}

// moduleOf returns the repository module a function belongs to, or "" for
// the standard library and runtime.
func moduleOf(fn string) string {
	const internal = "zerorefresh/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}
