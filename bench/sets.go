package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is the root BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSets is the self-check: every workload runs in two sets of k timed
// runs of the declared run_seconds, each run its own process, alternating
// which set goes first. Run i of both sets uses seed i+1, so each set spans
// k seeds and the two sets differ only by host noise. It prints each set's median and quartiles per
// metric and judges them against the declared bounds: the two medians must
// differ by less than the bound, and each set's quartile spread must stay
// within it (set-up time excepted).
func runSets(ws []*workloadSpec, k int, specPath, out string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	seconds := spec.RunSeconds
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range ws {
		var sets [2][]map[string]float64
		for i := 0; i < k; i++ {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				vals, err := childRun(exe, w.name, uint64(i+1), seconds, out)
				if err != nil {
					return fmt.Errorf("%s set %c run %d: %w", w.name, 'A'+set, i+1, err)
				}
				sets[set] = append(sets[set], vals)
			}
		}
		fmt.Printf("== %s: 2 sets x %d runs, %d s each ==\n", w.name, k, seconds)
		fmt.Printf("%-10s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s  %s\n",
			"metric", "A median", "A q1", "A q3", "A iqr%", "B median", "B q1", "B q3", "B iqr%", "diff%", "bound%", "verdict")
		for _, m := range spec.EndToEnd {
			var med, spread [2]float64
			var q1, q3 [2]float64
			for s := range sets {
				xs := make([]float64, len(sets[s]))
				for i, v := range sets[s] {
					xs[i] = v[m.Name]
				}
				med[s] = median(xs)
				q1[s], q3[s] = quartiles(xs)
				spread[s] = ratio(q3[s]-q1[s], med[s])
			}
			diff := ratio(math.Abs(med[1]-med[0]), med[0])
			verdict := "PASS"
			if diff >= m.Bound {
				verdict = "FAIL"
			}
			if m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound) {
				verdict = "FAIL"
			}
			if verdict == "FAIL" {
				failed++
			} else if spread[0] > m.Bound/3 || spread[1] > m.Bound/3 {
				verdict = "PASS (spread above bound/3)"
			}
			fmt.Printf("%-10s %12.6g %12.6g %12.6g %8.2f | %12.6g %12.6g %12.6g %8.2f | %8.2f %6.0f  %s\n",
				m.Name, med[0], q1[0], q3[0], 100*spread[0], med[1], q1[1], q3[1], 100*spread[1], 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs outside their bounds", failed)
	}
	return nil
}

// childRun runs one timed run of this binary and returns its metric values;
// a run whose outputs were not all correct is an error.
func childRun(exe, workload string, seed uint64, seconds int, out string) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%d of %d repetitions failed: %s", r.Failed, r.Attempted, stderr.String())
	}
	vals := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		vals[k] = v.Value
	}
	return vals, nil
}
