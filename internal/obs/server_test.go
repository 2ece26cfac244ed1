package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"zerorefresh/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// TestHandlerEndpoints walks every read endpoint on a live plane and
// checks status, content type, and that deterministic bodies are
// byte-identical across two requests.
func TestHandlerEndpoints(t *testing.T) {
	plane := newTestPlane()
	plane.Registry.Counter("core.windows").Add(3)
	sink := plane.TraceSink("rank0", nil)
	sink.Emit(trace.Event{Kind: trace.KindRetentionViolation, Time: 100, Row: 1})
	plane.InstallWatchdog([]Rule{{Name: "w", Metric: "core.windows", Above: true, Threshold: 0}}, 1)

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	cases := []struct {
		path        string
		contentType string
		contains    string
	}{
		{"/", "text/plain; charset=utf-8", "/metrics"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "zr_core_windows 3"},
		{"/metrics.json", "application/json", "\"core.windows\""},
		{"/healthz", "application/json", "{\"ok\":true,\"done\":false}"},
		{"/progress", "application/json", "\"sim_time_ns\":"},
		{"/flight", "application/json", "dram.retention_violation"},
		{"/flight/status", "application/json", "\"armed\":true"},
		{"/alerts", "application/json", "\"rules\":["},
		{"/debug/pprof/", "", "profiles"},
		{"/debug/vars", "", "memstats"},
	}
	for _, tc := range cases {
		status, body, ct := get(t, srv, tc.path)
		if status != 200 {
			t.Errorf("GET %s = %d, want 200", tc.path, status)
			continue
		}
		if body == "" {
			t.Errorf("GET %s returned an empty body", tc.path)
		}
		if tc.contentType != "" && ct != tc.contentType {
			t.Errorf("GET %s Content-Type = %q, want %q", tc.path, ct, tc.contentType)
		}
		if !strings.Contains(body, tc.contains) {
			t.Errorf("GET %s body does not contain %q:\n%s", tc.path, tc.contains, body)
		}
		// Deterministic endpoints: same state, same bytes.
		if tc.path != "/debug/pprof/" && tc.path != "/debug/vars" {
			_, again, _ := get(t, srv, tc.path)
			if again != body {
				t.Errorf("GET %s is not byte-deterministic across requests", tc.path)
			}
		}
	}

	if status, _, _ := get(t, srv, "/no/such/path"); status != 404 {
		t.Errorf("GET /no/such/path = %d, want 404", status)
	}
}

// TestHandlerFlightArmDisarm drives the recorder control endpoints.
func TestHandlerFlightArmDisarm(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	if _, body, _ := get(t, srv, "/flight/status"); !strings.Contains(body, "\"armed\":false") {
		t.Fatalf("fresh recorder reports %s, want disarmed", body)
	}
	if _, body, _ := get(t, srv, "/flight/arm"); !strings.Contains(body, "\"armed\":true") {
		t.Fatalf("arm endpoint reports %s, want armed", body)
	}
	if !plane.Recorder.Armed() {
		t.Fatal("recorder not armed after /flight/arm")
	}
	if _, body, _ := get(t, srv, "/flight/disarm"); !strings.Contains(body, "\"armed\":false") {
		t.Fatalf("disarm endpoint reports %s, want disarmed", body)
	}
}

// TestHandlerHealthzDone checks MarkDone flips the advertised done flag.
func TestHandlerHealthzDone(t *testing.T) {
	plane := newTestPlane()
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	if _, body, _ := get(t, srv, "/healthz"); !strings.Contains(body, "\"done\":false") {
		t.Fatalf("healthz before done: %s", body)
	}
	plane.MarkDone()
	if _, body, _ := get(t, srv, "/healthz"); !strings.Contains(body, "\"done\":true") {
		t.Fatalf("healthz after MarkDone: %s", body)
	}
	if _, body, _ := get(t, srv, "/progress"); !strings.Contains(body, "\"done\":true") {
		t.Fatalf("progress after MarkDone: %s", body)
	}
}

// TestHandlerAlerts fires a watchdog rule and checks the /alerts JSON
// carries the rule state and the retained alert.
func TestHandlerAlerts(t *testing.T) {
	plane := newTestPlane()
	c := plane.Registry.Counter("dram.decay_events")
	wd := plane.InstallWatchdog([]Rule{{Name: "viol", Metric: "dram.decay_events", Above: true, Threshold: 0}}, 1)
	c.Add(2)
	wd.Tick(1, 500)

	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()
	_, body, _ := get(t, srv, "/alerts")

	var doc struct {
		Rules []struct {
			Rule   string `json:"rule"`
			Fired  int64  `json:"fired"`
			Firing bool   `json:"firing"`
		} `json:"rules"`
		Alerts []struct {
			Rule   string  `json:"rule"`
			Window int64   `json:"window"`
			TimeNS int64   `json:"time_ns"`
			Value  float64 `json:"value"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/alerts is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Rules) != 1 || doc.Rules[0].Fired != 1 || !doc.Rules[0].Firing {
		t.Fatalf("/alerts rules = %+v, want one fired+firing rule", doc.Rules)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].Rule != "viol" || doc.Alerts[0].Window != 1 ||
		doc.Alerts[0].TimeNS != 500 || doc.Alerts[0].Value != 2 {
		t.Fatalf("/alerts alerts = %+v", doc.Alerts)
	}

	// The alert also landed in the flight ring (alerts record even while
	// the recorder is disarmed).
	if plane.Recorder.Recorded() != 1 {
		t.Errorf("alert did not land in the flight ring (recorded=%d)", plane.Recorder.Recorded())
	}
}

// TestHandlerTailStream streams events through /trace/tail with a kind
// filter and a max, checking NDJSON framing and filtering.
func TestHandlerTailStream(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	sink := plane.TraceSink("rank0", nil)
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace/tail?kind=refresh.skipped&max=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("tail Content-Type = %q", got)
	}

	// Publish once the subscriber is registered (Subscribe happens before
	// the handler writes headers, so poll for it).
	go func() {
		for plane.Tail.Subscribers() == 0 {
			runtime.Gosched()
		}
		sink.Emit(trace.Event{Kind: trace.KindRefreshIssued, Time: 1}) // filtered out
		sink.Emit(trace.Event{Kind: trace.KindRefreshSkipped, Time: 2, A: 7})
		sink.Emit(trace.Event{Kind: trace.KindRefreshSkipped, Time: 3, A: 8})
	}()

	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("tail streamed %d lines, want 2 (max=2):\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, line := range lines {
		var ev struct {
			Kind   string `json:"kind"`
			TimeNS int64  `json:"time_ns"`
			A      int64  `json:"a"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("tail line %d is not JSON: %v\n%s", i, err, line)
		}
		if ev.Kind != "refresh.skipped" {
			t.Errorf("tail line %d kind %q escaped the filter", i, ev.Kind)
		}
	}
}

// TestHandlerMetricsMatchesWriter checks /metrics serves exactly what
// WritePrometheus renders for the same registry state.
func TestHandlerMetricsMatchesWriter(t *testing.T) {
	plane := newTestPlane()
	plane.Registry.Counter("a.b").Add(9)
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	_, body, _ := get(t, srv, "/metrics")
	var want bytes.Buffer
	if err := WritePrometheus(&want, plane.Registry.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("/metrics body differs from WritePrometheus output")
	}
}
