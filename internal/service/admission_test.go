package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAdmissionRejectsBadMachineAndWindows: a request whose machine or
// windows cannot run is a 400 naming the field, with no job created and
// no queue slot taken — it must never reach a worker and resolve as a
// panic.
func TestAdmissionRejectsBadMachineAndWindows(t *testing.T) {
	srv := New(Options{Workers: 1, Logf: t.Logf})
	defer srv.Drain()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	for _, tc := range []struct{ body, field string }{
		{`{"workload":"Pmake","ncpu":-3}`, "ncpu"},
		{`{"workload":"Pmake","window":-5}`, "window"},
		{`{"workload":"Pmake","warmup":-1}`, "warmup"},
	} {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode error body: %v", tc.body, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, tc.field) {
			t.Errorf("%s: error %q does not name the field %q", tc.body, eb.Error, tc.field)
		}
	}
	if st := srv.Stats(); st.Accepted != 0 || st.QueueLen != 0 {
		t.Errorf("rejected requests changed the server: %+v", st)
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Errorf("rejected requests created %d jobs", n)
	}

	// Zero still means "default" for every numeric field.
	if _, err := (Request{Workload: "Pmake"}).Config(); err != nil {
		t.Errorf("all-default request rejected: %v", err)
	}
}

// TestJobMetricsLeaderOnly: /v1/metrics lists each job's Mcycles/s, and
// a dedup follower honestly reports zero — it executed nothing.
func TestJobMetricsLeaderOnly(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	defer srv.Drain()
	ctx := context.Background()

	st, err := cl.Submit(ctx, smallReq(32))
	if err != nil || st.State != StateDone {
		t.Fatalf("leader: st=%+v err=%v", st, err)
	}
	// Same config again: a pure cache hit that reports no execution
	// stats of its own.
	st2, err := cl.Submit(ctx, smallReq(32))
	if err != nil || st2.State != StateDone {
		t.Fatalf("follower: st=%+v err=%v", st2, err)
	}
	if st2.Report != st.Report {
		t.Error("dedup follower got a different report than the leader")
	}
	if st2.MCyclesPerSec != 0 {
		t.Errorf("follower inherited execution stats it never earned: %+v", st2)
	}

	m := srv.Metrics()
	if len(m.Jobs) != 2 {
		t.Fatalf("metrics list %d jobs, want 2", len(m.Jobs))
	}
	if m.Jobs[0].MCyclesPerSec <= 0 {
		t.Errorf("leader metrics %+v: want positive throughput", m.Jobs[0])
	}
	if m.Jobs[1].MCyclesPerSec != 0 {
		t.Errorf("follower metrics %+v: want zero execution stats", m.Jobs[1])
	}
}
