package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer boots a started server on a fresh cache dir behind an
// httptest listener. The pinned version keeps cache keys stable within a
// test while isolating tests from each other via the temp dir.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{CacheDir: t.TempDir(), Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postSpec(t *testing.T, base, body string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("unmarshal job view: %v (%s)", err, b)
		}
	}
	return v, resp.StatusCode
}

func awaitDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v JobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("unmarshal: %v (%s)", err, b)
		}
		switch v.State {
		case StateDone:
			return v
		case StateFailed, StateCanceled:
			t.Fatalf("job %s reached %s (%s)", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, b)
	}
	return b
}

// The acceptance criterion: submitting an identical spec twice returns
// byte-identical results, with the second submission served from the cache
// without scheduling any simulation world — witnessed by the store's
// hit/miss counters and the hit job's zeroed progress.
func TestIdenticalSpecSecondSubmissionServedFromCache(t *testing.T) {
	srv, ts := newTestServer(t)

	first, status := postSpec(t, ts.URL, `{"custom":{"net":"iwarp","benchmark":"latency","size":4,"iters":5}}`)
	if status != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", status)
	}
	if first.Cached {
		t.Fatal("first submission of a fresh spec claims cached")
	}
	done := awaitDone(t, ts.URL, first.ID)
	if done.Cached {
		t.Fatal("simulated job reports cached")
	}
	bodyA := fetchResult(t, ts.URL, first.ID)

	// Same spec, scrambled field order and whitespace, explicit default
	// (iters) untouched — must canonicalize to the same key.
	second, status := postSpec(t, ts.URL,
		"{\n  \"custom\": { \"iters\": 5,\t\"size\": 4, \"benchmark\": \"latency\", \"net\": \"iwarp\" }\n}")
	if status != http.StatusOK {
		t.Fatalf("second submission: status %d, want 200 (cache hit)", status)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission cached=%v state=%s, want cached done", second.Cached, second.State)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the first job's ID")
	}
	if second.SpecHash != first.SpecHash || second.Key != first.Key {
		t.Fatalf("canonicalization split the key: %s vs %s", second.Key, first.Key)
	}
	if second.Progress.Worlds != 0 || second.Progress.Batches != 0 {
		t.Fatalf("cache hit scheduled simulation worlds: %+v", second.Progress)
	}

	bodyB := fetchResult(t, ts.URL, second.ID)
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("results differ: %d vs %d bytes\nA: %s\nB: %s", len(bodyA), len(bodyB), bodyA, bodyB)
	}

	stats := srv.Store().Stats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("store counters hits=%d misses=%d, want exactly 1/1", stats.Hits, stats.Misses)
	}

	var res Result
	if err := json.Unmarshal(bodyA, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Version != "test-v1" || res.Table == "" || len(res.CSVs) == 0 || len(res.Metrics) == 0 {
		t.Fatalf("result payload incomplete: version=%q table=%dB csvs=%d metrics=%dB",
			res.Version, len(res.Table), len(res.CSVs), len(res.Metrics))
	}
}

// The shards field is an execution hint excluded from the cache key, so a
// warm cache serves a shards-1 submission the bytes a shards-0 run stored.
// That is only sound if a cold shards-1 run computes those same bytes. The
// world is the 64-rank MXoE leaf-spine Alltoall, where trunk contention
// makes the fabric's forwarding order visible in the result.
func TestShardsHintCacheHitMatchesColdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank collective worlds in -short")
	}
	const custom = `"custom":{"net":"mxoe","benchmark":"alltoall","ranks":64,"size":4096,"iters":8,"topology":{"hosts_per_leaf":8,"spines":4}}`
	run := func(base, body string) (JobView, []byte) {
		v, status := postSpec(t, base, body)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %s: status %d", body, status)
		}
		v = awaitDone(t, base, v.ID)
		return v, fetchResult(t, base, v.ID)
	}

	_, warm := newTestServer(t)
	first, stored := run(warm.URL, `{"shards":0,`+custom+`}`)
	if first.Cached {
		t.Fatal("first submission to a fresh store claims cached")
	}
	hit, served := run(warm.URL, `{"shards":1,`+custom+`}`)
	if !hit.Cached {
		t.Fatal("shards-1 resubmission missed the warm cache")
	}
	_, cold := newTestServer(t)
	fresh, computed := run(cold.URL, `{"shards":1,`+custom+`}`)
	if fresh.Cached {
		t.Fatal("submission to a second fresh store claims cached")
	}
	if !bytes.Equal(stored, served) {
		t.Fatalf("cache hit differs from the stored result:\nstored: %s\nserved: %s", stored, served)
	}
	if !bytes.Equal(stored, computed) {
		t.Fatalf("cold shards-1 run differs from the shards-0 result the cache serves:\nshards 0: %s\nshards 1: %s", stored, computed)
	}
}

func TestCatalogueExperimentJobCollectsCSVs(t *testing.T) {
	_, ts := newTestServer(t)
	v, status := postSpec(t, ts.URL, `{"experiment":"fig1","scale":8}`)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	done := awaitDone(t, ts.URL, v.ID)
	if done.Progress.Worlds == 0 {
		t.Fatal("catalogue experiment scheduled no worlds through the pool")
	}
	var res Result
	if err := json.Unmarshal(fetchResult(t, ts.URL, v.ID), &res); err != nil {
		t.Fatal(err)
	}
	if res.Worlds == 0 || len(res.CSVs) == 0 || !strings.Contains(res.Table, "fig1") {
		t.Fatalf("fig1 result incomplete: worlds=%d csvs=%d", res.Worlds, len(res.CSVs))
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		``,
		`{`,
		`{"experiment":"no-such-figure"}`,
		`{"custom":{"net":"iwarp","benchmark":"latency"},"experiment":"fig1"}`,
		`{"custom":{"net":"token-ring","benchmark":"latency"}}`,
		`{"custom":{"net":"iwarp","benchmark":"latency","bogus":1}}`,
		`{"seed":7}`,
	} {
		if v, status := postSpec(t, ts.URL, body); status != http.StatusBadRequest {
			t.Errorf("submit(%s): status %d (job %+v), want 400", body, status, v)
		}
	}
	// Nothing above may have reached the queue or the store.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobView
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected submissions created %d jobs", len(jobs))
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// No Start(): the runner never drains, so the job stays queued and the
	// cancel path below is deterministically the queued→canceled one.
	srv, err := New(Options{CacheDir: t.TempDir(), Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	v, status := postSpec(t, ts.URL, `{"custom":{"net":"ib","benchmark":"latency","size":4,"iters":5}}`)
	if status != http.StatusAccepted || v.State != StateQueued {
		t.Fatalf("status %d state %s, want 202 queued", status, v.State)
	}
	resp, err := http.Post(ts.URL+"/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv JobView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	if cv.State != StateCanceled {
		t.Fatalf("cancelled job is %s, want %s", cv.State, StateCanceled)
	}
	rr, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", rr.StatusCode)
	}
}

func TestProgressStreamReachesTerminalState(t *testing.T) {
	_, ts := newTestServer(t)
	v, status := postSpec(t, ts.URL, `{"custom":{"net":"mxoe","benchmark":"latency","size":4,"iters":5}}`)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last JobView
	n := 0
	for {
		var pv JobView
		if err := dec.Decode(&pv); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		last, n = pv, n+1
	}
	if n == 0 || last.State != StateDone {
		t.Fatalf("progress stream emitted %d views, last state %q; want >=1 ending done", n, last.State)
	}
}

func TestJournalReplaySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir, Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	v, status := postSpec(t, ts.URL, `{"custom":{"net":"mxom","benchmark":"latency","size":4,"iters":5}}`)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	awaitDone(t, ts.URL, v.ID)
	body := fetchResult(t, ts.URL, v.ID)
	ts.Close()
	srv.Close()

	srv2, err := New(Options{CacheDir: dir, Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()

	// The old job ID still resolves, done, with its result intact.
	resp, err := http.Get(ts2.URL + "/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rv JobView
	err = json.NewDecoder(resp.Body).Decode(&rv)
	resp.Body.Close()
	if err != nil || rv.State != StateDone {
		t.Fatalf("replayed job: %v, state %q", err, rv.State)
	}
	if !bytes.Equal(fetchResult(t, ts2.URL, v.ID), body) {
		t.Fatal("replayed job's result differs from the original")
	}

	// Resubmission on the restarted server is a pure cache hit with a fresh,
	// later job ID (the sequence survived the restart too).
	again, status := postSpec(t, ts2.URL, `{"custom":{"net":"mxom","benchmark":"latency","size":4,"iters":5}}`)
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("resubmission after restart: status %d cached %v, want 200 cached", status, again.Cached)
	}
	if again.ID <= v.ID {
		t.Fatalf("job IDs not monotone across restart: %s then %s", v.ID, again.ID)
	}
	if st := srv2.Store().Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restarted server counters %+v, want hits=1 misses=0", st)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var stats struct {
		Version string     `json:"version"`
		Store   StoreStats `json:"store"`
		Pool    struct {
			Jobs int `json:"jobs"`
		} `json:"pool"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != "test-v1" || stats.Pool.Jobs < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || string(hb) != "ok\n" {
		t.Fatalf("healthz: %d %q", hr.StatusCode, hb)
	}
	cr, err := http.Get(ts.URL + "/catalogue")
	if err != nil {
		t.Fatal(err)
	}
	var cat []struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(cr.Body).Decode(&cat)
	cr.Body.Close()
	if err != nil || len(cat) == 0 {
		t.Fatalf("catalogue: %v, %d entries", err, len(cat))
	}
	if fmt.Sprint(cat[0].ID) == "" {
		t.Fatal("catalogue entry missing id")
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
