package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"
)

// SelfCheck is the end-to-end smoke behind `make simdcheck` (cmd/simd
// -check): it boots a real server on a loopback port with a throwaway
// cache, then proves the service's headline contracts over actual HTTP:
//
//   - submitting a small spec runs it and returns a result;
//   - resubmitting the same spec — reordered and reformatted — is a cache
//     hit served without scheduling any simulation world, and its result
//     body is byte-identical to the first;
//   - the store counters witness exactly one miss and one hit;
//   - cancelling a queued job cancels it, and it never grows a result.
func SelfCheck(out io.Writer) error {
	dir, err := os.MkdirTemp("", "simd-check-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := New(Options{CacheDir: dir})
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "simdcheck: server on %s, cache in %s\n", ln.Addr(), dir)

	// 1. The catalogue is served and non-empty.
	var catalogue []struct {
		ID string `json:"id"`
	}
	if err := getJSON(base+"/catalogue", &catalogue); err != nil {
		return fmt.Errorf("catalogue: %w", err)
	}
	if len(catalogue) == 0 {
		return fmt.Errorf("catalogue is empty")
	}
	fmt.Fprintf(out, "simdcheck: catalogue lists %d experiments\n", len(catalogue))

	// 2. First submission: a miss that runs a small two-node world.
	specA := `{"custom":{"net":"iwarp","benchmark":"latency","size":4,"iters":5}}`
	jobA, err := submit(base, specA)
	if err != nil {
		return fmt.Errorf("first submission: %w", err)
	}
	if jobA.Cached {
		return fmt.Errorf("first submission of a fresh spec claims cached")
	}
	if err := waitState(base, jobA.ID, StateDone, 2*time.Minute); err != nil {
		return fmt.Errorf("first job: %w", err)
	}
	bodyA, err := getBody(base + "/jobs/" + jobA.ID + "/result")
	if err != nil {
		return fmt.Errorf("first result: %w", err)
	}
	fmt.Fprintf(out, "simdcheck: first submission simulated, result %d bytes\n", len(bodyA))

	// 3. Second submission: same spec, different field order and
	// whitespace. Must be served from cache, byte-identically.
	specB := "{ \"custom\" : {\n\t\"iters\": 5, \"size\": 4,\n\t\"benchmark\": \"latency\", \"net\": \"iwarp\"\n} }"
	jobB, err := submit(base, specB)
	if err != nil {
		return fmt.Errorf("second submission: %w", err)
	}
	if !jobB.Cached || jobB.State != StateDone {
		return fmt.Errorf("second submission not served from cache: cached=%v state=%s", jobB.Cached, jobB.State)
	}
	bodyB, err := getBody(base + "/jobs/" + jobB.ID + "/result")
	if err != nil {
		return fmt.Errorf("second result: %w", err)
	}
	if !bytes.Equal(bodyA, bodyB) {
		return fmt.Errorf("cache hit is not byte-identical: %d vs %d bytes", len(bodyA), len(bodyB))
	}
	var stats struct {
		Store StoreStats `json:"store"`
	}
	if err := getJSON(base+"/stats", &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.Store.Hits != 1 || stats.Store.Misses != 1 {
		return fmt.Errorf("store counters hits=%d misses=%d, want 1/1", stats.Store.Hits, stats.Store.Misses)
	}
	fmt.Fprintf(out, "simdcheck: second submission served from cache, byte-identical (%d bytes, hits=1 misses=1)\n", len(bodyB))

	// 4. Cancellation: park a slow job in front, cancel the one queued
	// behind it before the runner reaches it.
	slow, err := submit(base, `{"experiment":"fig1","scale":8}`)
	if err != nil {
		return fmt.Errorf("slow submission: %w", err)
	}
	victim, err := submit(base, `{"custom":{"net":"ib","benchmark":"latency","size":8,"iters":5}}`)
	if err != nil {
		return fmt.Errorf("victim submission: %w", err)
	}
	if victim.State != StateQueued {
		return fmt.Errorf("victim not queued behind the slow job: %s", victim.State)
	}
	var cancelled JobView
	if err := postJSON(base+"/jobs/"+victim.ID+"/cancel", &cancelled); err != nil {
		return fmt.Errorf("cancel: %w", err)
	}
	if cancelled.State != StateCanceled {
		return fmt.Errorf("cancelled job is %s, want %s", cancelled.State, StateCanceled)
	}
	if _, err := getBody(base + "/jobs/" + victim.ID + "/result"); err == nil {
		return fmt.Errorf("cancelled job served a result")
	}
	if err := waitState(base, slow.ID, StateDone, 5*time.Minute); err != nil {
		return fmt.Errorf("slow job: %w", err)
	}
	fmt.Fprintf(out, "simdcheck: queued job cancelled cleanly; prior job unaffected\n")
	fmt.Fprintln(out, "simdcheck: OK")
	return nil
}

func submit(base, body string) (JobView, error) {
	var v JobView
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("POST /jobs: %s: %s", resp.Status, b)
	}
	return v, json.Unmarshal(b, &v)
}

func waitState(base, id, want string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		if err := getJSON(base+"/jobs/"+id, &v); err != nil {
			return err
		}
		if v.State == want {
			return nil
		}
		switch v.State {
		case StateFailed, StateCanceled, StateDone:
			return fmt.Errorf("job %s is %s (%s), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %s", id, v.State, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b, nil
}

func getJSON(url string, v any) error {
	b, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func postJSON(url string, v any) error {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, b)
	}
	return json.Unmarshal(b, v)
}
