package spec

import (
	"strings"
	"testing"
)

func mustHash(t *testing.T, js string) string {
	t.Helper()
	s, err := Parse([]byte(js))
	if err != nil {
		t.Fatalf("Parse(%s): %v", js, err)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("Hash(%s): %v", js, err)
	}
	return h
}

func TestHashFieldOrderInsensitive(t *testing.T) {
	a := mustHash(t, `{"custom":{"net":"iwarp","benchmark":"latency","size":4,"iters":30}}`)
	b := mustHash(t, `{"custom":{"iters":30,"benchmark":"latency","size":4,"net":"iwarp"}}`)
	if a != b {
		t.Errorf("field order changed the hash: %s vs %s", a, b)
	}
}

func TestHashWhitespaceInsensitive(t *testing.T) {
	a := mustHash(t, `{"custom":{"net":"ib","benchmark":"alltoall","ranks":8}}`)
	b := mustHash(t, "{\n  \"custom\" : {\n\t\"net\": \"ib\",\n\t\"benchmark\": \"alltoall\",\n\t\"ranks\": 8\n  }\n}\n")
	if a != b {
		t.Errorf("whitespace changed the hash: %s vs %s", a, b)
	}
}

func TestHashDefaultsMaterialize(t *testing.T) {
	// Omitting a field and spelling out its default mean the same
	// experiment, so they must share a cache entry.
	implicit := mustHash(t, `{"custom":{"net":"mxom","benchmark":"mpi-latency"}}`)
	explicit := mustHash(t, `{"custom":{"net":"mxom","benchmark":"mpi-latency","size":4,"iters":30}}`)
	if implicit != explicit {
		t.Errorf("materialized defaults changed the hash")
	}
	if catalogue := mustHash(t, `{"experiment":"fig1"}`); catalogue != mustHash(t, `{"experiment":"fig1","scale":1}`) {
		t.Errorf("default scale changed the hash")
	}
}

func TestHashSeparatesDifferentSpecs(t *testing.T) {
	hashes := map[string]string{}
	for _, js := range []string{
		`{"experiment":"fig1"}`,
		`{"experiment":"fig1","scale":4}`,
		`{"experiment":"fig2"}`,
		`{"custom":{"net":"iwarp","benchmark":"latency"}}`,
		`{"custom":{"net":"ib","benchmark":"latency"}}`,
		`{"custom":{"net":"iwarp","benchmark":"latency","size":1024}}`,
		`{"custom":{"net":"iwarp","benchmark":"alltoall","ranks":16}}`,
		`{"seed":7,"custom":{"net":"iwarp","benchmark":"latency","faults":{"clauses":[{"kind":"loss","rate":0.01}]}}}`,
		`{"seed":8,"custom":{"net":"iwarp","benchmark":"latency","faults":{"clauses":[{"kind":"loss","rate":0.01}]}}}`,
	} {
		h := mustHash(t, js)
		if prev, dup := hashes[h]; dup {
			t.Errorf("specs %s and %s collide on %s", prev, js, h)
		}
		hashes[h] = js
	}
}

func TestNormalizeRejects(t *testing.T) {
	for _, tc := range []struct{ js, want string }{
		{`{}`, "experiment ID or a custom workload"},
		{`{"experiment":"fig1","custom":{"net":"ib","benchmark":"latency"}}`, "mutually exclusive"},
		{`{"experiment":"fig1","seed":3}`, "seed applies only"},
		{`{"scale":2,"custom":{"net":"ib","benchmark":"latency"}}`, "scale applies only"},
		{`{"custom":{"net":"token-ring","benchmark":"latency"}}`, "unknown net"},
		{`{"custom":{"net":"ib","benchmark":"linpack"}}`, "unknown benchmark"},
		{`{"custom":{"net":"ib","benchmark":"latency","ranks":4}}`, "ranks applies only"},
		{`{"custom":{"net":"ib","benchmark":"latency","mode":"uni"}}`, "mode applies only"},
		{`{"custom":{"net":"ib","benchmark":"alltoall","grid_x":2}}`, "apply only to halo"},
		{`{"custom":{"net":"ib","benchmark":"mpi-bandwidth","mode":"sideways"}}`, "unknown mode"},
		{`{"custom":{"net":"ib","benchmark":"latency","size":99999999}}`, "size"},
		{`{"custom":{"net":"ib","benchmark":"alltoall","ranks":1}}`, "ranks out of range"},
		{`{"custom":{"net":"ib","benchmark":"latency","topology":{"hosts_per_leaf":2,"spines":1}}}`, "topology applies only"},
		{`{"custom":{"net":"ib","benchmark":"alltoall","ranks":4,"topology":{"hosts_per_leaf":0,"spines":1}}}`, "hosts_per_leaf"},
		{`{"seed":9,"custom":{"net":"ib","benchmark":"latency"}}`, "seed requires a fault scenario"},
		{`{"custom":{"net":"ib","benchmark":"latency","faults":{"seed":5,"clauses":[{"kind":"loss","rate":0.1}]}}}`, "top-level seed"},
		{`{"custom":{"net":"ib","benchmark":"latency","typo_field":1}}`, "unknown field"},
		{`{"experiment":"fig1"} trailing`, "trailing data"},
	} {
		if _, err := Parse([]byte(tc.js)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%s) = %v, want error containing %q", tc.js, err, tc.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	s, err := Parse([]byte(`{"custom":{"net":"mxoe","benchmark":"halo"}}`))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	second, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("canonical form not stable under re-normalization:\n%s\n%s", first, second)
	}
	if c := s.Custom; c.GridX != 2 || c.GridY != 2 || c.Size != 1<<10 || c.Iters != 3 {
		t.Errorf("halo defaults wrong: %+v", c)
	}
}

func TestCanonicalDoesNotMutateReceiver(t *testing.T) {
	s, err := Parse([]byte(`{"experiment":"topo"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw := Spec{Experiment: "topo"} // defaults not materialized
	if _, err := raw.Canonical(); err != nil {
		t.Fatal(err)
	}
	if raw.Scale != 0 {
		t.Errorf("Canonical mutated its receiver: scale = %d", raw.Scale)
	}
	h1, _ := raw.Hash()
	h2, _ := s.Hash()
	if h1 != h2 {
		t.Errorf("normalized and raw specs hash differently")
	}
}

func TestKeySeparatesTuple(t *testing.T) {
	base := Key("abc", 1, "v1")
	for _, k := range []string{Key("abd", 1, "v1"), Key("abc", 2, "v1"), Key("abc", 1, "v2")} {
		if k == base {
			t.Errorf("key does not separate the (hash, seed, version) tuple")
		}
	}
	if Key("abc", 1, "v1") != base {
		t.Errorf("key not deterministic")
	}
	if len(base) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(base))
	}
}

// The shards field is an execution hint: results are byte-identical at any
// shard count (0 and 1 included), so the hint must never enter the
// canonical form or split the cache.
func TestShardsHintExcludedFromHash(t *testing.T) {
	plain := mustHash(t, `{"custom":{"net":"mxoe","benchmark":"alltoall","ranks":8}}`)
	for _, js := range []string{
		`{"shards":0,"custom":{"net":"mxoe","benchmark":"alltoall","ranks":8}}`,
		`{"shards":1,"custom":{"net":"mxoe","benchmark":"alltoall","ranks":8}}`,
		`{"shards":4,"custom":{"net":"mxoe","benchmark":"alltoall","ranks":8}}`,
		`{"shards":8,"custom":{"net":"mxoe","benchmark":"alltoall","ranks":8}}`,
	} {
		if h := mustHash(t, js); h != plain {
			t.Errorf("shards hint entered the hash: %s hashed %s, hint-free spec %s", js, h, plain)
		}
	}
	// The canonical bytes themselves must not carry the hint either.
	s, err := Parse([]byte(`{"shards":4,"experiment":"fig1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 4 {
		t.Fatalf("Parse dropped the hint: shards = %d, want 4", s.Shards)
	}
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "shards") {
		t.Errorf("canonical form %s mentions shards", b)
	}
	if _, err := Parse([]byte(`{"shards":-1,"experiment":"fig1"}`)); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("negative shards accepted: %v", err)
	}
}
