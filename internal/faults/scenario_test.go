package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestParseDuration(t *testing.T) {
	good := []struct {
		in   string
		want sim.Time
	}{
		{"250us", 250 * sim.Microsecond},
		{"1ms", sim.Millisecond},
		{"0s", 0},
		{"1.5us", 1500 * sim.Nanosecond},
		{" 3ns ", 3 * sim.Nanosecond},
		{"7ps", 7 * sim.Picosecond},
		{"2s", 2 * sim.Second},
	}
	for _, c := range good {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "5", "10 sec", "-1us", "us", "4h"} {
		if _, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) accepted", in)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	marshal := []struct {
		in   Duration
		want string
	}{
		{Duration(250 * sim.Microsecond), `"250us"`},
		{Duration(0), `"0s"`},
		{Duration(1500 * sim.Nanosecond), `"1500ns"`}, // 1.5us is not exact in us
		{Duration(2 * sim.Second), `"2s"`},
	}
	for _, c := range marshal {
		b, err := json.Marshal(c.in)
		if err != nil {
			t.Fatalf("marshal %v: %v", c.in.T(), err)
		}
		if string(b) != c.want {
			t.Errorf("marshal %v = %s, want %s", c.in.T(), b, c.want)
		}
		var back Duration
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("round trip %s: %v", b, err)
		}
		if back != c.in {
			t.Errorf("round trip %s = %v, want %v", b, back.T(), c.in.T())
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`5`), &d); err == nil {
		t.Error("bare-number duration accepted; units must be explicit")
	}
}

func TestClauseValidation(t *testing.T) {
	invalid := []struct {
		name string
		c    Clause
	}{
		{"loss rate zero", Clause{Kind: KindLoss}},
		{"loss rate over one", Loss(1.5)},
		{"corrupt rate negative", Corrupt(-0.1)},
		{"empty window", Loss(0.1).Between(5*sim.Microsecond, 2*sim.Microsecond)},
		{"flap open window", Clause{Kind: KindFlap, Port: 1}},
		{"burst never leaves good state", BurstLoss(0, 0.5)},
		{"rate factor one", RateLimit(1, 1.0)},
		{"rate factor zero", RateLimit(1, 0)},
		{"congest open window", Congest(0, 0.5)},
		{"congest share one", Congest(0, 1).Between(0, sim.Millisecond)},
		{"nic-stall zero stall", Clause{Kind: KindNICStall, Port: 0, Until: Duration(sim.Millisecond)}},
		{"nic-stall period under stall", NICStall(0, sim.Microsecond, 2*sim.Microsecond).Between(0, sim.Millisecond)},
		{"unknown kind", Clause{Kind: "gremlins"}},
	}
	for _, c := range invalid {
		if err := New(1).Add(c.c).Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	valid := New(1).Add(
		Loss(0.01),
		BurstLoss(0.02, 0.3),
		Corrupt(0.001).Scoped(0, 1),
		Flap(1, 0, sim.Millisecond),
		FlapDrop(2, 0, sim.Millisecond),
		RateLimit(0, 0.25),
		Congest(3, 0.9).Between(0, sim.Millisecond),
		NICStall(0, 10*sim.Microsecond, sim.Microsecond).Between(0, sim.Millisecond),
	)
	if err := valid.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestParseScenario(t *testing.T) {
	sc, err := Parse([]byte(`{"seed": 7, "clauses": [
		{"kind": "loss", "rate": 0.01},
		{"kind": "flap", "port": 1, "from": "10us", "until": "20us"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 7 || len(sc.Clauses) != 2 {
		t.Fatalf("parsed %+v", sc)
	}
	if c := sc.Clauses[0]; c.Src != -1 || c.Dst != -1 || c.Port != -1 {
		t.Errorf("unscoped clause did not default to any: %+v", c)
	}
	if c := sc.Clauses[1]; c.From.T() != 10*sim.Microsecond || c.Until.T() != 20*sim.Microsecond {
		t.Errorf("flap window parsed as [%v, %v)", c.From.T(), c.Until.T())
	}

	if _, err := Parse([]byte(`{"clauses": [{"kind": "loss", "rate": 0.01, "frob": 1}]}`)); err == nil {
		t.Error("unknown clause field accepted")
	}
	if _, err := Parse([]byte(`{"clauses": [{"kind": "flap", "port": 1, "from": 10}]}`)); err == nil {
		t.Error("unit-less duration accepted")
	}
	if _, err := Parse([]byte(`{"clauses": [{"kind": "congest", "port": 0, "rate": 0.5}]}`)); err == nil {
		t.Error("invalid clause survived Parse; Validate must run")
	}

	// Builder scenarios survive a JSON round trip unchanged.
	orig := New(9).Add(Loss(0.05), Flap(1, 0, sim.Millisecond), NICStall(0, 10*sim.Microsecond, sim.Microsecond).Between(0, sim.Millisecond))
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatalf("round trip %s: %v", b, err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip changed scenario:\n  %+v\n  %+v", orig, back)
	}
}
