package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestExperimentCatalogue(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("%d experiments, want 14 (8 paper figures + appendix + faults + the Section 7 extension + breakdown + topology + congestion)", len(exps))
	}
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("fig%d", i+1)
		found := false
		for _, e := range exps {
			if e.ID == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %q", want)
		}
	}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if !seen["ext"] || !seen["appx"] || !seen["faults"] || !seen["topo"] || !seen["breakdown"] {
		t.Error("missing the extension/appendix/faults/topo/breakdown experiments")
	}
	if _, ok := Find("fig3"); !ok {
		t.Error("Find(fig3) failed")
	}
	if _, ok := Find("fig99"); ok {
		t.Error("Find(fig99) found something")
	}
}

func TestCatalogueMatchesExperiments(t *testing.T) {
	exps := Experiments()
	cat := Catalogue()
	ids := IDs()
	if len(cat) != len(exps) || len(ids) != len(exps) {
		t.Fatalf("catalogue %d, ids %d, experiments %d", len(cat), len(ids), len(exps))
	}
	for i, e := range exps {
		if cat[i].ID != e.ID || cat[i].Title != e.Title || cat[i].Paper != e.Paper {
			t.Errorf("catalogue[%d] = %+v does not match experiment %q", i, cat[i], e.ID)
		}
		if ids[i] != e.ID {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], e.ID)
		}
	}
	list := IDList()
	for _, id := range ids {
		if !strings.Contains(list, id) {
			t.Errorf("IDList() missing %q: %s", id, list)
		}
	}
}

func TestRunExperimentCollectsFigures(t *testing.T) {
	e, ok := Find("fig1")
	if !ok {
		t.Fatal("fig1 missing")
	}
	var sb strings.Builder
	var ids []string
	if err := RunExperiment(&sb, e, 8, func(fig bench.Figure) error {
		ids = append(ids, fig.ID)
		if fig.CSV() == "" {
			t.Errorf("figure %q has empty CSV", fig.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "fig1-latency" || ids[1] != "fig1-bandwidth" {
		t.Errorf("collected figures %v", ids)
	}
	if !strings.Contains(sb.String(), "==== fig1:") {
		t.Errorf("table output missing header:\n%s", sb.String())
	}
	wantErr := errors.New("stop")
	if err := RunExperiment(io.Discard, e, 8, func(bench.Figure) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("onFigure error not propagated: %v", err)
	}
}

func TestRunAllSingleExperimentThinned(t *testing.T) {
	var sb strings.Builder
	// Scale 8 keeps this a smoke test; fig1 is the cheapest experiment.
	if err := RunAll(&sb, "fig1", "", 8, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig1:", "fig1-latency", "fig1-bandwidth", "iWARP RDMA Write", "MXoE Send/Recv"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestThinHelpers(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	got := thin(xs, 3)
	if got[0] != 1 || got[len(got)-1] != 7 {
		t.Errorf("thin endpoints wrong: %v", got)
	}
	if len(thin(xs, 1)) != len(xs) {
		t.Error("scale 1 must be identity")
	}
}

func TestAnchorsEvaluateWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("anchors are a long calibration run")
	}
	// The three cheapest anchors, as a fast regression net; the full table
	// runs through cmd/calibrate.
	for _, a := range Anchors()[:4] {
		m := a.Measure()
		rel := (m - a.Paper) / a.Paper
		if rel < 0 {
			rel = -rel
		}
		if rel > a.Tolerance {
			t.Errorf("anchor %q: measured %.2f, paper %.2f (tol %.0f%%)", a.Name, m, a.Paper, a.Tolerance*100)
		}
	}
}

func TestFormatAnchors(t *testing.T) {
	rs := []AnchorResult{
		{Anchor: Anchor{Name: "x", Unit: "us", Paper: 1, Tolerance: 0.1}, Measured: 1.05, Within: true},
		{Anchor: Anchor{Name: "y", Unit: "us", Paper: 2, Tolerance: 0.1}, Measured: 3, Within: false},
	}
	out := FormatAnchors(rs)
	if !strings.Contains(out, "OK") || !strings.Contains(out, "OUT") {
		t.Errorf("format wrong:\n%s", out)
	}
}
