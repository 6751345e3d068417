package experiments

import (
	"testing"

	"xqindep/internal/xmark"
)

// truthCache shares one ground-truth computation across tests.
var truthCache *xmark.Truth

func truth(t *testing.T) *xmark.Truth {
	t.Helper()
	if truthCache == nil {
		tr, err := xmark.GroundTruth(xmark.SampleDocuments(3, 1.2))
		if err != nil {
			t.Fatal(err)
		}
		truthCache = tr
	}
	return truthCache
}

// TestFigure3bShape is the headline reproduction check: chains must be
// sound, more precise than the type baseline on average, and the type
// baseline more precise than the schema-less paths — the ordering the
// paper reports (96% vs 49%, with paths below both).
func TestFigure3bShape(t *testing.T) {
	rows, err := Figure3b(truth(t))
	if err != nil {
		t.Fatal(err) // soundness violation
	}
	if len(rows) != 31 {
		t.Fatalf("rows = %d", len(rows))
	}
	chains, types, paths := Averages(rows)
	t.Logf("average detection: chains %.0f%%, types %.0f%%, paths %.0f%%", chains, types, paths)
	if chains < types {
		t.Errorf("chains (%.0f%%) must dominate types (%.0f%%)", chains, types)
	}
	if chains < 70 {
		t.Errorf("chains average %.0f%% is far below the paper's 96%%", chains)
	}
	if types >= chains {
		t.Errorf("types should lose precision vs chains")
	}
	// Per-row dominance: chains never detects fewer than types.
	for _, r := range rows {
		if r.ChainsFound < r.TypesFound {
			t.Errorf("%s: chains %d < types %d", r.Update, r.ChainsFound, r.TypesFound)
		}
	}
	// The B updates (upward/horizontal axes) are where the paper sees
	// the largest gaps; check the gap exists in aggregate.
	var chainsB, typesB, nB int
	for _, r := range rows {
		if len(r.Update) >= 2 && r.Update[:2] == "UB" {
			chainsB += r.ChainsFound
			typesB += r.TypesFound
			nB += r.TrueIndep
		}
	}
	if chainsB <= typesB {
		t.Errorf("on UB updates chains (%d/%d) should beat types (%d/%d)", chainsB, nB, typesB, nB)
	}
	rendered := RenderFigure3b(rows)
	if len(rendered) == 0 {
		t.Errorf("empty render")
	}
	t.Logf("\n%s", rendered)
}

func TestFigure3aRuns(t *testing.T) {
	rows := Figure3a()
	if len(rows) != 31 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Chains <= 0 || r.Types <= 0 {
			t.Errorf("%s: non-positive timings", r.Update)
		}
		if r.KMin < 1 || r.KMax > 12 {
			t.Errorf("%s: k range %d-%d out of expectation", r.Update, r.KMin, r.KMax)
		}
	}
	t.Logf("\n%s", RenderFigure3a(rows))
}

// TestFigure3aKRangeOverBudget pins the k column when every chain
// analysis overruns its node budget: k is syntactic, so the aborted
// runs must still report it instead of pulling the range down to 0.
func TestFigure3aKRangeOverBudget(t *testing.T) {
	saved := AnalysisLimits.MaxNodes
	AnalysisLimits.MaxNodes = 200
	t.Cleanup(func() { AnalysisLimits.MaxNodes = saved })
	for _, r := range Figure3a() {
		if r.KMin < 1 || r.KMin > r.KMax {
			t.Errorf("%s: k range %d-%d under a 200-node budget", r.Update, r.KMin, r.KMax)
		}
	}
}

func TestFigure3cRuns(t *testing.T) {
	rows := Figure3c([]float64{0.5, 1})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Chains > r.RefreshAll {
			t.Errorf("chains refresh slower than refresh-all: %v > %v", r.Chains, r.RefreshAll)
		}
		if r.SavingsChains() < r.SavingsTypes()-5 {
			t.Errorf("chains savings (%.0f%%) should dominate types (%.0f%%)",
				r.SavingsChains(), r.SavingsTypes())
		}
	}
	t.Logf("\n%s", RenderFigure3c(rows))
}

func TestFigure3dRuns(t *testing.T) {
	rows := Figure3d([]int{1, 3}, []int{1, 5})
	if len(rows) != 2*2*3+2*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Inferred < 0 {
			t.Errorf("negative time")
		}
	}
	t.Logf("\n%s", RenderFigure3d(rows))
}

func TestPercent(t *testing.T) {
	if Percent(3, 4) != 75 {
		t.Errorf("Percent(3,4) = %v", Percent(3, 4))
	}
	if Percent(0, 0) != 100 {
		t.Errorf("Percent(0,0) = %v", Percent(0, 0))
	}
}

func TestPairCount(t *testing.T) {
	if AnalyzerPairCount() != 36*31 {
		t.Errorf("pair count = %d", AnalyzerPairCount())
	}
}
